(** A re-export of {!Algebra.Props}, the plan-property analysis, kept
    only because the benchmark's traced run calls [infer]. *)

include module type of struct include Algebra.Props end

(** Derive every node's record with its column types — what lowering
    reads for its annotations — but without the order facts. *)
val infer : Algebra.Plan.node -> analyzer

(** Per-operator wall-clock profiling — the instrument behind the paper's
    Table 2 (the Q11 execution-time breakdown). The compiler labels plan
    nodes with the sub-expression category they implement; the executor
    adds each node's local evaluation time to its label's bucket. *)

type t

(** Accumulation is race-free: every mutator and aggregating read holds
    an internal lock, so a profile shared across domains (or rendered
    while a query runs) never loses increments. The morsel-parallel
    executor still counts only on its coordinating domain, which is what
    keeps counter values bit-identical between serial and parallel
    runs. *)

(** Physical-executor counters: work the typed/selection-vector machinery
    did — and, more importantly, avoided. All zero unless the physical
    backend ran with this profile. *)
type phys = {
  mutable kernels : int;      (** physical kernel invocations *)
  mutable fused_ops : int;
      (** logical operators covered by kernels, summed over invocations.
          Lowering maps every logical node to one kernel, so this always
          equals [kernels]; it stays as the exact count [perfbench]
          reports as [exec.fused_ops]. *)
  mutable rows_in : int;      (** input rows summed over kernel invocations *)
  mutable rows_out : int;     (** output rows summed over kernel invocations *)
  mutable mat_avoided : int;  (** results delivered as selection vector /
                                  const / seq instead of materialized rows *)
  mutable mat_forced : int;   (** batches boxed back to tables at pipeline
                                  breakers or for boxed-fallback kernels *)
  mutable retypes : int;      (** Mixed → typed column conversions *)
  mutable build_flips : int;
      (** joins executed with the hash built on the (estimated-smaller)
          left side *)
  mutable sorts_elided : int;
      (** interior [%] nodes rewritten away because the required order
          was proved to already hold ({!Order}) *)
  mutable sorts_to_merges : int;
      (** [%] sorts degraded to k-way run merges of piecewise-sorted
          input *)
  mutable root_sort_elided : int;
      (** root sort-on-pos skipped because the plan proved pos-order *)
  mutable code_preds : int;
      (** predicates translated to per-fragment dictionary codes and
          evaluated as integer compares (no string materialization) *)
  mutable bulk_decodes : int;
      (** column rows this run's batched staircase scans decoded through
          {!Xmldb.Doc_store}'s bulk range accessors *)
  mutable late_materializations : int;
      (** code-carrying columns expanded to strings at pipeline breakers
          or for consumers that need the text *)
}

val create : unit -> t

val phys : t -> phys

(** One physical kernel invocation with its input and output row
    counts. *)
val add_kernel : t -> rows_in:int -> rows_out:int -> unit

val count_mat_avoided : t -> unit
val count_mat_forced : t -> unit
val count_retype : t -> unit
val count_build_flip : t -> unit

(** [add_sorts_elided t k] records [k] interior [%] nodes the rewriter
    replaced with [#] stamps for the profiled query. *)
val add_sorts_elided : t -> int -> unit

val count_sort_merge : t -> unit
val count_root_sort_elided : t -> unit

val count_code_pred : t -> unit

(** [add_bulk_decodes t k] folds a run's [k] bulk-decoded rows into the
    profile. *)
val add_bulk_decodes : t -> int -> unit

val count_late_mat : t -> unit

(** [add t label seconds] accumulates into [label]'s bucket. *)
val add : t -> string -> float -> unit

(** [add_node t id label seconds] attributes one evaluation of the plan
    node with hash-cons id [id]. Under DAG evaluation every node is added
    once; tree evaluation accumulates repeat counts on shared nodes. *)
val add_node : t -> int -> string -> float -> unit

(** Distinct plan nodes that were evaluated at least once. *)
val unique_nodes : t -> int

(** Total node evaluations ([= unique_nodes] under DAG evaluation). *)
val node_evals : t -> int

(** Per-node attribution, most expensive first: (id, label, evals, seconds). *)
val node_rows : t -> (int * string * int * float) list

val total : t -> float

(** Buckets with their accumulated seconds, largest first. *)
val rows : t -> (string * float) list

(** Render in the style of the paper's Table 2: time in ms and % share. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

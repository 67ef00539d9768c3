(** Rendering of plan DAGs: ASCII trees with sharing references (a node
    already printed appears as [^id]) and Graphviz dot. Used by the CLI's
    plan subcommand and the Figure 6/9/10 benchmarks. *)

(** One-line description of a node, in the paper's notation:
    ["%_{pos:⟨item⟩‖iter}"], ["⊘_{descendant::item}"], ... *)
val describe : Plan.node -> string

(** [annot] appends a per-node note (e.g. inferred properties) after the
    operator description. *)
val to_tree : ?annot:(Plan.node -> string option) -> Plan.node -> string

val to_dot : Plan.node -> string

(** ["N operators (R rownum %, I rowid #)"] — the plan-size metric of
    Figures 6/9 and the 235→141 comparison. *)
val summary : Plan.node -> string

(** A node test in XPath syntax: ["seller"], ["*"], ["text()"], ... *)
val ntest_str : Plan.ntest -> string

val prim1_name : Plan.prim1 -> string
val prim2_name : Plan.prim2 -> string

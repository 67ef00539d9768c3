(** The boxed logical executor: evaluates an algebra DAG bottom-up,
    memoizing every node's result by node id, so Pathfinder-style DAG
    sharing translates into single evaluation.

    The engine never runs it: queries execute on {!Physical}. It is the
    test reference executor — the physical kernels must reproduce its
    tables row for row, in order, and its exact error messages, which the
    interpreter oracle cannot check.

    The engine is "inherently unordered": no operator promises any row
    order; all order semantics live in explicit [pos]/[iter] columns. The
    cost asymmetry the paper's results rest on holds: [Rownum] ("%") sorts
    its input, [Rowid] ("#") stamps a counter. Integer join/group keys
    (iter/bind columns) take unboxed fast paths. *)

(** Which implementation realizes the step operator ⊘ (paper, Section 3):
    the staircase-join scan, or TwigStack-style tag-indexed element
    streams (used where applicable, scan elsewhere). *)
type step_impl = Scan | Tag_index

(** How sharing in the plan is exploited: [Dag] (the default) memoizes
    every node's result by hash-cons id, so shared subplans are computed —
    and their budget cost charged — exactly once per run; [Tree] walks the
    plan as a tree, re-evaluating shared subtrees at every reference (the
    differential-testing oracle for the sharing machinery). Results are
    identical in both modes; only cost differs. *)
type mode = Dag | Tree

(** An evaluation context: result cache + store + optional profile +
    optional resource guard. *)
type ctx

(** [guard] is checked at every operator boundary (one {!Basis.Budget.check}
    per plan-node evaluation; cache hits are free) and charged with every
    materialized result table's rows and — when a byte budget is armed —
    estimated bytes. Exhaustion raises {!Basis.Err.Resource_error} and the
    evaluation unwinds; no partial table escapes. *)
val create :
  ?profile:Profile.t -> ?guard:Basis.Budget.t -> ?step_impl:step_impl ->
  ?mode:mode -> Xmldb.Doc_store.t -> ctx

(** Node evaluations performed so far (cache hits excluded): equals
    {!Plan.count_ops} of the evaluated plan in [Dag] mode and
    {!Plan.count_tree_nodes} in [Tree] mode. *)
val evals : ctx -> int

(** Evaluate a node (and, transitively, its children) against the context;
    cached results are returned as-is. When profiling, each node's local
    evaluation time goes to its label's bucket (or its operator symbol
    when unlabeled) and to its per-node attribution ({!Profile.add_node});
    in [Tree] mode per-node times are inclusive of children. *)
val eval : ctx -> Plan.node -> Table.t

(** [run ?profile ?guard store root] — evaluate against a fresh context. *)
val run :
  ?profile:Profile.t -> ?guard:Basis.Budget.t -> ?step_impl:step_impl ->
  ?mode:mode -> Xmldb.Doc_store.t -> Plan.node -> Table.t

(** {2 Primitive semantics} (exposed for the interpreter and tests) *)

(** Atomization: nodes become their string value; atomics pass through. *)
val atomize : Xmldb.Doc_store.t -> Value.t -> Value.t

val apply1 : Xmldb.Doc_store.t -> Plan.prim1 -> Value.t -> Value.t
val apply2 : Xmldb.Doc_store.t -> Plan.prim2 -> Value.t -> Value.t -> Value.t
val apply3 :
  Xmldb.Doc_store.t -> Plan.prim3 -> Value.t -> Value.t -> Value.t -> Value.t

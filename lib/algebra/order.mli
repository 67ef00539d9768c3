(** Ordering-property inference over the logical plan DAG.

    Complements the value-domain lattice (const/dense/key) with the
    order half of the paper's story: which (column, direction) sort
    orders does each node's output {e already} satisfy, in physical row
    order, under {!Value.compare_total}?

    Facts are derived only from unconditional kernel invariants — the
    staircase join emits document order, [#] stamps a sorted key, joins
    probe left-major, Union appends — never from the query's ordering
    mode. Physical row order is deterministic and identical across the
    boxed reference executor, the typed physical executor, and every morsel/job
    setting, so one analysis covers every backend.

    Consumers: the rewriter elides [%] (Rownum) nodes whose required
    order is already satisfied; the engine elides the root sort-on-pos
    when the optimized plan proves [pos]-order; lowering degrades
    remaining sorts to k-way merges when {!sorted_runs} bounds the run
    count. *)

module SMap : Map.S with type key = string
module SSet : Set.S with type elt = string

(** A sort requirement / guarantee: lexicographic, non-strict, w.r.t.
    {!Value.compare_total}. *)
type req = (Plan.col * Plan.dir) list

type props = {
  facts : req list;
      (** each: rows are non-strictly lex-sorted by these keys *)
  keys : SSet.t;  (** columns with pairwise-distinct values *)
  consts : Value.t SMap.t;
      (** columns equal to one value on every row (order-neutral) *)
  one_row : bool;  (** at most one row: every ordering holds *)
}

val empty : props

(** Memoizing analysis over one DAG (memo keyed by node id, so it is
    also valid for nodes built after the analyzer). *)
type analyzer = Plan.node -> props

val make : unit -> analyzer

(** [satisfies a n req]: does [n]'s output provably arrive sorted by
    [req]? Constant columns are discounted; a matched key column pins
    the remaining requirement. *)
val satisfies : analyzer -> Plan.node -> req -> bool

(** [sorted_runs a n req]: the node's output is a concatenation of at
    most [k] runs each sorted by [req]. [Some 1] means globally sorted;
    [Some k], k > 1 licenses a k-way merge in place of a full sort.
    Unions produce runs; subsequence and column-appending operators pass
    the count through. Capped at 64. *)
val sorted_runs : analyzer -> Plan.node -> req -> int option

(** Render a requirement as ["pos↑,item↓"] — shared by plan dumps and
    tests. *)
val req_to_string : req -> string

(** Compact per-node annotation for plan output: ["ord:1row"],
    ["ord:iter↑,item↑"], or [""] when nothing is known. *)
val annotate : analyzer -> Plan.node -> string

(** The plan-property analysis: one record per plan node, derived
    bottom-up by one rule per operator.

    The value half says what a node's columns can hold: its static
    schema, constant columns, keys (pairwise-distinct columns), whether
    it has at most one row, which columns are {e arbitrary} (born from
    [#]) and static column types. The order half says which
    (column, direction) sort orders its rows already satisfy, in physical
    row order, under {!Value.compare_total}. Facts come only from
    unconditional kernel invariants (the staircase step emits document
    order, [#] stamps a sorted key, joins probe left-major, Union
    appends), never from the query's ordering mode; physical row order is
    identical across the reference executor, the physical kernels and
    every morsel width.

    Consumers: column dependency analysis ([Exrquy.Icols]: const
    criteria dropping, the Section-7 degradation of an all-arbitrary [%]
    to [#], keyed [δ] elision, static schemas); the rewriter (static
    schemas, ["sort-elision"]); lowering (column-type annotations, merge
    hints for surviving sorts); the engine's root-sort skip; and the
    [xrquy plan] annotations.

    The paper's Section-7 {e dense} columns — strictly increasing in row
    order — are not a separate property: a dense column is a key with an
    ascending order fact, and sort elision turns a [%] over one into a
    [#]. *)

module SMap : Map.S with type key = string and type 'a t = 'a Map.Make(String).t
module SSet : Set.S with type elt = string and type t = Set.Make(String).t

(** A sort requirement / guarantee: lexicographic, non-strict, w.r.t.
    {!Value.compare_total}. *)
type req = (Plan.col * Plan.dir) list

type t = {
  schema : SSet.t;
  consts : Value.t SMap.t;  (** column → the value it carries on every row *)
  keys : SSet.t;
      (** columns with pairwise-distinct values; at most one row makes
          every column a key *)
  one_row : bool;  (** at most one row (zero included): every order holds *)
  arbitrary : SSet.t;  (** columns born from [#] *)
  ctypes : Column.ty SMap.t Lazy.t;
      (** column → statically known value type; absent = unknown
          ([T_mixed]). These only decorate the physical plan dump:
          execution re-detects column types dynamically. Computed on
          first use. *)
  facts : req list Lazy.t;
      (** each: rows are non-strictly lex-sorted by these keys; computed
          on first use *)
}

(** Memoizing analysis, keyed by node id: it also answers for nodes built
    (by the same builder) after it was created. *)
type analyzer

val make : unit -> analyzer

val props : analyzer -> Plan.node -> t

(** The node's static schema. *)
val schema : analyzer -> Plan.node -> SSet.t

(** The statically known type of a node's column ([T_mixed] = unknown). *)
val col_ty : analyzer -> Plan.node -> string -> Column.ty

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

(** Render a requirement as ["pos↑,item↓"]. *)
val req_to_string : req -> string

(** Compact per-node order annotation for plan output: ["ord:1row"],
    ["ord:iter↑,item↑"], or [""] when nothing is known. *)
val annotate : analyzer -> Plan.node -> string

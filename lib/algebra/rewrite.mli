(** Property- and cardinality-aware logical rewriting over the plan DAG,
    applied between column dependency analysis and lowering.

    The pass runs a small set of named rules to fixpoint:

    {ul
    {- ["select-pushdown"] — selections migrate through
       Attach/Fun/Project/Distinct and into the join, cross, semijoin or
       union side that owns their column (row order preserved; can only
       suppress dynamic errors, the latitude CDA's pushdown already
       uses);}
    {- ["fun-pushdown"] — Attach and error-free Fun1 primitives
       distribute over Cross into the side owning their argument, so
       per-row computation runs once per input row instead of once per
       pair (order-exact);}
    {- ["project-fuse"] / ["project-split"] — adjacent projections
       compose; a projection over a Cross splits into per-side
       projections (order-exact);}
    {- ["join-synthesis"] — σ over an equality/comparison over a Cross
       becomes a Thetajoin (plus an Attach reconstructing the predicate
       column), replacing the quadratic cross-then-filter with the
       physical layer's hash/sort join paths (order-exact: a theta join
       enumerates surviving pairs in the cross's left-major order);}
    {- ["join-cross-elim"] — a join whose condition touches only one
       factor of a Cross operand commutes with the Cross, shrinking the
       quadratic iteration spaces loop-lifting builds for existential
       predicates (changes row order — gated on order insensitivity);}
    {- ["join-swap"] — order-indifferent join inputs are swapped so the
       hash build side is the estimated-smaller one ({!Plan.Card};
       order-changing, same gate; a strict 2x ratio prevents
       oscillation);}
    {- ["sort-elision"] — an unpartitioned [%] (Rownum) whose input
       provably arrives sorted by the requested keys ({!Props}) becomes
       a [#] (Rowid) stamp: the stable sort of a sorted input is the
       identity, so ranks equal row positions bit-for-bit. Unlike the
       order-changing rules this needs no insensitivity gate — it
       changes no row order, it only stops pretending to;}
    {- ["jg-select-const"] / ["jg-empty-prune"] / ["jg-union-empty"] /
       ["jg-semijoin-synthesis"] / ["jg-semijoin-dedup"] — the join-graph
       isolation rules ({!Joingraph}), which collapse the
       count-then-filter scaffolds of [where empty(for ...)] and
       [some ... satisfies] existentials into {!Plan.op.Semijoin} /
       {!Plan.op.Antijoin} operators. Gated by [join_isolation], not by
       the insensitivity analysis: they are row-order-exact (or prune
       provably empty subtrees under the same 2.3.4 error latitude as
       select pushdown — refusing to discard required-check operators,
       whose errors that latitude does not cover).}}

    Order-changing rules fire only on nodes whose row order provably
    cannot be observed: every path to the root passes a Distinct, a
    Semijoin/Antijoin right input, or an order-indifferent aggregate
    before any order-sensitive operator. This holds in ordered mode too;
    no [fn:unordered] context is required. All rules preserve the result
    multiset exactly. *)

(** What a run did, for plan dumps and tests. *)
type stats = {
  rounds : int;                  (** rebuild passes until fixpoint *)
  ops_before : int;
  ops_after : int;
  fires : (string * int) list;   (** rule name -> fire count, sorted *)
}

val empty_stats : stats

val total_fires : stats -> int

(** [optimize b root] rewrites to fixpoint (bounded by [max_rounds],
    default 50) and returns the new root with run statistics.
    [stats] seeds cardinality estimates for ["join-swap"]; estimates are
    advisory — they steer performance choices, never correctness.
    [order_props] (default [true]) enables the {!Props}-backed
    ["sort-elision"] rule; switching it off restores sort-preserving
    plans for differential testing. [join_isolation] (default [true])
    enables the {!Joingraph} rules; switching it off restores the
    count-then-filter scaffolds for differential testing. *)
val optimize :
  ?max_rounds:int ->
  ?order_props:bool ->
  ?join_isolation:bool ->
  ?stats:Plan.Card.stats ->
  Plan.builder ->
  Plan.node ->
  Plan.node * stats

(** The loop-lifting compilation scheme "e ⇒ q" (paper, Section 3) with
    the order-indifference extensions of Section 4 / Figure 7.

    Every XQuery Core expression compiles, relative to a loop relation
    (one row per active iteration), to a table with schema
    [iter|pos|item]: "in iteration [iter], the expression assumes item
    value [item] at the sequence position corresponding to [pos]'s rank".

    The Figure-7 rules, toggled by {!cfg.unordered_rules}:
    {ul
    {- FN:UNORDERED — [fn:unordered(e) ⇒ #pos(π_(iter,item)(q_e))];}
    {- LOC# — under ordering mode unordered, steps take [#pos] instead of
       [%pos:⟨item⟩‖iter];}
    {- BIND# — under ordering mode unordered (or below an [order by]
       clause, context (f) of the paper), for-variable bindings take
       [#bind] instead of [%bind:⟨iter,pos⟩].}}

    Engineering notes:
    {ul
    {- {e loop-invariant hoisting} ({!cfg.hoist}): sub-expressions compile
       under the shallowest loop binding their free variables and are
       mapped into the current loop, reproducing the "evaluated once only"
       effect the paper gets from Pathfinder's join recognition;}
    {- like real loop-lifted plans, compilation is {e eager through
       conditionals}: both branches of an [if] compile over restricted
       loops and union — dynamic errors may surface from unreached
       branches (spec-sanctioned latitude);}
    {- static cardinality analysis elides the runtime singleton checks
       ([A_the]) wherever an operand is provably a singleton.}} *)

type cfg = {
  b : Algebra.Plan.builder;
  unordered_rules : bool;  (** enable FN:UNORDERED / LOC# / BIND# *)
  hoist : bool;            (** loop-invariant hoisting *)
  join_rec : bool;
      (** FLWOR where-clause value-join recognition (the paper's reference
          [9]): [for $v in D where a cmp b] with a fully loop-invariant D,
          a independent of $v, and b depending on at most $v compiles the
          filtered inner loop as a theta join instead of cross + filter.
          A correlated general-comparison predicate [E[P]] over a
          loop-invariant E compiles as [for $dot in E where P] *)
  join_isolation : bool;
      (** compile-level join-graph isolation: a joinable where may slide
          left past intervening let clauses that do not bind its free
          variables, so join recognition fires on for-let-where shapes
          (XMark Q9). The slid-over lets compile under the join-filtered
          loop — evaluated only for surviving iterations, the
          dynamic-error latitude (XQuery 2.3.4) join recognition already
          uses *)
}

val default_cfg : unit -> cfg

(** Compile a whole Core expression. The resulting plan yields the query
    result as an [iter|pos|item] table with [iter] = 1. Returns the
    configuration (whose builder must be reused for further rewriting)
    and the plan root. *)
val compile_core :
  ?cfg:cfg -> Xquery.Core_ast.core -> cfg * Algebra.Plan.node

(** Join-graph isolation: the DAG-level rules that peel value joins out
    of the iteration scaffold, plus join-graph extraction for plan
    annotations and benchmarks.

    The rules run inside {!Rewrite}'s fixpoint (when its
    [join_isolation] switch is on) and synthesize the
    {!Plan.op.Semijoin} / {!Plan.op.Antijoin} operators from the
    count-then-filter scaffolds loop-lifting emits for
    [where empty(for ...)] and [some ... satisfies] existentials:

    {ul
    {- ["jg-select-const"] — a selection over its own attached boolean
       constant keeps every row ([true]: the attach is returned as-is) or
       none ([false]: the empty relation — subtree pruning under the
       XQuery 2.3.4 error latitude select pushdown already uses);}
    {- ["jg-empty-prune"] — emptiness propagates through row-wise
       operators and join family members (an antijoin against an empty
       right side is its left input, unchanged);}
    {- both pruning rules refuse to discard a subtree containing a
       required-check operator (singleton-cardinality checks, casts,
       [fn:error], division, [A_the]): those errors are demanded by
       function semantics, beyond the 2.3.4 latitude;}
    {- ["jg-union-empty"] — appending an empty side is the identity;}
    {- ["jg-semijoin-synthesis"] —
       [distinct(project_L(join))] with all of [L] from the left side
       becomes [distinct(project_L(semijoin))], bit-identical in row
       order;}
    {- ["jg-semijoin-dedup"] — a [Distinct] under a semi/anti-join's
       right input is dead work: membership ignores multiplicity.}} *)

(** The rule names above, in reporting order. *)
val rules : string list

(** One rewrite attempt on an operator whose children the rewriter has
    already rebuilt. [schema_of] is the memoized static-schema analysis;
    [shared] says whether a node has more than one parent in the plan
    entering the pass (a shared node survives a prune through its other
    reference, so its required checks still run); [fire] the rule
    counter. [None]: no rule applies. *)
val try_rule :
  Plan.builder ->
  schema_of:(Plan.node -> Set.Make(String).t) ->
  shared:(Plan.node -> bool) ->
  fire:(string -> unit) ->
  Plan.op ->
  Plan.node option

(** {2 Join-graph extraction} *)

(** The shape of a plan's join graph: vertices are the non-join operand
    subplans feeding join operators (iteration-independent table
    expressions, shared nodes counted once), edges its value predicates
    (a Cross contributes an operator but no edge). *)
type summary = {
  vertices : int;
  edges : int;
  equijoins : int;
  thetajoins : int;
  semijoins : int;
  antijoins : int;
  crosses : int;
}

val summary : Plan.node -> summary

(** ["5 vertices, 4 edges (2 ⋈, 1 θ, 1 ⋉, 0 ▷, 0 ×)"] *)
val summary_to_string : summary -> string

(** Staircase-join style XPath axis evaluation over the pre/size/level
    encoding (Grust/van Keulen/Teubner, VLDB 2003 — the paper's
    reference [12]). This is the implementation behind the algebraic step
    operator "⊘ ax::nt". *)

(** Loop-lifted step input and output: row [k] is context (or result)
    node [(frag.(k), pre.(k))] of iteration [iter.(k)]. *)
type rows = { iter : int array; frag : int array; pre : int array }

(** [step_lifted store axis test rows] evaluates one location step for
    every iteration of [rows] in one call — the paper's ⊘ over a whole
    iter|item table. The iters of [rows] must be non-decreasing, so that
    each iteration is one run of consecutive rows; within a run the
    contexts may arrive in any order and contain duplicates. The result
    holds the runs' results run by run, in input order, each in document
    order and duplicate-free: exactly {!step} applied to every run, its
    results tagged with the run's iter.

    Staircase techniques applied per run and fragment: context pruning
    for [descendant](-or-self) (each result region is scanned once),
    earliest-context-only evaluation of [following], latest-context-only
    evaluation of [preceding]. Axes whose per-context results interleave
    fall back to collect + sort + dedup of that run's results.

    [batch] (default [true]) lets the three contiguous-range axes
    ([descendant](-or-self), [following], [preceding]) decode kind/name
    columns through the store's bulk range accessors, window by window,
    with name tests translated to per-fragment dictionary codes once and
    compared as integers per row. Results are bit-identical either way;
    [batch:false] is the scalar reference path (engine flag
    [--no-code-eval]).

    [decoded], when given, is credited with every column row a batched
    scan actually decodes (kinds, plus name codes for a name test and
    sizes for [preceding]). The count belongs to the caller's run, so
    concurrent runs never see each other's counts.

    Raises {!Basis.Err.Internal_error} when the iters decrease. *)
val step_lifted :
  ?batch:bool ->
  ?decoded:int Atomic.t ->
  Doc_store.t -> Axis.t -> Node_test.t -> rows -> rows

(** [step store axis test contexts] is {!step_lifted} over a single
    iteration: the context node set may arrive in any order and contain
    duplicates; the result is duplicate-free and in document order. *)
val step :
  ?batch:bool ->
  ?decoded:int Atomic.t ->
  Doc_store.t -> Axis.t -> Node_test.t -> Node_id.t array -> Node_id.t array

(** The principal node kind of an axis (attributes for the attribute axis,
    elements otherwise): name tests match only this kind. *)
val principal_kind : Axis.t -> Node_kind.t

(** {2 Shared helpers} (used by alternative step implementations such as
    {!Tag_index}) *)

(** The output of one {!drive} call, written in place. *)
type out

(** [emit out pre] appends result [pre] to the slice being evaluated;
    {!drive} supplies its iter and fragment when the slice is done. *)
val emit : out -> int -> unit

(** [group frag ctxs out] evaluates one fragment's share of one
    iteration: the context pres [ctxs] of fragment [frag], ascending and
    duplicate-free (an array the caller may reuse once [group]
    returns). It {!emit}s the result pres into [out] and returns
    whether they came out ascending and duplicate-free. *)
type group_eval = int -> int array -> out -> bool

(** The run-by-run walk behind {!step_lifted}, with [group] evaluating
    each (iteration, fragment) slice; same input contract and output
    order. *)
val drive : group_eval -> rows -> rows

(** One iteration (iter 0) over the given contexts. *)
val of_nodes : Node_id.t array -> rows

(** The result nodes of [rows], in row order. *)
val to_nodes : rows -> Node_id.t array

(** Sort a collected node-id vector into document order and drop adjacent
    duplicates. *)
val sort_dedup : Node_id.t Basis.Vec.t -> Node_id.t array

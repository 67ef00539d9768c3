(** Staircase-join style XPath axis evaluation over the pre/size/level
    encoding (Grust/van Keulen/Teubner, VLDB 2003 — the paper's
    reference [12]). This is the implementation behind the algebraic step
    operator "⊘ ax::nt". *)

(** [step store axis test contexts] evaluates one location step: the
    context node set may arrive in any order and contain duplicates; the
    result is duplicate-free and in document order.

    Staircase techniques applied: context pruning for
    [descendant](-or-self) (each result region is scanned once), earliest-
    context-only evaluation of [following], latest-context-only evaluation
    of [preceding]. Axes whose per-context results interleave fall back to
    collect + sort + dedup.

    [batch] (default [true]) lets the three contiguous-range axes
    ([descendant](-or-self), [following], [preceding]) decode kind/name
    columns through the store's bulk range accessors, window by window,
    with name tests translated to per-fragment dictionary codes once and
    compared as integers per row. Results are bit-identical either way;
    [batch:false] is the scalar reference path (engine flag
    [--no-code-eval]).

    [decoded], when given, is credited with every column row a batched
    scan decodes (kinds, plus name codes for a name test and sizes for
    [preceding]). It belongs to the caller's run, so concurrent runs
    never see each other's counts. *)
val step :
  ?batch:bool ->
  ?decoded:int Atomic.t ->
  Doc_store.t -> Axis.t -> Node_test.t -> Node_id.t array -> Node_id.t array

(** The principal node kind of an axis (attributes for the attribute axis,
    elements otherwise): name tests match only this kind. *)
val principal_kind : Axis.t -> Node_kind.t

(** {2 Shared helpers} (used by alternative step implementations such as
    {!Tag_index}) *)

(** Sort the context set and group it per fragment: (fragment id, sorted
    deduplicated context pres) in ascending fragment order. *)
val group_contexts : Node_id.t array -> (int * int array) list

(** Sort a collected node-id vector into document order and drop adjacent
    duplicates. *)
val sort_dedup : Node_id.t Basis.Vec.t -> Node_id.t array

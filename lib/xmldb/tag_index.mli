(** Tag-name indexed step evaluation — the "element streams" alternative
    realization of the step operator ⊘ that the paper attributes to
    TwigStack (reference [5]; Section 3 notes that several step evaluation
    techniques can be plugged in).

    For every (fragment, tag) pair touched, the index materializes the
    sorted stream of preorder ranks carrying that name. Descendant steps
    binary-search the stream per context subtree instead of scanning the
    pre range; child/attribute steps filter the stream by parent. *)

type t

(** An (initially empty) index over the store; streams materialize lazily
    per (fragment, name). The index stays valid as fragments are appended
    (new fragments get their own streams on first use). *)
val create : Doc_store.t -> t

(** Can this (axis, test) profile be answered from the index?
    (child/descendant/descendant-or-self/attribute with a name test.) *)
val applicable : Axis.t -> Node_test.t -> bool

(** Same contract as {!Staircase.step_lifted}, through the same
    loop-lifted walk ({!Staircase.drive}) — per iteration,
    duplicate-free results in document order. Only call when
    {!applicable} holds. *)
val step_lifted :
  t -> Axis.t -> Node_test.t -> Staircase.rows -> Staircase.rows

(** Same contract as {!Staircase.step} — duplicate-free results in
    document order. Only call when {!applicable} holds. *)
val step : t -> Axis.t -> Node_test.t -> Node_id.t array -> Node_id.t array

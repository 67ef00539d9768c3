(** XDM item sequences for the reference interpreter: plain value lists in
    sequence order, reusing {!Algebra.Value} so interpreter and compiled
    results compare directly. *)

type item = Algebra.Value.t
type seq = item list

(** Atomization: nodes become their string value. *)
val atomize : Xmldb.Doc_store.t -> item -> item

val atomize_seq : Xmldb.Doc_store.t -> seq -> seq

(** The node inside an item; dynamic error on atomics. *)
val node_of : item -> Xmldb.Node_id.t

(** Enforce cardinality exactly one / at most one
    ({!Algebra.Value.not_singleton} otherwise). *)
val singleton : seq -> item
val opt_singleton : seq -> item option

(** Effective boolean value per the spec: empty → false, first item a
    node → true, singleton atomic by value, otherwise a dynamic error. *)
val ebv : seq -> bool

(** Sort into document order and remove duplicate nodes; raises on
    atomics. *)
val distinct_doc_order : seq -> seq

(** The result of a path: {!distinct_doc_order}, raising
    {!Algebra.Value.path_not_node} on atomics as the compiled plans'
    node check does. *)
val path_result : seq -> seq

val string_of_item : Xmldb.Doc_store.t -> item -> string

(** Serialize a sequence: nodes as XML, adjacent atomics separated by a
    single space. *)
val serialize : Xmldb.Doc_store.t -> seq -> string

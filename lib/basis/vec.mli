(** Growable arrays (amortized O(1) push), used wherever result sizes are
    unknown up front: the store builder, the XML parser, the columnar
    executor. *)

type 'a t

(** [create ?capacity dummy] makes an empty vector. [dummy] fills unused
    slots and is never observed. *)
val create : ?capacity:int -> 'a -> 'a t

val length : 'a t -> int

(** Reset the length to 0 (keeps the allocation). *)
val clear : 'a t -> unit

(** Ensure capacity for at least [n] elements. *)
val ensure : 'a t -> int -> unit

val push : 'a t -> 'a -> unit

(** O(1) indexed access; raises {!Err.Internal_error} out of bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** Last element; raises {!Err.Internal_error} when empty. *)
val last : 'a t -> 'a

(** Remove and return the last element. *)
val pop : 'a t -> 'a

(** Snapshot the contents as a fresh array of exactly [length] elements. *)
val to_array : 'a t -> 'a array

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [of_array dummy a] builds a vector holding [a]'s elements. *)
val of_array : 'a -> 'a array -> 'a t

(** [append dst src] pushes all of [src] onto [dst]. *)
val append : 'a t -> 'a t -> unit

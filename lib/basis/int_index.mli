(** A flat hash index over an array of machine-int keys: the build side
    of the physical layer's equality matching (hash joins, semijoin key
    sets), its typed duplicate elimination and its grouping of
    constructor content, and the document store's dictionary encoding.

    One open-addressing table of group ids (a power of two of at least
    [2n] slots, linear probing, multiplicative hash) plus flat arrays —
    no per-key bucket. Groups (distinct keys) are numbered in
    first-seen order, and each group's rows are listed in ascending
    order, so callers can emit matches in the reference executor's pair
    order without sorting. The index is immutable once built: concurrent
    [find]s from several domains are safe. *)

type t = private {
  groups : int;  (** number of distinct keys *)
  keys : int array;  (** [keys.(g)] is group [g]'s key, for [g < groups] *)
  start : int array;
      (** CSR offsets, length [groups + 1]: group [g]'s rows are
          [rows.(start.(g))] .. [rows.(start.(g + 1) - 1)] *)
  rows : int array;  (** every row once, grouped, ascending within a group *)
  group_of_row : int array;  (** the group of each row *)
  slots : int array;
      (** the table: group + 1 per slot, 0 = empty; a power of two long *)
  shift : int;  (** a key's home slot is the top bits of its hash *)
}

(** Index rows [0 .. n-1] of the key array. *)
val build : int array -> t

(** The group holding key [k], or [-1]. *)
val find : t -> int -> int

(** The slot a probe for [k] starts at; a key whose group is stored
    elsewhere was displaced by collisions. Exposed so tests can build
    colliding and wrapping probe chains. *)
val home : t -> int -> int

(** [first_rows cols n]: duplicate elimination over rows [0 .. n-1] of
    the tuples [(cols.(0).(r), cols.(1).(r), ...)] — the ascending rows
    that hold each distinct tuple's first occurrence. Uses the same
    table layout and hash (with no column, every row is one tuple). *)
val first_rows : int array array -> int -> int array

(** [number a n]: the distinct non-negative keys among [a.(0 .. n-1)],
    numbered [1, 2, ...] in first-seen order. Returns [(codes, keys)]:
    [codes.(r)] is the number of [a.(r)] (0 for a negative key) and
    [keys.(c - 1)] is the key numbered [c]. Same hash and probing as
    {!build}, but the table grows with the distinct keys rather than
    being sized for [n] of them. *)
val number : int array -> int -> int array * int array

(** In-memory columnar tables — the stand-in for MonetDB's BATs.

    A table is a named list of equal-length value columns. The row set
    carries {e no} inherent order semantics (the runtime is "inherently
    unordered", paper Section 1): any order information lives in explicit
    columns such as [pos] and [iter], exactly as in Pathfinder's
    compilation scheme. Operators access columns by name. *)

type t

val schema : t -> string array
val nrows : t -> int
val ncols : t -> int

(** [create schema cols nrows] wraps existing columns; checks arity and
    lengths. *)
val create : string array -> Value.t array array -> int -> t

val empty : string array -> t

(** Index of a column; internal error when absent. *)
val col_index : t -> string -> int

(** The raw column array (shared, do not mutate). *)
val col : t -> string -> Value.t array

(** The raw column storage, in schema order (zero copy — do not mutate). *)
val columns : t -> Value.t array array

val get : t -> string -> int -> Value.t

(** Build from a row list; each row ordered like the schema. *)
val of_rows : string array -> Value.t array list -> t

(** Materialize row [r] as an array. *)
val row : t -> int -> Value.t array

(** Select a subset of rows by index (duplicates allowed). *)
val gather : t -> int array -> t

(** Reorder / rename / duplicate columns: [(new_name, src_name)] pairs. *)
val project : t -> (string * string) list -> t

val append_col : t -> string -> Value.t array -> t

(** Append [other]'s rows, aligning its columns to [t]'s schema by name. *)
val union : t -> t -> t

(** Debug rendering (up to [max_rows] rows). *)
val to_string : ?max_rows:int -> t -> string

(** Estimated memory footprint in bytes (see {!Value.estimated_bytes}). *)
val estimated_bytes : t -> int

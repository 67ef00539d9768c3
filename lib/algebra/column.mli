(** Typed columns for the physical plan layer.

    The logical {!Table} stores every cell as a boxed {!Value.t}; a
    [Column.t] stores a whole column as one flat array of its dynamic
    type — machine ints, floats, byte-wide booleans, string-pool ids, or
    (frag, pre) node-id pairs — with [Mixed] as the loss-free fallback
    for heterogeneous columns. [Const] (one value, any length) and [Seq]
    (i -> start + i, MonetDB's void) encode Attach and Rowid results
    without materializing anything. *)

type t =
  | Ints of int array
  | Dbls of float array
  | Bools of Bytes.t  (** one byte per row, ['\000'] = false *)
  | Strs of { pool : Basis.String_pool.t; ids : int array }
  | Codes of {
      frag : Xmldb.Doc_store.frag;
      pool : Basis.String_pool.t;
      codes : int array;
    }
      (** A string column kept as its owning fragment's local dictionary
          codes ({!Xmldb.Doc_store.text_code_at}): the compressed-execution
          carrier. Within one fragment, code equality coincides with
          string equality, so equality predicates run as integer compares;
          [get]/{!to_values} materialize through the store's text [pool]
          (late materialization). Codes from different fragments are not
          comparable — {!append} degrades across fragments. *)
  | Nodes of { frag : int array; pre : int array }
  | Const of { v : Value.t; n : int }  (** [v], repeated [n] times *)
  | Seq of { start : int; n : int }  (** [Int (start + i)] *)
  | Mixed of Value.t array

val length : t -> int

(** Box row [i]. *)
val get : t -> int -> Value.t

val const : Value.t -> int -> t
val seq : start:int -> int -> t

(** Infer the tightest typed representation of a boxed column; falls
    back to sharing the array as [Mixed] (zero copy) on heterogeneity.
    Strings are interned into [pool]. *)
val of_values : pool:Basis.String_pool.t -> Value.t array -> t

(** Box the whole column. A [Mixed] column returns its array shared —
    callers must not mutate, same contract as {!Table.col}. *)
val to_values : t -> Value.t array

(** Try to tighten a [Mixed] column; others pass through unchanged. *)
val retype : pool:Basis.String_pool.t -> t -> t

(** Select rows by index, preserving the typed representation
    ([Const] stays const; [Seq] degrades to [Ints]). *)
val gather : t -> int array -> t

(** Disjoint-union append; mismatched representations degrade to
    [Mixed]. [Strs] stay typed only when both share one pool. *)
val append : t -> t -> t

(** Typed columns for the physical plan layer.

    The logical {!Table} stores every cell as a boxed {!Value.t}; a
    [Column.t] stores a whole column as one flat array of its dynamic
    type — machine ints, floats, byte-wide booleans, store text ids, or
    (frag, pre) node-id pairs — with [Mixed] as the loss-free fallback
    for heterogeneous columns. [Const] (one value, any length) and [Seq]
    (i -> start + i, MonetDB's void) encode Attach and Rowid results
    without materializing anything. *)

type t =
  | Ints of int array
  | Dbls of float array
  | Bools of Bytes.t  (** one byte per row, ['\000'] = false *)
  | Strs of { pool : Basis.String_pool.t; ids : int array }
      (** Strings as ids into the store's text pool
          ({!Xmldb.Doc_store.value_at}): the compressed-execution carrier.
          The pool interns, so id equality is string equality across
          fragments, and equality predicates run as integer compares;
          [get]/{!to_values} materialize through [pool] (late
          materialization). *)
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
    Strings stay [Mixed]: only store text has ids. *)
val of_values : Value.t array -> t

(** Box the whole column. A [Mixed] column returns its array shared —
    callers must not mutate, same contract as {!Table.col}. *)
val to_values : t -> Value.t array

(** Select rows by index, preserving the typed representation
    ([Const] stays const; [Seq] degrades to [Ints]). *)
val gather : t -> int array -> t

(** Disjoint-union append; mismatched representations degrade to
    [Mixed]. [Strs] stay typed only when both share one pool. *)
val append : t -> t -> t

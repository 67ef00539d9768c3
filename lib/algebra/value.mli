(** Item values stored in table cells: a pragmatic XDM subset.

    Integers, doubles (also standing in for xs:decimal), strings (also
    standing in for xs:untypedAtomic — atomizing a node of an untyped
    document yields a string), booleans, QNames and node references.

    Comparison and arithmetic implement the XQuery general-comparison
    coercions: an untyped (string) operand meeting a numeric operand is
    cast to xs:double; incompatible pairs raise dynamic errors; NaN makes
    every comparison false except [ne]. *)

type t =
  | Int of int
  | Dbl of float
  | Str of string
  | Bool of bool
  | Qname_v of Xmldb.Qname.t
  | Node of Xmldb.Node_id.t

(** "xs:integer", "node()" and friends, for error messages. *)
val type_name : t -> string

val is_node : t -> bool
val is_numeric : t -> bool

(** {2 Casts} (raising dynamic errors on failure) *)

val float_value : t -> float

(** The xs:integer cast. A string must be [[+-]?[0-9]+] (whitespace
    trimmed); a double must be integral with -2^62 <= d < 2^62. *)
val int_value : t -> int

(** The xs:boolean cast: boolean lexical forms only. *)
val bool_value : t -> bool

(** The effective boolean value of a singleton atomic: any non-empty
    string is true (nodes are the caller's business). *)
val ebv_atomic : t -> bool

(** {2 Dynamic errors both engines raise} — one message each, so the
    compiled plans and the interpreter report an error alike. *)

(** A sequence of [n] items where exactly one, or at most one, is
    allowed. *)
val not_singleton : int -> 'a

(** The effective boolean value of a sequence of [n > 1] atomic
    items. *)
val ebv_of_atomics : int -> 'a

(** A path step returned the atomic value [v]. *)
val path_not_node : t -> 'a

(** A node was required (an operand of [|], [intersect] or [except], a
    node accessor) and the atomic value [v] came instead. *)
val not_node : t -> 'a

(** An operand of [to] (XPTY0004 unless it is an xs:integer): an [Int]
    as it is, a string — standing in for xs:untypedAtomic — cast to
    xs:integer, a double or a boolean a type error. *)
val range_bound : t -> int

(** A position argument of [fn:remove] or [fn:insert-before], read by
    {!range_bound}'s rule: a double or a boolean raises its own
    XPTY0004 message. *)
val position : t -> int

(** The name of a constructed [what] (["element"], ["attribute"]): a
    QName, or a string read as one; any other value is a type error. *)
val node_name : string -> t -> Xmldb.Qname.t

(** An xs:integer result outside the 63-bit range (FOAR0002); also a
    double [idiv] quotient that is NaN, infinite or out of range. *)
val int_overflow : unit -> 'a

(** {2 Checked xs:integer arithmetic} — a result outside the 63-bit
    range raises {!int_overflow} instead of wrapping. [idiv_int] expects
    a non-zero divisor. *)

val add_int : int -> int -> int
val sub_int : int -> int -> int
val mul_int : int -> int -> int
val idiv_int : int -> int -> int
val neg_int : int -> int
val abs_int : int -> int

(** An exact xs:integer sum. {!int_sum_add} is associative and
    commutative, so partial sums over any split of the rows, added in
    any order, give the same result and the same overflow verdict. *)
type int_sum

val int_sum : int -> int_sum
val int_sum_add : int_sum -> int_sum -> int_sum

(** The total; raises {!int_overflow} when it is out of range. *)
val int_sum_value : int_sum -> int

(** XDM canonical-ish serialization of an atomic value; raises on nodes
    (their string value needs the store). *)
val to_string : t -> string

(** Parse an XSD numeric lexical form, surrounding whitespace trimmed:
    [[+-]?[0-9]+] as an [Int] (a [Dbl] when out of range), a decimal with
    an optional exponent, [INF], [-INF] or [NaN] as a [Dbl]. [None] for
    anything else (OCaml literal syntax such as [0x10] or [1_000]
    included). *)
val parse_number : string -> t option

(** {2 Total order} — a deterministic order across all values, used by
    sort/group/dedup operators. Numerics compare numerically with each
    other; otherwise by type rank, then value. Not an XQuery-visible
    order. *)

val compare_total : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** {2 XQuery comparisons} with general-comparison coercion *)

type cmp_result = C_lt | C_eq | C_gt | C_unordered

val compare_xq : t -> t -> cmp_result

val cmp_eq : t -> t -> bool
val cmp_ne : t -> t -> bool
val cmp_lt : t -> t -> bool
val cmp_le : t -> t -> bool
val cmp_gt : t -> t -> bool
val cmp_ge : t -> t -> bool

(** {2 Arithmetic} — untyped operands cast to xs:double; [Int op Int]
    stays integral where exact ([div] may return a double). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val idiv : t -> t -> t
val modulo : t -> t -> t
val neg : t -> t

(** fn:sum of atomized items: [Int 0] when empty, an [Int] when every
    item is one (raising {!int_overflow} only when the exact total is out
    of range, whatever the order of the items), else [add]'s xs:double
    fold. *)
val sum : t Seq.t -> t

(** The numeric reading of a value if it has one (numerics themselves,
    or strings that parse as numbers) — the fn:min/fn:max coercion
    helper. *)
val numeric_view : t -> t option

val pp : Format.formatter -> t -> unit

(** Rough per-cell memory footprint in bytes (the currency of
    {!Basis.Budget} byte accounting) — an estimate, not an exact size. *)
val estimated_bytes : t -> int

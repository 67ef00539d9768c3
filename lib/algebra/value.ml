(* Item values stored in table cells. Atomic values follow a pragmatic XDM
   subset: integers, doubles (also standing in for xs:decimal), strings
   (also standing in for xs:untypedAtomic — every value atomized from a
   node is a string, as in an untyped document), booleans and QNames.

   The comparison/arithmetic semantics implement XQuery general-comparison
   coercion: an untyped (string) operand meeting a numeric operand is cast
   to xs:double; value comparisons between incompatible types raise a
   dynamic error. *)

open Basis

type t =
  | Int of int
  | Dbl of float
  | Str of string
  | Bool of bool
  | Qname_v of Xmldb.Qname.t
  | Node of Xmldb.Node_id.t

let type_name = function
  | Int _ -> "xs:integer"
  | Dbl _ -> "xs:double"
  | Str _ -> "xs:string"
  | Bool _ -> "xs:boolean"
  | Qname_v _ -> "xs:QName"
  | Node _ -> "node()"

let is_node = function Node _ -> true | _ -> false
let is_numeric = function Int _ | Dbl _ -> true | _ -> false

(* -- casts ---------------------------------------------------------------- *)

(* The XSD lexical forms, checked before OCaml's readers see a string:
   those also take OCaml literal syntax (0x10, 1_000, 0b11, 0x1p3, inf,
   nan). [digits s i] is the index after the run of digits from [i],
   [sign s i] the index after an optional sign at [i]. *)
let digits s i =
  let rec go j =
    if j < String.length s && s.[j] >= '0' && s.[j] <= '9' then go (j + 1)
    else j
  in
  go i

let sign s i =
  if i < String.length s && (s.[i] = '+' || s.[i] = '-') then i + 1 else i

(* [+-]?[0-9]+ *)
let integer_form s =
  let i = sign s 0 in
  let j = digits s i in
  j > i && j = String.length s

(* A decimal ([+-]? digits with an optional '.', a digit on at least one
   side of it) with an optional exponent [eE][+-]?[0-9]+. *)
let decimal_form s =
  let n = String.length s in
  let i = sign s 0 in
  let j = digits s i in
  let k = if j < n && s.[j] = '.' then digits s (j + 1) else j in
  (j > i || k > j + 1)
  && (k = n
      || ((s.[k] = 'e' || s.[k] = 'E')
          &&
          let e = sign s (k + 1) in
          let m = digits s e in
          m > e && m = n))

(* A number in an XSD lexical form, surrounding whitespace trimmed: an
   integer when it fits, else a double. *)
let parse_number s =
  let s = String.trim s in
  match s with
  | "INF" -> Some (Dbl infinity)
  | "-INF" -> Some (Dbl neg_infinity)
  | "NaN" -> Some (Dbl nan)
  | _ when integer_form s -> (
    match int_of_string_opt s with
    | Some i -> Some (Int i)
    | None -> Some (Dbl (float_of_string s)))
  | _ when decimal_form s -> Some (Dbl (float_of_string s))
  | _ -> None

(* A double converts to an xs:integer exactly when -2^62 <= d < 2^62, the
   native int range; both bounds are exact doubles and NaN fails both
   tests. *)
let int_range_limit = Float.ldexp 1.0 62

let fits_int f = f >= -.int_range_limit && f < int_range_limit

let float_value = function
  | Int i -> float_of_int i
  | Dbl f -> f
  | Str s ->
    (match parse_number s with
     | Some (Int i) -> float_of_int i
     | Some (Dbl f) -> f
     | _ -> Err.dynamic "cannot cast %S to xs:double" s
     | exception _ -> Err.dynamic "cannot cast %S to xs:double" s)
  | Bool b -> if b then 1.0 else 0.0
  | v -> Err.dynamic "cannot cast %s to xs:double" (type_name v)

let int_value = function
  | Int i -> i
  | Dbl f ->
    if Float.is_integer f && fits_int f then int_of_float f
    else Err.dynamic "cannot cast %g to xs:integer" f
  | Str s -> (
    match parse_number s with
    | Some (Int i) -> i
    | _ -> Err.dynamic "cannot cast %S to xs:integer" s)
  | Bool b -> if b then 1 else 0
  | v -> Err.dynamic "cannot cast %s to xs:integer" (type_name v)

(* The xs:boolean *cast* (used by casts and boolean-vs-untyped
   comparisons): only the boolean lexical forms are accepted. *)
let bool_value = function
  | Bool b -> b
  | Str "true" | Str "1" -> true
  | Str "false" | Str "0" -> false
  | Int i -> i <> 0
  | Dbl f -> not (f = 0.0 || Float.is_nan f)
  | v -> Err.dynamic "cannot cast %s to xs:boolean" (type_name v)

(* The *effective boolean value* of a singleton atomic (different from the
   cast: any non-empty string is true). Nodes are handled by the caller
   (a node's EBV is true). *)
let ebv_atomic = function
  | Bool b -> b
  | Str s -> s <> ""
  | Int i -> i <> 0
  | Dbl f -> not (f = 0.0 || Float.is_nan f)
  | v -> Err.dynamic "no effective boolean value for %s" (type_name v)

let not_singleton n =
  Err.dynamic "a singleton sequence is required here, got %d items" n

let ebv_of_atomics n =
  Err.dynamic "effective boolean value of a sequence of %d atomic items" n

let path_not_node v =
  Err.dynamic "path steps must return nodes, got %s" (type_name v)

let not_node v = Err.dynamic "expected a node, got %s" (type_name v)

let int_overflow () = Err.dynamic "integer overflow"

(* An xs:integer operand: an [Int] as it is, a string (standing in for
   xs:untypedAtomic) cast, a double or a boolean a type error. *)
let integer_operand what = function
  | (Dbl _ | Bool _) as v ->
    Err.dynamic "%s must be an xs:integer, got %s" what (type_name v)
  | v -> int_value v

let range_bound = integer_operand "a range operand"
let position = integer_operand "a position"

let node_name what = function
  | Qname_v q -> q
  | Str s -> Xmldb.Qname.of_string s
  | v -> Err.dynamic "%s name must be a QName, got %s" what (type_name v)

(* Checked xs:integer arithmetic on the 63-bit native ints: a result out
   of range raises instead of wrapping. A sum overflows exactly when both
   operands differ in sign from it; a difference when the operands differ
   in sign and the result differs from the minuend; a product when
   dividing it back fails ([min_int / -1] wraps to [min_int], hence the
   extra case). *)
let add_int x y =
  let s = x + y in
  if (x lxor s) land (y lxor s) < 0 then int_overflow () else s

let sub_int x y =
  let d = x - y in
  if (x lxor y) land (x lxor d) < 0 then int_overflow () else d

let mul_int x y =
  let p = x * y in
  if x <> 0 && (p / x <> y || (x = -1 && y = min_int)) then int_overflow ()
  else p

let idiv_int x y = if y = -1 && x = min_int then int_overflow () else x / y
let neg_int x = if x = min_int then int_overflow () else -x
let abs_int x = if x = min_int then int_overflow () else abs x

(* An exact xs:integer sum: the total modulo 2^63 and the net number of
   times adding wrapped it. Adding two is associative and commutative, so
   partial sums over any split of the input, added in any order, reach
   the same pair. With the total in [min_int, max_int], the exact sum
   [total + wraps * 2^63] is in range exactly when [wraps = 0], so
   whether a sum overflows does not depend on the order of its items. *)
type int_sum = { total : int; wraps : int }

let int_sum x = { total = x; wraps = 0 }

let int_sum_add a b =
  let s = a.total + b.total in
  let w =
    if (a.total lxor s) land (b.total lxor s) >= 0 then 0
    else if b.total > 0 then 1
    else -1
  in
  { total = s; wraps = a.wraps + b.wraps + w }

let int_sum_value a = if a.wraps <> 0 then int_overflow () else a.total

(* Serialization of atomic values (XDM canonical-ish forms). *)
let to_string = function
  | Int i -> string_of_int i
  | Dbl f ->
    if Float.is_nan f then "NaN"
    else if f = infinity then "INF"
    else if f = neg_infinity then "-INF"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else begin
      let s = Printf.sprintf "%.12g" f in
      s
    end
  | Str s -> s
  | Bool b -> if b then "true" else "false"
  | Qname_v q -> Xmldb.Qname.to_string q
  | Node _ as v -> Err.dynamic "cannot stringify %s without a store" (type_name v)

(* -- total order (used for sorting, grouping, dedup) ---------------------- *)

let type_rank = function
  | Bool _ -> 0 | Int _ -> 1 | Dbl _ -> 1 | Str _ -> 2 | Qname_v _ -> 3
  | Node _ -> 4

(* A deterministic total order across all values: numerics compare
   numerically with each other, otherwise by type rank then value. Not an
   XQuery-visible order; used internally by sort/group operators. *)
let compare_total a b =
  let ra = type_rank a and rb = type_rank b in
  if ra <> rb then Int.compare ra rb
  else
    match (a, b) with
    | Bool x, Bool y -> Bool.compare x y
    | (Int _ | Dbl _), (Int _ | Dbl _) ->
      (match (a, b) with
       | Int x, Int y -> Int.compare x y
       | _ -> Float.compare (float_value a) (float_value b))
    | Str x, Str y -> String.compare x y
    | Qname_v x, Qname_v y -> Xmldb.Qname.compare x y
    | Node x, Node y -> Xmldb.Node_id.compare x y
    | _ -> Err.internal "compare_total: unreachable"

let equal a b = compare_total a b = 0

let hash = function
  | Int i -> Hashtbl.hash (1, i)
  | Dbl f ->
    if Float.is_integer f && Float.abs f < 1e18 then Hashtbl.hash (1, int_of_float f)
    else Hashtbl.hash (1, f)
  | Str s -> Hashtbl.hash (2, s)
  | Bool b -> Hashtbl.hash (0, b)
  | Qname_v q -> Hashtbl.hash (3, Xmldb.Qname.to_string q)
  | Node n -> Hashtbl.hash (4, Xmldb.Node_id.frag n, Xmldb.Node_id.pre n)

(* -- XQuery comparison with general-comparison coercion ------------------- *)

type cmp_result =
  | C_lt
  | C_eq
  | C_gt
  | C_unordered  (* a NaN is involved: every comparison is false, ne is true *)

let of_int_cmp c = if c < 0 then C_lt else if c = 0 then C_eq else C_gt

let float_cmp x y =
  if Float.is_nan x || Float.is_nan y then C_unordered
  else of_int_cmp (Float.compare x y)

let compare_xq a b =
  match (a, b) with
  | Int x, Int y -> of_int_cmp (Int.compare x y)
  | (Int _ | Dbl _), (Int _ | Dbl _)
  | Str _, (Int _ | Dbl _) | (Int _ | Dbl _), Str _ ->
    (* untyped meets numeric: cast the untyped side to xs:double *)
    float_cmp (float_value a) (float_value b)
  | Str x, Str y -> of_int_cmp (String.compare x y)
  | Bool x, Bool y -> of_int_cmp (Bool.compare x y)
  | Bool x, Str s -> of_int_cmp (Bool.compare x (bool_value (Str s)))
  | Str s, Bool y -> of_int_cmp (Bool.compare (bool_value (Str s)) y)
  | Qname_v x, Qname_v y ->
    if Xmldb.Qname.equal x y then C_eq
    else of_int_cmp (Xmldb.Qname.compare x y)
  | _ ->
    Err.dynamic "cannot compare %s with %s" (type_name a) (type_name b)

let cmp_eq a b = compare_xq a b = C_eq
let cmp_ne a b =
  (match compare_xq a b with C_eq -> false | C_lt | C_gt | C_unordered -> true)
let cmp_lt a b = compare_xq a b = C_lt
let cmp_le a b =
  (match compare_xq a b with C_lt | C_eq -> true | C_gt | C_unordered -> false)
let cmp_gt a b = compare_xq a b = C_gt
let cmp_ge a b =
  (match compare_xq a b with C_gt | C_eq -> true | C_lt | C_unordered -> false)

(* -- arithmetic ------------------------------------------------------------ *)

let arith_operands a b =
  (* untyped operands are cast to xs:double per the XQuery arithmetic rules *)
  let norm = function
    | Str s ->
      (match parse_number s with
       | Some v -> (match v with Int i -> Dbl (float_of_int i) | v -> v)
       | None -> Err.dynamic "cannot cast %S to a number" s)
    | v -> v
  in
  (norm a, norm b)

let add a b =
  match arith_operands a b with
  | Int x, Int y -> Int (add_int x y)
  | x, y -> Dbl (float_value x +. float_value y)

(* fn:sum over atomized items. An all-xs:integer input sums exactly
   ([int_sum]), so it raises only when its total is out of range, however
   the items are ordered or split; from the first other item on, the fold
   is [add]'s in xs:double, from the exact integer total before it. *)
let sum items =
  let rec ints acc items =
    match items () with
    | Seq.Nil -> Int (int_sum_value acc)
    | Seq.Cons (Int x, rest) -> ints (int_sum_add acc (int_sum x)) rest
    | Seq.Cons (v, rest) ->
      let so_far =
        Float.of_int acc.total +. Float.ldexp (Float.of_int acc.wraps) 63
      in
      Seq.fold_left add (add (Dbl so_far) v) rest
  in
  ints (int_sum 0) items

let sub a b =
  match arith_operands a b with
  | Int x, Int y -> Int (sub_int x y)
  | x, y -> Dbl (float_value x -. float_value y)

let mul a b =
  match arith_operands a b with
  | Int x, Int y -> Int (mul_int x y)
  | x, y -> Dbl (float_value x *. float_value y)

let div a b =
  match arith_operands a b with
  | Int _, Int 0 -> Err.dynamic "division by zero"
  | Int x, Int y ->
    if x mod y = 0 then Int (idiv_int x y)
    else Dbl (float_of_int x /. float_of_int y)
  | x, y -> Dbl (float_value x /. float_value y)

let idiv a b =
  match arith_operands a b with
  | _, Int 0 -> Err.dynamic "integer division by zero"
  | Int x, Int y -> Int (idiv_int x y)
  | x, y ->
    let fy = float_value y in
    if fy = 0.0 then Err.dynamic "integer division by zero"
    else
      (* a NaN, infinite or out-of-range quotient is FOAR0002 *)
      let q = Float.trunc (float_value x /. fy) in
      if fits_int q then Int (int_of_float q) else int_overflow ()

let modulo a b =
  match arith_operands a b with
  | _, Int 0 -> Err.dynamic "modulus by zero"
  | Int x, Int y -> Int (x - (x / y * y))
  | x, y -> Dbl (Float.rem (float_value x) (float_value y))

let neg = function
  | Int i -> Int (neg_int i)
  | Dbl f -> Dbl (-.f)
  | Str _ as v -> (match arith_operands v (Int 0) with x, _ -> Dbl (-.(float_value x)))
  | v -> Err.dynamic "cannot negate %s" (type_name v)

(* fn:min/fn:max comparison discipline: untypedAtomic operands are cast
   to xs:double per the spec. Since this model carries both xs:string and
   untypedAtomic as [Str], we use: if every item in the group is numeric
   or parses as a number, compare numerically; otherwise compare as
   strings (see DESIGN.md). [minmax_view] returns the comparison proxy. *)
let numeric_view = function
  | Int _ | Dbl _ as v -> Some v
  | Str s -> parse_number s
  | Bool _ | Qname_v _ | Node _ -> None

let pp fmt v =
  match v with
  | Node n -> Format.fprintf fmt "node(%s)" (Xmldb.Node_id.to_string n)
  | Qname_v q -> Format.fprintf fmt "qname(%s)" (Xmldb.Qname.to_string q)
  | v -> Format.pp_print_string fmt (to_string v)

(* Rough per-cell memory footprint (boxed OCaml representation), the
   currency of Budget byte accounting. Deliberately an estimate: close
   enough to catch a runaway materialization, cheap enough to compute. *)
let estimated_bytes = function
  | Int _ | Bool _ -> 16
  | Dbl _ -> 24
  | Str s -> 32 + String.length s
  | Qname_v _ -> 48
  | Node _ -> 24

(* Typed columns for the physical plan layer: the MonetDB/BAT-style
   unboxed carriers the paper's back-end executes on. The logical layer
   ([Table]) stores every cell as a boxed [Value.t]; a [Column.t] stores a
   whole column in one flat array of its dynamic type — machine ints,
   floats, byte-wide booleans, store text ids, or (frag, pre) node-id
   pairs — with [Mixed] as the loss-free fallback for genuinely
   heterogeneous columns. Two dense encodings ride along: [Const] (the
   result of Attach: one value, any length — never materialized) and
   [Seq] (the result of Rowid [#]: i -> start + i, MonetDB's void — the
   "free numbering" the paper's cost asymmetry rests on, here literally
   O(1)). *)

open Basis

type t =
  | Ints of int array
  | Dbls of float array
  | Bools of Bytes.t                               (* one byte per row *)
  | Strs of { pool : String_pool.t; ids : int array }  (* store text ids *)
  | Nodes of { frag : int array; pre : int array }
  | Const of { v : Value.t; n : int }              (* v, repeated n times *)
  | Seq of { start : int; n : int }                (* Int (start + i) *)
  | Mixed of Value.t array

let length = function
  | Ints a -> Array.length a
  | Dbls a -> Array.length a
  | Bools b -> Bytes.length b
  | Strs { ids; _ } -> Array.length ids
  | Nodes { pre; _ } -> Array.length pre
  | Const { n; _ } -> n
  | Seq { n; _ } -> n
  | Mixed a -> Array.length a

let get c i =
  match c with
  | Ints a -> Value.Int a.(i)
  | Dbls a -> Value.Dbl a.(i)
  | Bools b -> Value.Bool (Bytes.unsafe_get b i <> '\000')
  | Strs { pool; ids } -> Value.Str (String_pool.get pool ids.(i))
  | Nodes { frag; pre } ->
    Value.Node (Xmldb.Node_id.make ~frag:frag.(i) ~pre:pre.(i))
  | Const { v; n } ->
    if i < 0 || i >= n then Err.internal "Column.get: Const out of bounds";
    v
  | Seq { start; n } ->
    if i < 0 || i >= n then Err.internal "Column.get: Seq out of bounds";
    Value.Int (start + i)
  | Mixed a -> a.(i)

let const v n = Const { v; n }
let seq ~start n = Seq { start; n }

(* -- conversions ----------------------------------------------------------- *)

(* Infer the tightest typed representation of a boxed column: one
   detection-and-build pass per candidate type; any heterogeneity falls
   back to sharing the boxed array as [Mixed] (zero copy). Strings stay
   [Mixed]: ids come only from the store's text pool ([Strs]). *)
let of_values (vs : Value.t array) : t =
  let n = Array.length vs in
  if n = 0 then Mixed vs
  else
    match vs.(0) with
    | Value.Int _ ->
      let a = Array.make n 0 in
      let rec go i =
        if i >= n then Ints a
        else
          match vs.(i) with
          | Value.Int x -> a.(i) <- x; go (i + 1)
          | _ -> Mixed vs
      in
      go 0
    | Value.Dbl _ ->
      let a = Array.make n 0.0 in
      let rec go i =
        if i >= n then Dbls a
        else
          match vs.(i) with
          | Value.Dbl x -> a.(i) <- x; go (i + 1)
          | _ -> Mixed vs
      in
      go 0
    | Value.Bool _ ->
      let b = Bytes.make n '\000' in
      let rec go i =
        if i >= n then Bools b
        else
          match vs.(i) with
          | Value.Bool x -> if x then Bytes.set b i '\001'; go (i + 1)
          | _ -> Mixed vs
      in
      go 0
    | Value.Node _ ->
      let frag = Array.make n 0 and pre = Array.make n 0 in
      let rec go i =
        if i >= n then Nodes { frag; pre }
        else
          match vs.(i) with
          | Value.Node nd ->
            frag.(i) <- Xmldb.Node_id.frag nd;
            pre.(i) <- Xmldb.Node_id.pre nd;
            go (i + 1)
          | _ -> Mixed vs
      in
      go 0
    | Value.Str _ | Value.Qname_v _ -> Mixed vs

let to_values c =
  match c with
  | Mixed a -> a  (* shared, like Table.col: callers must not mutate *)
  | _ -> Array.init (length c) (fun i -> get c i)

(* -- bulk operations ------------------------------------------------------- *)

let gather c (idx : int array) : t =
  let n = Array.length idx in
  match c with
  | Ints a -> Ints (Array.map (fun i -> a.(i)) idx)
  | Dbls a -> Dbls (Array.map (fun i -> a.(i)) idx)
  | Bools b ->
    let out = Bytes.create n in
    for k = 0 to n - 1 do Bytes.set out k (Bytes.get b idx.(k)) done;
    Bools out
  | Strs { pool; ids } -> Strs { pool; ids = Array.map (fun i -> ids.(i)) idx }
  | Nodes { frag; pre } ->
    Nodes
      { frag = Array.map (fun i -> frag.(i)) idx;
        pre = Array.map (fun i -> pre.(i)) idx }
  | Const { v; n = len } ->
    Array.iter
      (fun i ->
         if i < 0 || i >= len then
           Err.internal "Column.gather: Const out of bounds")
      idx;
    Const { v; n }
  | Seq { start; n = len } ->
    Ints
      (Array.map
         (fun i ->
            if i < 0 || i >= len then
              Err.internal "Column.gather: Seq out of bounds";
            start + i)
         idx)
  | Mixed a -> Mixed (Array.map (fun i -> a.(i)) idx)

(* Disjoint-union append. Matching representations stay typed ([Strs]
   only when both columns physically share one pool — ids are only
   comparable within a pool); anything else degrades to [Mixed]. *)
let append a b =
  match (a, b) with
  | Ints x, Ints y -> Ints (Array.append x y)
  | (Ints _ | Seq _), (Ints _ | Seq _) ->
    (* a [#] numbering kept as [Seq] (e.g. by a zero-copy join) stays
       int when appended *)
    let na = length a in
    let int_at c i =
      match c with
      | Ints x -> x.(i)
      | Seq { start; _ } -> start + i
      | _ -> Err.internal "Column.append: int column expected"
    in
    Ints
      (Array.init (na + length b) (fun i ->
           if i < na then int_at a i else int_at b (i - na)))
  | Dbls x, Dbls y -> Dbls (Array.append x y)
  | Bools x, Bools y -> Bools (Bytes.cat x y)
  | Strs { pool = p1; ids = x }, Strs { pool = p2; ids = y } when p1 == p2 ->
    Strs { pool = p1; ids = Array.append x y }
  | Nodes n1, Nodes n2 ->
    Nodes
      { frag = Array.append n1.frag n2.frag;
        pre = Array.append n1.pre n2.pre }
  | Const c1, Const c2 when Value.equal c1.v c2.v ->
    Const { v = c1.v; n = c1.n + c2.n }
  | _ ->
    Mixed (Array.append (to_values a) (to_values b))

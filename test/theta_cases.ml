(* The inequality theta-join matrix, shared by test_physical (every case
   against the reference executor, with the path the kernel took) and
   test_parallel (every case at jobs > 1 over morsels of 4 rows against
   the serial run): each operator over each key representation the
   kernel reads typed, the shapes it hands to the nested loop, the edges
   of the xs:double order, one-row and all-NaN sides, cast errors in the
   nested loop's order, and empty sides. *)

open Algebra

(* The texts that [Strs] keys are read from: the [v] attributes of
   n.xml, in document order. *)
let texts =
  [ "3"; "1.5"; "-2"; "NaN"; "INF"; "-INF"; "0"; "-0"; "2"; "10"; "x"; "y";
    "9007199254740993" ]

let store () =
  let st = Xmldb.Doc_store.create () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"n.xml"
       ("<r>"
        ^ String.concat "" (List.map (fun t -> "<e v=\"" ^ t ^ "\"/>") texts)
        ^ "</r>"));
  st

(* The [v] attribute holding [t]: pre 0 is the document, 1 is <r>, and
   every <e> is followed by its attribute. *)
let text_attr =
  let frag =
    Xmldb.Node_id.frag
      (Option.get (Xmldb.Doc_store.find_document (store ()) "n.xml"))
  in
  fun t ->
    let rec index i = function
      | [] -> invalid_arg ("Theta_cases: no text " ^ t)
      | x :: rest -> if x = t then i else index (i + 1) rest
    in
    Value.Node (Xmldb.Node_id.make ~frag ~pre:(3 + (2 * index 0 texts)))

(* One side's key column, by the representation the physical executor
   reads it in. *)
type side =
  | Ints of int list
  | Dbls of float list
  | Strs of string list  (** store text: string() of n.xml's attributes *)
  | Const of Value.t * int
  | Mixed of Value.t list
  | Bools of bool list

(* A side with key column [key] and a payload column [pay] numbering its
   rows from [base], so the pair order shows in the output. *)
let side b ~key ~pay ~base s =
  let lit vs =
    Plan.lit b [| key; pay |]
      (List.mapi (fun i v -> [| v; Value.Int (base + i) |]) vs)
  in
  match s with
  | Ints l -> lit (List.map (fun i -> Value.Int i) l)
  | Dbls l -> lit (List.map (fun f -> Value.Dbl f) l)
  | Mixed l -> lit l
  | Bools l -> lit (List.map (fun x -> Value.Bool x) l)
  | Strs l ->
    let nodes =
      Plan.lit b [| key ^ "_node"; pay |]
        (List.mapi (fun i t -> [| text_attr t; Value.Int (base + i) |]) l)
    in
    Plan.fun1 b nodes key Plan.P_string (key ^ "_node")
  | Const (v, n) ->
    Plan.attach b
      (Plan.lit b [| pay |] (List.init n (fun i -> [| Value.Int (base + i) |])))
      key v

let ops =
  [ ("<", Plan.P_lt); ("<=", Plan.P_le); (">", Plan.P_gt); (">=", Plan.P_ge) ]

let big = 1 lsl 53

(* Key shapes with typed keys: every case sorts. *)
let typed_shapes =
  [ ("ints x ints, duplicates and ties",
     Ints [ 3; 1; 3; -2; 0; 7 ], Ints [ 0; 3; 1; 5; 3; -2 ]);
    ("ints x dbls, NaN, zeros, infinities",
     Ints [ 3; 1; 0; -2; 3 ],
     Dbls [ 2.5; Float.nan; 3.0; -0.0; infinity; neg_infinity; 0.0 ]);
    ("strs x dbls",
     Strs [ "3"; "1.5"; "NaN"; "-0"; "INF"; "3"; "-INF" ],
     Dbls [ 0.0; 3.0; Float.nan; 1.5; -0.0; neg_infinity ]);
    ("strs x ints",
     Strs [ "3"; "-2"; "0"; "3"; "1.5"; "2" ], Ints [ 2; 3; 0; -2; 3 ]);
    ("const int x strs",
     Const (Value.Int 2, 5), Strs [ "3"; "1.5"; "2"; "-2"; "NaN"; "2" ]);
    ("const text x ints",
     Const (Value.Str "1.5", 4), Ints [ 2; 1; 0; 1; 3 ]);
    ("mixed int/double",
     Mixed
       [ Value.Int 3; Value.Dbl 1.5; Value.Int 0; Value.Dbl Float.nan;
         Value.Int 3; Value.Dbl (-0.0) ],
     Mixed
       [ Value.Dbl 0.0; Value.Int 3; Value.Dbl 2.0; Value.Int (-1);
         Value.Dbl 3.0 ]);
    (* ints beyond 2^53 compare as doubles against doubles and text *)
    ("ints beyond 2^53 x dbls",
     Ints [ big + 1; big; 1; big + 2 ],
     Dbls [ 9007199254740992.0; 1.0; 9007199254740994.0; Float.nan ]);
    ("ints beyond 2^53 x strs",
     Ints [ big + 1; big; 2; big + 2 ],
     Strs [ "9007199254740993"; "2"; "INF"; "NaN" ]);
    (* a one-row side, such as a constant's, and a side with no
       comparable key *)
    ("one row x one row", Const (Value.Int 2, 1), Ints [ 2 ]);
    ("one row x 8", Const (Value.Dbl 2.5, 1), Ints [ 5; 1; 8; 3; 3; 0; 7; 2 ]);
    ("NaN only", Dbls [ Float.nan; Float.nan ], Ints [ 1; 2 ]) ]

(* Key shapes whose per-pair rule the typed keys cannot reproduce: the
   nested loop runs them. *)
let boxed_shapes =
  [ ("strs x strs (string comparison)",
     Strs [ "3"; "x"; "1.5"; "y" ], Strs [ "2"; "x"; "NaN"; "10" ]);
    ("text on both sides",
     Mixed [ Value.Str "3"; Value.Int 2; Value.Dbl 0.5; Value.Int 7 ],
     Mixed [ Value.Str "1"; Value.Dbl 0.5; Value.Int 2; Value.Str "10" ]);
    ("bools", Bools [ true; false; true; false ], Bools [ false; true; true; false ]);
    ("bool x int (raises)", Bools [ true; false; true; false ], Ints [ 1; 0; 2; 3 ]);
    (* ints beyond 2^53 compare exactly against ints *)
    ("ints beyond 2^53",
     Ints [ big + 1; 1; big; big + 1 ], Ints [ big; 0; big + 1; big ]);
    ("ints beyond 2^53 next to doubles",
     Mixed [ Value.Int (big + 1); Value.Dbl 0.5; Value.Int 1; Value.Int big ],
     Ints [ big; 1; big + 1; 0 ]) ]

(* Uncast text on the left at row 0, on the right, at a later left row,
   and in a constant. The nested loop casts left row 0, every right row,
   then the rest of the left, so "x" is the error wherever "y" comes
   later. *)
let error_shapes =
  [ ("uncast text at left row 0",
     Strs [ "x"; "3"; "y"; "2" ], Ints [ 1; 2; 3; 4 ]);
    ("uncast text on the right",
     Ints [ 1; 2; 3; 4 ], Strs [ "3"; "x"; "2"; "y" ]);
    ("uncast text at a later left row",
     Strs [ "3"; "x"; "y"; "2" ], Dbls [ 1.0; 2.0; Float.nan; 0.5 ]);
    ("uncast text beside uncast numbers",
     Mixed [ Value.Int 3; Value.Str "x"; Value.Dbl 1.5; Value.Str "y" ],
     Dbls [ 1.0; 2.0 ]);
    ("uncast constant", Const (Value.Str "x", 4), Ints [ 1; 2; 3; 4 ]) ]

(* An empty side compares nothing and casts nothing, so it takes
   neither path. *)
let empty_shapes =
  [ ("uncast text x empty", Strs [ "x"; "y"; "3"; "2" ], Ints []);
    ("empty x uncast text", Dbls [], Strs [ "x"; "y" ]);
    ("bools x empty", Bools [ true; false; true; false ], Dbls []) ]

(* Every case: its name, the path the physical kernel must take ("none"
   for an empty side, [None] when it raises before taking one), and its
   plan. Each shape runs under every operator, with the sides as given
   and swapped. *)
let cases () =
  let b = Plan.builder () in
  let join l r (_, cmp) =
    Plan.thetajoin b
      (side b ~key:"a" ~pay:"x" ~base:0 l)
      (side b ~key:"b" ~pay:"y" ~base:100 r)
      "a" cmp "b"
  in
  let both path shapes =
    List.concat_map
      (fun (name, l, r) ->
         List.concat_map
           (fun op ->
              [ (Printf.sprintf "%s %s" name (fst op), path, join l r op);
                (Printf.sprintf "%s %s, swapped" name (fst op), path,
                 join r l op) ])
           ops)
      shapes
  in
  both (Some "sorted") typed_shapes
  @ both (Some "boxed") boxed_shapes
  @ both None error_shapes
  @ both (Some "none") empty_shapes

(* A run's rows in order, or its error. *)
let outcome run =
  match run () with
  | t ->
    String.concat "\n"
      (List.init (Table.nrows t) (fun r ->
           String.concat "|"
             (Array.to_list
                (Array.map (Format.asprintf "%a" Value.pp) (Table.row t r)))))
  | exception Basis.Err.Dynamic_error m -> "dynamic: " ^ m

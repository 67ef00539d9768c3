(* The restricted relational algebra dialect that Pathfinder emits
   (paper, Table 1), represented as a DAG of hash-consed operator nodes.

   Conventions (matching the paper):
     - projection [Project] does NOT remove duplicate rows, and doubles as
       column renaming: cols is a list of (new_name, src_name);
     - [Rownum] is the ROW_NUMBER() OVER (PARTITION BY part ORDER BY order)
       primitive "%" — it requires a sort of its input;
     - [Rowid] is "#": it attaches arbitrary (but unique, dense) numbers at
       negligible cost — the free ROWID column of the back-end;
     - [Attach] plays the role of the "× (pos|1)" cross product with a
       literal singleton table: it attaches a constant column;
     - [Step] is the XPath step operator "⊘ ax::nt": it consumes an
       iter|item table of context nodes and yields a per-iteration
       duplicate-free iter|item table of result nodes;
     - construction operators ([Elem], [Attr], [Textnode], ...) allocate
       new nodes in the document store, one fragment per evaluation.

   Nodes are hash-consed by a [builder] so that equal sub-plans are shared;
   the operator counts reported in the paper (e.g. 19 operators for Q6's
   DAG in Figure 6(a)) count shared nodes once. *)

type col = string

type dir = Asc | Desc

(* The dynamic-type vocabulary for cast / castable / instance of. *)
type atomic_ty =
  | Ty_integer
  | Ty_double     (* also standing in for xs:decimal / xs:float *)
  | Ty_string
  | Ty_boolean
  | Ty_untyped    (* xs:untypedAtomic: carried as a string *)
  | Ty_any_atomic

type item_ty =
  | Ty_item
  | Ty_node
  | Ty_element of Xmldb.Qname.t option
  | Ty_attribute of Xmldb.Qname.t option
  | Ty_text
  | Ty_comment
  | Ty_pi
  | Ty_document
  | Ty_atomic of atomic_ty

type prim1 =
  | P_not
  | P_neg
  | P_atomize        (* nodes -> their string value; atomics pass through *)
  | P_string         (* fn:string *)
  | P_number         (* fn:number: -> xs:double, NaN on failure *)
  | P_position       (* an xs:integer position argument *)
  | P_cast_dbl
  | P_cast_str
  | P_cast_bool
  | P_string_length
  | P_name           (* node -> qname string ("" for unnamed) *)
  | P_local_name
  | P_round
  | P_floor
  | P_ceiling
  | P_abs
  | P_is_node
  | P_normalize_space
  | P_check_zero_one    (* raises when the (count) argument exceeds 1 *)
  | P_check_exactly_one (* raises unless the (count) argument equals 1 *)
  | P_check_one_or_more (* raises when the (count) argument is 0 *)
  | P_upper             (* fn:upper-case (ASCII) *)
  | P_lower             (* fn:lower-case (ASCII) *)
  | P_serialize         (* nodes -> their XML serialization; atomics -> string *)
  | P_cast_as of atomic_ty   (* "cast as": atomizes, then casts; raises *)
  | P_castable of atomic_ty  (* "castable as" on one item: never raises *)
  | P_instance_item of item_ty (* per-item dynamic type test *)
  | P_check_treat       (* raises "treat as" failure unless the bool is true *)
  | P_node_check        (* identity on nodes; dynamic error on atomics (path-step results) *)
  | P_check_node        (* identity on nodes; "expected a node" on atomics (|, intersect, except operands) *)
  | P_check_singleton   (* raises unless the (count) argument equals 1 (computed constructor names) *)
  | P_error             (* fn:error: raises with the argument as message *)

type prim2 =
  | P_add | P_sub | P_mul | P_div | P_idiv | P_mod
  | P_eq | P_ne | P_lt | P_le | P_gt | P_ge
  | P_and | P_or
  | P_is | P_before | P_after        (* node identity / document order *)
  | P_concat | P_contains | P_starts_with | P_ends_with
  | P_substr_before | P_substr_after

(* Row-wise ternary primitives. *)
type prim3 =
  | P3_substring   (* fn:substring(str, start, len) — 1-based, rounded *)
  | P3_translate   (* fn:translate(str, map, trans) *)

type agg =
  | A_the            (* the group's single value; dynamic error on more *)
  | A_count
  | A_sum
  | A_max
  | A_min
  | A_avg
  | A_ebv            (* effective boolean value of the group's sequence *)
  | A_str_join of string  (* fn:string-join with separator; needs order *)

(* Node tests are kept by QName (not name-pool id): names may only be
   interned at runtime by element construction. *)
type ntest =
  | N_name of Xmldb.Qname.t
  | N_wild
  | N_kind of Xmldb.Node_kind.t
  | N_any
  | N_pi of string

type node = {
  id : int;
  op : op;
  mutable label : string;  (* profiling category, set by the compiler *)
}

and op =
  | Lit of { schema : col array; rows : Value.t array list }
  | Project of { input : node; cols : (col * col) list }
  | Select of { input : node; col : col }
  | Join of { left : node; right : node; lcol : col; rcol : col }
  | Thetajoin of { left : node; right : node; lcol : col; cmp : prim2; rcol : col }
  | Semijoin of { left : node; right : node; on : (col * col) list }
  | Antijoin of { left : node; right : node; on : (col * col) list }
  | Cross of { left : node; right : node }
  | Union of { left : node; right : node }      (* disjoint union (append) *)
  | Distinct of { input : node }                (* full-row duplicate removal *)
  | Rownum of { input : node; res : col; order : (col * dir) list; part : col option }
  | Rowid of { input : node; res : col }
  | Attach of { input : node; res : col; value : Value.t }
  | Fun1 of { input : node; res : col; f : prim1; arg : col }
  | Fun2 of { input : node; res : col; f : prim2; arg1 : col; arg2 : col }
  | Fun3 of { input : node; res : col; f : prim3; arg1 : col; arg2 : col; arg3 : col }
  | Aggr of { input : node; res : col; agg : agg; arg : col option;
              part : col option; order : col option }
  | Step of { input : node; axis : Xmldb.Axis.t; test : ntest }
  | Doc of { input : node }                     (* iter|item:uri -> iter|item:node *)
  | Elem of { qnames : node; content : node }   (* iter|item:qname, iter|pos|item *)
  | Attr of { qnames : node; values : node }    (* iter|item:qname, iter|item:str *)
  | Textnode of { input : node }                (* iter|item:str *)
  | Commentnode of { input : node }
  | Pinode of { input : node }                  (* iter|target|value *)
  | Range of { input : node; lo : col; hi : col } (* -> iter|pos|item *)
  | Textify of { input : node }
  | Id_lookup of { values : node; context : node }
    (* fn:id: values iter|item (idref strings), context iter|item (one
       node per iteration); yields iter|item element nodes, duplicate-free
       per iteration *)
    (* fs:item-sequence-to-node-sequence over iter|pos|item: per iteration
       (in pos order) runs of atomic items become single text nodes
       (space-separated); nodes pass through. *)

let children = function
  | Lit _ -> []
  | Project { input; _ } | Select { input; _ } | Distinct { input }
  | Rownum { input; _ } | Rowid { input; _ } | Attach { input; _ }
  | Fun1 { input; _ } | Fun2 { input; _ } | Fun3 { input; _ }
  | Aggr { input; _ }
  | Step { input; _ } | Doc { input } | Textnode { input }
  | Commentnode { input } | Pinode { input } | Range { input; _ }
  | Textify { input } -> [ input ]
  | Id_lookup { values; context } -> [ values; context ]
  | Join { left; right; _ } | Thetajoin { left; right; _ }
  | Semijoin { left; right; _ } | Antijoin { left; right; _ }
  | Cross { left; right } | Union { left; right } -> [ left; right ]
  | Elem { qnames; content } -> [ qnames; content ]
  | Attr { qnames; values } -> [ qnames; values ]

let map_children f op =
  match op with
  | Lit _ -> op
  | Project r -> Project { r with input = f r.input }
  | Select r -> Select { r with input = f r.input }
  | Distinct { input } -> Distinct { input = f input }
  | Rownum r -> Rownum { r with input = f r.input }
  | Rowid r -> Rowid { r with input = f r.input }
  | Attach r -> Attach { r with input = f r.input }
  | Fun1 r -> Fun1 { r with input = f r.input }
  | Fun2 r -> Fun2 { r with input = f r.input }
  | Fun3 r -> Fun3 { r with input = f r.input }
  | Aggr r -> Aggr { r with input = f r.input }
  | Step r -> Step { r with input = f r.input }
  | Doc { input } -> Doc { input = f input }
  | Textnode { input } -> Textnode { input = f input }
  | Commentnode { input } -> Commentnode { input = f input }
  | Pinode { input } -> Pinode { input = f input }
  | Range r -> Range { r with input = f r.input }
  | Textify { input } -> Textify { input = f input }
  | Id_lookup { values; context } ->
    Id_lookup { values = f values; context = f context }
  | Join r -> Join { r with left = f r.left; right = f r.right }
  | Thetajoin r -> Thetajoin { r with left = f r.left; right = f r.right }
  | Semijoin r -> Semijoin { r with left = f r.left; right = f r.right }
  | Antijoin r -> Antijoin { r with left = f r.left; right = f r.right }
  | Cross { left; right } -> Cross { left = f left; right = f right }
  | Union { left; right } -> Union { left = f left; right = f right }
  | Elem { qnames; content } -> Elem { qnames = f qnames; content = f content }
  | Attr { qnames; values } -> Attr { qnames = f qnames; values = f values }

(* -- hash-consing builder -------------------------------------------------- *)

(* Keys replace child nodes by placeholder nodes carrying only the id, so
   polymorphic hashing/equality give structural sharing. *)
let placeholder id = { id; op = Lit { schema = [||]; rows = [] }; label = "" }

let keyify op = map_children (fun n -> placeholder n.id) op

type builder = {
  mutable next_id : int;
  consed : (op, node) Hashtbl.t;
}

let builder () = { next_id = 0; consed = Hashtbl.create 256 }

let mk b op =
  let key = keyify op in
  match Hashtbl.find_opt b.consed key with
  | Some n -> n
  | None ->
    let n = { id = b.next_id; op; label = "" } in
    b.next_id <- b.next_id + 1;
    Hashtbl.add b.consed key n;
    n

let set_label n label = n.label <- label

(* -- convenience constructors (paper notation in comments) ---------------- *)

let lit b schema rows = mk b (Lit { schema; rows })

(* the literal unit loop: a single iteration *)
let lit_loop b = lit b [| "iter" |] [ [| Value.Int 1 |] ]

let project b input cols = mk b (Project { input; cols })             (* π *)
let select b input col = mk b (Select { input; col })                 (* σ *)
let join b left right lcol rcol = mk b (Join { left; right; lcol; rcol })  (* ⋈ *)
let thetajoin b left right lcol cmp rcol =
  mk b (Thetajoin { left; right; lcol; cmp; rcol })
let semijoin b left right on = mk b (Semijoin { left; right; on })
let antijoin b left right on = mk b (Antijoin { left; right; on })
let cross b left right = mk b (Cross { left; right })                 (* × *)
let union b left right = mk b (Union { left; right })                 (* ∪. *)
let distinct b input = mk b (Distinct { input })                      (* δ *)
let rownum b input res order part = mk b (Rownum { input; res; order; part })  (* % *)
let rowid b input res = mk b (Rowid { input; res })                   (* # *)
let attach b input res value = mk b (Attach { input; res; value })    (* @ *)
let fun1 b input res f arg = mk b (Fun1 { input; res; f; arg })
let fun2 b input res f arg1 arg2 = mk b (Fun2 { input; res; f; arg1; arg2 })
let fun3 b input res f arg1 arg2 arg3 =
  mk b (Fun3 { input; res; f; arg1; arg2; arg3 })
let aggr b input res agg arg part order = mk b (Aggr { input; res; agg; arg; part; order })
let step b input axis test = mk b (Step { input; axis; test })        (* ⊘ *)
let doc b input = mk b (Doc { input })
let elem b qnames content = mk b (Elem { qnames; content })
let attr b qnames values = mk b (Attr { qnames; values })
let textnode b input = mk b (Textnode { input })
let commentnode b input = mk b (Commentnode { input })
let pinode b input = mk b (Pinode { input })
let range b input lo hi = mk b (Range { input; lo; hi })
let textify b input = mk b (Textify { input })
let id_lookup b values context = mk b (Id_lookup { values; context })

(* -- traversal helpers ----------------------------------------------------- *)

(* All distinct nodes reachable from [root], children before parents. *)
let topo_order root =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go n =
    if not (Hashtbl.mem seen n.id) then begin
      Hashtbl.add seen n.id ();
      List.iter go (children n.op);
      acc := n :: !acc
    end
  in
  go root;
  List.rev !acc

let count_ops root = List.length (topo_order root)

(* Size of the fully expanded operator tree: what a tree-walking executor
   would evaluate. Computed bottom-up over distinct nodes (sharing makes
   the naive recursion exponential); saturates at max_int. *)
let count_tree_nodes root =
  let memo = Hashtbl.create 64 in
  let rec go n =
    match Hashtbl.find_opt memo n.id with
    | Some s -> s
    | None ->
      let s =
        List.fold_left
          (fun acc c ->
             let sc = go c in
             if acc >= max_int - sc then max_int else acc + sc)
          1 (children n.op)
      in
      Hashtbl.add memo n.id s;
      s
  in
  go root

(* tree nodes / DAG nodes: 1.0 means no sharing; Pathfinder-style
   loop-lifted plans typically land well above it. *)
let sharing_factor root =
  float_of_int (count_tree_nodes root) /. float_of_int (count_ops root)

let op_symbol = function
  | Lit _ -> "table"
  | Project _ -> "π"
  | Select _ -> "σ"
  | Join _ -> "⋈"
  | Thetajoin _ -> "⋈θ"
  | Semijoin _ -> "⋉"
  | Antijoin _ -> "▷"
  | Cross _ -> "×"
  | Union _ -> "∪"
  | Distinct _ -> "δ"
  | Rownum _ -> "%"
  | Rowid _ -> "#"
  | Attach _ -> "@"
  | Fun1 _ -> "fun1"
  | Fun2 _ -> "fun2"
  | Fun3 _ -> "fun3"
  | Aggr { agg; _ } ->
    (match agg with
     | A_the -> "the"
     | A_count -> "count" | A_sum -> "sum" | A_max -> "max" | A_min -> "min"
     | A_avg -> "avg" | A_ebv -> "ebv" | A_str_join _ -> "str-join")
  | Step _ -> "⊘"
  | Doc _ -> "doc"
  | Elem _ -> "elem"
  | Attr _ -> "attr"
  | Textnode _ -> "text"
  | Commentnode _ -> "comment"
  | Pinode _ -> "pi"
  | Range _ -> "range"
  | Textify _ -> "textify"
  | Id_lookup _ -> "id"

let count_kind root sym =
  List.fold_left
    (fun acc n -> if String.equal (op_symbol n.op) sym then acc + 1 else acc)
    0 (topo_order root)

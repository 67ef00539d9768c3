(* The reference interpreter: a direct, tree-walking evaluator of XQuery
   Core with strict ordered semantics (fn:unordered is the identity, as in
   the open-source processors the paper surveys in Section 6). It plays
   two roles in this reproduction:
     - the semantics oracle for differential testing of the compiler, and
     - the "order-oblivious baseline" engine for benchmark comparisons. *)

open Basis
open Xquery.Core_ast
module Value = Algebra.Value

type env = {
  store : Xmldb.Doc_store.t;
  vars : (string * Xdm.seq) list;
  guard : Budget.t option;  (* resource governor, checked per core node *)
}

let lookup env v =
  match List.assoc_opt v env.vars with
  | Some s -> s
  | None -> Err.internal "unbound variable $%s" v

let bind env v s = { env with vars = (v, s) :: env.vars }

(* -- node test conversion -------------------------------------------------- *)

let node_test_of_ast store (t : Xquery.Ast.node_test) : Xmldb.Node_test.t =
  match t with
  | Xquery.Ast.Nt_name q -> Xmldb.Node_test.Name (Xmldb.Doc_store.name_test_id store q)
  | Xquery.Ast.Nt_wild -> Xmldb.Node_test.Name_wild
  | Xquery.Ast.Nt_prefix_wild _ ->
    Err.static "prefix:* node tests are not supported"
  | Xquery.Ast.Nt_kind_node -> Xmldb.Node_test.Any_node
  | Xquery.Ast.Nt_kind_text -> Xmldb.Node_test.Kind Xmldb.Node_kind.Text
  | Xquery.Ast.Nt_kind_comment -> Xmldb.Node_test.Kind Xmldb.Node_kind.Comment
  | Xquery.Ast.Nt_kind_document -> Xmldb.Node_test.Kind Xmldb.Node_kind.Document
  | Xquery.Ast.Nt_kind_element None -> Xmldb.Node_test.Kind Xmldb.Node_kind.Element
  | Xquery.Ast.Nt_kind_element (Some q) ->
    Xmldb.Node_test.Name (Xmldb.Doc_store.name_test_id store q)
  | Xquery.Ast.Nt_kind_attribute None ->
    Xmldb.Node_test.Kind Xmldb.Node_kind.Attribute
  | Xquery.Ast.Nt_kind_attribute (Some q) ->
    Xmldb.Node_test.Name (Xmldb.Doc_store.name_test_id store q)
  | Xquery.Ast.Nt_kind_pi None ->
    Xmldb.Node_test.Kind Xmldb.Node_kind.Processing_instruction
  | Xquery.Ast.Nt_kind_pi (Some t') -> Xmldb.Node_test.Pi_target t'

(* An attribute name test via the abbreviated/attribute axis must match
   attribute nodes: Staircase handles the principal node kind. *)

(* -- construction helpers --------------------------------------------------- *)

(* Content items -> children of the open node in [b]; adjacent atomics are
   space-joined (same rule as the algebra's Elem operator). *)
let add_content () b items =
  let prev_atomic = ref false in
  List.iter
    (fun it ->
       match it with
       | Value.Node n ->
         Xmldb.Doc_store.Builder.copy b n;
         prev_atomic := false
       | atom ->
         let s = Value.to_string atom in
         if !prev_atomic then Xmldb.Doc_store.Builder.text b (" " ^ s)
         else Xmldb.Doc_store.Builder.text b s;
         prev_atomic := true)
    items

let construct_element store name content =
  let b = Xmldb.Doc_store.Builder.create store in
  Xmldb.Doc_store.Builder.start_element b name;
  add_content () b content;
  Xmldb.Doc_store.Builder.end_element b;
  let _, roots = Xmldb.Doc_store.Builder.finish b in
  Value.Node roots.(0)

(* fs:textify — item-sequence-to-node-sequence: atomic runs become single
   text nodes (space separated); nodes pass through unchanged. *)
let textify store (s : Xdm.seq) : Xdm.seq =
  let out = ref [] in
  let flush_run run =
    match List.rev run with
    | [] -> ()
    | items ->
      let text = String.concat " " (List.map Value.to_string items) in
      let b = Xmldb.Doc_store.Builder.create store in
      Xmldb.Doc_store.Builder.force_text b text;
      let _, roots = Xmldb.Doc_store.Builder.finish b in
      out := Value.Node roots.(0) :: !out
  in
  let run = ref [] in
  List.iter
    (fun it ->
       match it with
       | Value.Node _ ->
         flush_run !run;
         run := [];
         out := it :: !out
       | atom -> run := atom :: !run)
    s;
  flush_run !run;
  List.rev !out

(* -- comparisons ------------------------------------------------------------ *)

let gen_cmp_fun (op : Xquery.Ast.general_cmp) =
  match op with
  | Xquery.Ast.Geq -> Value.cmp_eq
  | Xquery.Ast.Gne -> Value.cmp_ne
  | Xquery.Ast.Glt -> Value.cmp_lt
  | Xquery.Ast.Gle -> Value.cmp_le
  | Xquery.Ast.Ggt -> Value.cmp_gt
  | Xquery.Ast.Gge -> Value.cmp_ge

let val_cmp_fun (op : Xquery.Ast.value_cmp) =
  match op with
  | Xquery.Ast.Veq -> Value.cmp_eq
  | Xquery.Ast.Vne -> Value.cmp_ne
  | Xquery.Ast.Vlt -> Value.cmp_lt
  | Xquery.Ast.Vle -> Value.cmp_le
  | Xquery.Ast.Vgt -> Value.cmp_gt
  | Xquery.Ast.Vge -> Value.cmp_ge

let arith_fun (op : Xquery.Ast.arith) =
  match op with
  | Xquery.Ast.Add -> Value.add
  | Xquery.Ast.Sub -> Value.sub
  | Xquery.Ast.Mul -> Value.mul
  | Xquery.Ast.Div -> Value.div
  | Xquery.Ast.Idiv -> Value.idiv
  | Xquery.Ast.Mod -> Value.modulo

(* Ast type names (canonicalized by Normalize) to the algebra's dynamic
   type vocabulary (mirrors Exrquy.Compile; interp and compiler must not
   depend on each other). *)
let atomic_ty = function
  | "integer" -> Algebra.Plan.Ty_integer
  | "double" -> Algebra.Plan.Ty_double
  | "string" -> Algebra.Plan.Ty_string
  | "boolean" -> Algebra.Plan.Ty_boolean
  | "untypedAtomic" -> Algebra.Plan.Ty_untyped
  | "anyAtomicType" -> Algebra.Plan.Ty_any_atomic
  | other -> Err.internal "unexpected atomic type %s" other

let item_ty (t : Xquery.Ast.item_type) : Algebra.Plan.item_ty =
  match t with
  | Xquery.Ast.It_item -> Algebra.Plan.Ty_item
  | Xquery.Ast.It_node -> Algebra.Plan.Ty_node
  | Xquery.Ast.It_element q -> Algebra.Plan.Ty_element q
  | Xquery.Ast.It_attribute q -> Algebra.Plan.Ty_attribute q
  | Xquery.Ast.It_text -> Algebra.Plan.Ty_text
  | Xquery.Ast.It_comment -> Algebra.Plan.Ty_comment
  | Xquery.Ast.It_pi -> Algebra.Plan.Ty_pi
  | Xquery.Ast.It_document -> Algebra.Plan.Ty_document
  | Xquery.Ast.It_atomic n -> Algebra.Plan.Ty_atomic (atomic_ty n)

(* "s instance of ty": cardinality plus per-item dynamic type tests. *)
let seq_instance store (ty : Xquery.Ast.seq_type) (s : Xdm.seq) =
  match ty with
  | Xquery.Ast.St_empty -> s = []
  | Xquery.Ast.St (ity, occ) ->
    let n = List.length s in
    let card_ok =
      match occ with
      | Xquery.Ast.Occ_one -> n = 1
      | Xquery.Ast.Occ_opt -> n <= 1
      | Xquery.Ast.Occ_plus -> n >= 1
      | Xquery.Ast.Occ_star -> true
    in
    card_ok
    && List.for_all
         (fun v ->
            match Algebra.Eval.apply1 store (Algebra.Plan.P_instance_item (item_ty ity)) v with
            | Value.Bool b -> b
            | _ -> false)
         s

(* -- the evaluator ----------------------------------------------------------- *)

(* Every core-expression node is an operator boundary: check the guard on
   the way in, charge the materialized sequence on the way out. *)
let rec eval env (e : core) : Xdm.seq =
  match env.guard with
  | None -> eval_expr env e
  | Some g ->
    Budget.check g;
    let s = eval_expr env e in
    Budget.add_rows g (List.length s);
    if Budget.wants_bytes g then
      Budget.add_bytes g
        (List.fold_left (fun acc v -> acc + Value.estimated_bytes v) 0 s);
    s

and eval_expr env (e : core) : Xdm.seq =
  match e with
  | C_int n -> [ Value.Int n ]
  | C_dbl f -> [ Value.Dbl f ]
  | C_str s -> [ Value.Str s ]
  | C_qname q -> [ Value.Qname_v q ]
  | C_empty -> []
  | C_var v -> lookup env v
  | C_seq es -> List.concat_map (eval env) es
  | C_flwor f -> eval_flwor env f
  | C_quant { q; var; domain; body } ->
    let dom = eval env domain in
    let test item = Xdm.ebv (eval (bind env var [ item ]) body) in
    [ Value.Bool
        (match q with
         | Xquery.Ast.Some_q -> List.exists test dom
         | Xquery.Ast.Every_q -> List.for_all test dom) ]
  | C_if (c, t, e2) ->
    if Xdm.ebv (eval env c) then eval env t else eval env e2
  | C_step { input; axis; test; mode = _ } ->
    let ctxs = List.map Xdm.node_of (eval env input) in
    let result =
      Xmldb.Staircase.step env.store axis
        (node_test_of_ast env.store test)
        (Array.of_list ctxs)
    in
    Array.to_list (Array.map (fun n -> Value.Node n) result)
  | C_ddo { input; mode = _ } -> Xdm.path_result (eval env input)
  | C_unordered e' -> eval env e' (* the identity: strict ordered baseline *)
  | C_gencmp (op, a, b) ->
    let sa = Xdm.atomize_seq env.store (eval env a) in
    let sb = Xdm.atomize_seq env.store (eval env b) in
    let f = gen_cmp_fun op in
    [ Value.Bool (List.exists (fun x -> List.exists (fun y -> f x y) sb) sa) ]
  | C_valcmp (op, a, b) ->
    let sa = Xdm.atomize_seq env.store (eval env a) in
    let sb = Xdm.atomize_seq env.store (eval env b) in
    (match (Xdm.opt_singleton sa, Xdm.opt_singleton sb) with
     | Some x, Some y -> [ Value.Bool (val_cmp_fun op x y) ]
     | _ -> [])
  | C_nodecmp (op, a, b) ->
    let sa = eval env a and sb = eval env b in
    (match (Xdm.opt_singleton sa, Xdm.opt_singleton sb) with
     | Some x, Some y ->
       let nx = Xdm.node_of x and ny = Xdm.node_of y in
       [ Value.Bool
           (match op with
            | Xquery.Ast.Is -> Xmldb.Node_id.equal nx ny
            | Xquery.Ast.Precedes -> Xmldb.Node_id.compare nx ny < 0
            | Xquery.Ast.Follows -> Xmldb.Node_id.compare nx ny > 0) ]
     | _ -> [])
  | C_arith (op, a, b) ->
    let sa = Xdm.atomize_seq env.store (eval env a) in
    let sb = Xdm.atomize_seq env.store (eval env b) in
    (match (Xdm.opt_singleton sa, Xdm.opt_singleton sb) with
     | Some x, Some y -> [ arith_fun op x y ]
     | _ -> [])
  | C_neg a ->
    (match Xdm.opt_singleton (Xdm.atomize_seq env.store (eval env a)) with
     | Some x -> [ Value.neg x ]
     | None -> [])
  | C_and (a, b) ->
    [ Value.Bool (Xdm.ebv (eval env a) && Xdm.ebv (eval env b)) ]
  | C_or (a, b) ->
    [ Value.Bool (Xdm.ebv (eval env a) || Xdm.ebv (eval env b)) ]
  | C_union (a, b, _) ->
    Xdm.distinct_doc_order (eval env a @ eval env b)
  | C_intersect (a, b, _) ->
    let sb = List.map Xdm.node_of (eval env b) in
    Xdm.distinct_doc_order
      (List.filter
         (fun v -> List.exists (Xmldb.Node_id.equal (Xdm.node_of v)) sb)
         (eval env a))
  | C_except (a, b, _) ->
    let sb = List.map Xdm.node_of (eval env b) in
    Xdm.distinct_doc_order
      (List.filter
         (fun v -> not (List.exists (Xmldb.Node_id.equal (Xdm.node_of v)) sb))
         (eval env a))
  | C_range (a, b) ->
    (match (Xdm.opt_singleton (Xdm.atomize_seq env.store (eval env a)),
            Xdm.opt_singleton (Xdm.atomize_seq env.store (eval env b))) with
     | Some x, Some y ->
       let lo = Value.range_bound x and hi = Value.range_bound y in
       if lo > hi then [] else List.init (hi - lo + 1) (fun i -> Value.Int (lo + i))
     | _ -> [])
  | C_call (f, args) -> eval_call env f args
  | C_elem { name; content } ->
    let n = Value.node_name "element" (Xdm.singleton (eval env name)) in
    [ construct_element env.store n (eval env content) ]
  | C_attr { name; value } ->
    let n = Value.node_name "attribute" (Xdm.singleton (eval env name)) in
    let v =
      match eval env value with
      | [] -> ""
      | s -> Xdm.string_of_item env.store (Xdm.singleton s)
    in
    let b = Xmldb.Doc_store.Builder.create env.store in
    Xmldb.Doc_store.Builder.attribute b n v;
    let _, roots = Xmldb.Doc_store.Builder.finish b in
    [ Value.Node roots.(0) ]
  | C_text v ->
    let s =
      match eval env v with
      | [] -> ""
      | s -> Xdm.string_of_item env.store (Xdm.singleton s)
    in
    let b = Xmldb.Doc_store.Builder.create env.store in
    Xmldb.Doc_store.Builder.force_text b s;
    let _, roots = Xmldb.Doc_store.Builder.finish b in
    [ Value.Node roots.(0) ]
  | C_comment v ->
    let s =
      match eval env v with
      | [] -> ""
      | s -> Xdm.string_of_item env.store (Xdm.singleton s)
    in
    let b = Xmldb.Doc_store.Builder.create env.store in
    Xmldb.Doc_store.Builder.comment b s;
    let _, roots = Xmldb.Doc_store.Builder.finish b in
    [ Value.Node roots.(0) ]
  | C_pi { target; value } ->
    let t = Xdm.string_of_item env.store (Xdm.singleton (eval env target)) in
    let v =
      match eval env value with
      | [] -> ""
      | s -> Xdm.string_of_item env.store (Xdm.singleton s)
    in
    let b = Xmldb.Doc_store.Builder.create env.store in
    Xmldb.Doc_store.Builder.pi b t v;
    let _, roots = Xmldb.Doc_store.Builder.finish b in
    [ Value.Node roots.(0) ]
  | C_textify e' -> textify env.store (eval env e')
  | C_instance { input; ty } ->
    [ Value.Bool (seq_instance env.store ty (eval env input)) ]
  | C_treat { input; ty } ->
    let s = eval env input in
    if seq_instance env.store ty s then s
    else Err.dynamic "treat as: the operand does not match the required type"
  | C_cast { input; ty; optional } ->
    (match Xdm.atomize_seq env.store (eval env input) with
     | [] ->
       if optional then []
       else Err.dynamic "cast as xs:%s of an empty sequence" ty
     | [ v ] ->
       [ Algebra.Eval.apply1 env.store (Algebra.Plan.P_cast_as (atomic_ty ty)) v ]
     | s -> Err.dynamic "cast as: %d items" (List.length s))
  | C_castable { input; ty; optional } ->
    (match Xdm.atomize_seq env.store (eval env input) with
     | [] -> [ Value.Bool optional ]
     | [ v ] ->
       [ Algebra.Eval.apply1 env.store (Algebra.Plan.P_castable (atomic_ty ty)) v ]
     | _ -> [ Value.Bool false ])

and eval_flwor env (f : flwor) : Xdm.seq =
  (* the tuple stream is a list of environments *)
  let tuples =
    List.fold_left
      (fun tuples cl ->
         match cl with
         | CFor { var; pos_var; domain; reverse_pos } ->
           List.concat_map
             (fun tenv ->
                let dom = eval tenv domain in
                let n = List.length dom in
                List.mapi
                  (fun i item ->
                     let tenv = bind tenv var [ item ] in
                     match pos_var with
                     | Some p ->
                       let pos = if reverse_pos then n - i else i + 1 in
                       bind tenv p [ Value.Int pos ]
                     | None -> tenv)
                  dom)
             tuples
         | CLet { var; def } ->
           List.map (fun tenv -> bind tenv var (eval tenv def)) tuples
         | CWhere cond ->
           List.filter (fun tenv -> Xdm.ebv (eval tenv cond)) tuples)
      [ env ] f.clauses
  in
  let tuples =
    if f.order_by = [] then tuples
    else begin
      (* decorate with keys; stable sort *)
      let keyed =
        List.map
          (fun tenv ->
             let keys =
               List.map
                 (fun (k, dir, empty) ->
                    let kv =
                      Xdm.opt_singleton (Xdm.atomize_seq env.store (eval tenv k))
                    in
                    (kv, dir, empty))
                 f.order_by
             in
             (keys, tenv))
          tuples
      in
      let cmp_key (a, dir, empty) (b, _, _) =
        let c =
          match (a, b) with
          | None, None -> 0
          | None, Some _ ->
            (match (empty : Xquery.Ast.empty_order) with
             | Xquery.Ast.Empty_least -> -1
             | Xquery.Ast.Empty_greatest -> 1)
          | Some _, None ->
            (match (empty : Xquery.Ast.empty_order) with
             | Xquery.Ast.Empty_least -> 1
             | Xquery.Ast.Empty_greatest -> -1)
          | Some x, Some y -> Value.compare_total x y
        in
        match (dir : Xquery.Ast.sort_dir) with
        | Xquery.Ast.Ascending -> c
        | Xquery.Ast.Descending -> -c
      in
      let rec cmp_keys ks1 ks2 =
        match (ks1, ks2) with
        | [], [] -> 0
        | k1 :: r1, k2 :: r2 ->
          let c = cmp_key k1 k2 in
          if c <> 0 then c else cmp_keys r1 r2
        | _ -> Err.internal "order by key arity mismatch"
      in
      List.map snd
        (List.stable_sort (fun (k1, _) (k2, _) -> cmp_keys k1 k2) keyed)
    end
  in
  List.concat_map (fun tenv -> eval tenv f.return_) tuples

and eval_call env f args : Xdm.seq =
  let store = env.store in
  let one name = eval env (List.nth args name) in
  match (f, args) with
  | "doc", [ a ] -> (
    (* fn:doc(()) is () *)
    match Xdm.opt_singleton (eval env a) with
    | None -> []
    | Some v -> (
      let uri = Xdm.string_of_item store v in
      match Xmldb.Doc_store.find_document store uri with
      | Some n -> [ Value.Node n ]
      | None -> Err.dynamic "fn:doc: document %S not available" uri))
  | "count", [ a ] -> [ Value.Int (List.length (eval env a)) ]
  | "sum", [ a ] ->
    [ Value.sum (List.to_seq (Xdm.atomize_seq store (eval env a))) ]
  | ("max" | "min"), [ a ] ->
    let s = Xdm.atomize_seq store (eval env a) in
    (* fn:min/max cast untyped items to numbers when the whole sequence
       has a numeric reading (matching the algebra's A_min/A_max) *)
    let numeric = List.map Value.numeric_view s in
    let s =
      if s <> [] && List.for_all Option.is_some numeric then
        List.map Option.get numeric
      else s
    in
    (match s with
     | [] -> []
     | first :: rest ->
       let better = if f = "max" then Value.cmp_gt else Value.cmp_lt in
       let best =
         List.fold_left (fun acc v -> if better v acc then v else acc) first rest
       in
       let has_nan =
         List.exists
           (function Value.Dbl x -> Float.is_nan x | _ -> false)
           s
       in
       [ (if has_nan then Value.Dbl Float.nan else best) ])
  | "avg", [ a ] ->
    let s = Xdm.atomize_seq store (eval env a) in
    (match s with
     | [] -> []
     | _ ->
       [ Value.div (Value.sum (List.to_seq s)) (Value.Int (List.length s)) ])
  | "empty", [ a ] -> [ Value.Bool (eval env a = []) ]
  | "exists", [ a ] -> [ Value.Bool (eval env a <> []) ]
  | "not", [ a ] -> [ Value.Bool (not (Xdm.ebv (eval env a))) ]
  | "boolean", [ a ] | "fs:ebv", [ a ] -> [ Value.Bool (Xdm.ebv (eval env a)) ]
  | "distinct-values", [ a ] ->
    let s = Xdm.atomize_seq store (eval env a) in
    let out = ref [] in
    List.iter
      (fun v -> if not (List.exists (Value.equal v) !out) then out := v :: !out)
      s;
    List.rev !out
  | "data", [ a ] -> Xdm.atomize_seq store (eval env a)
  | "string", [ a ] ->
    (match eval env a with
     | [] -> [ Value.Str "" ]
     | s -> [ Value.Str (Xdm.string_of_item store (Xdm.singleton s)) ])
  | "string-length", [ a ] ->
    (match eval env a with
     | [] -> [ Value.Int 0 ]
     | s ->
       [ Value.Int
           (String.length (Xdm.string_of_item store (Xdm.singleton s))) ])
  | "normalize-space", [ a ] ->
    (match eval env a with
     | [] -> [ Value.Str "" ]
     | s ->
       let str = Xdm.string_of_item store (Xdm.singleton s) in
       let words =
         String.split_on_char ' '
           (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) str)
         |> List.filter (fun w -> w <> "")
       in
       [ Value.Str (String.concat " " words) ])
  | "concat", [ a; b ] ->
    let s1 =
      match eval env a with
      | [] -> ""
      | s -> Xdm.string_of_item store (Xdm.singleton s)
    and s2 =
      match eval env b with
      | [] -> ""
      | s -> Xdm.string_of_item store (Xdm.singleton s)
    in
    [ Value.Str (s1 ^ s2) ]
  | "contains", [ a; b ] ->
    let s = ebv_str store (eval env a) and sub = ebv_str store (eval env b) in
    [ Algebra.Eval.apply2 store Algebra.Plan.P_contains (Value.Str s) (Value.Str sub) ]
  | "starts-with", [ a; b ] ->
    let s = ebv_str store (eval env a) and p = ebv_str store (eval env b) in
    [ Algebra.Eval.apply2 store Algebra.Plan.P_starts_with (Value.Str s) (Value.Str p) ]
  | "string-join", [ a; b ] ->
    let sep = Xdm.string_of_item store (Xdm.singleton (eval env b)) in
    let parts = List.map (Xdm.string_of_item store) (eval env a) in
    [ Value.Str (String.concat sep parts) ]
  | "fs:joinws", [ a ] ->
    let parts = List.map (Xdm.string_of_item store) (eval env a) in
    [ Value.Str (String.concat " " parts) ]
  | "number", [ a ] ->
    (match Xdm.opt_singleton (eval env a) with
     | None -> [ Value.Dbl Float.nan ]
     | Some v ->
       (match Value.float_value (Xdm.atomize store v) with
        | x -> [ Value.Dbl x ]
        | exception Err.Dynamic_error _ -> [ Value.Dbl Float.nan ]))
  | "reverse", [ a ] -> List.rev (eval env a)
  | "subsequence", (a :: rest) ->
    let s = eval env a in
    let num e' =
      Value.float_value
        (Xdm.singleton (Xdm.atomize_seq store (eval env e')))
    in
    let start, len =
      match rest with
      | [ st' ] -> (num st', infinity)
      | [ st'; ln ] -> (num st', num ln)
      | _ -> Err.static "fn:subsequence arity"
    in
    let lo = Float.floor (start +. 0.5) in
    let hi = lo +. len in  (* position < hi *)
    List.filteri
      (fun i _ ->
         let p = float_of_int (i + 1) in
         p >= lo && p < hi)
      s
  | ("round" | "floor" | "ceiling" | "abs"), [ a ] ->
    (match Xdm.opt_singleton (Xdm.atomize_seq store (eval env a)) with
     | None -> []
     | Some v ->
       let p1 =
         match f with
         | "round" -> Algebra.Plan.P_round
         | "floor" -> Algebra.Plan.P_floor
         | "ceiling" -> Algebra.Plan.P_ceiling
         | _ -> Algebra.Plan.P_abs
       in
       [ Algebra.Eval.apply1 store p1 v ])
  | ("name" | "local-name"), [ a ] ->
    (match Xdm.opt_singleton (eval env a) with
     | None -> [ Value.Str "" ]
     | Some v ->
       let p1 = if f = "name" then Algebra.Plan.P_name else Algebra.Plan.P_local_name in
       [ Algebra.Eval.apply1 store p1 v ])
  | "true", [] -> [ Value.Bool true ]
  | "false", [] -> [ Value.Bool false ]
  | "zero-or-one", [ a ] ->
    (match eval env a with
     | ([] | [ _ ]) as s -> s
     | s -> Err.dynamic "fn:zero-or-one: %d items" (List.length s))
  | "exactly-one", [ a ] ->
    (match eval env a with
     | [ v ] -> [ v ]
     | s -> Err.dynamic "fn:exactly-one: %d items" (List.length s))
  | "one-or-more", [ a ] ->
    (match eval env a with
     | [] -> Err.dynamic "fn:one-or-more: empty sequence"
     | s -> s)
  | ("upper-case" | "lower-case"), [ a ] ->
    let prim = if f = "upper-case" then Algebra.Plan.P_upper else Algebra.Plan.P_lower in
    (match eval env a with
     | [] -> [ Value.Str "" ]
     | s -> [ Algebra.Eval.apply1 store prim (Xdm.singleton s) ])
  | ("ends-with" | "substring-before" | "substring-after"), [ a; b ] ->
    let prim =
      match f with
      | "ends-with" -> Algebra.Plan.P_ends_with
      | "substring-before" -> Algebra.Plan.P_substr_before
      | _ -> Algebra.Plan.P_substr_after
    in
    let s = ebv_str store (eval env a) and p = ebv_str store (eval env b) in
    [ Algebra.Eval.apply2 store prim (Value.Str s) (Value.Str p) ]
  | "substring", (a :: rest) ->
    let s = ebv_str store (eval env a) in
    let num e' = Xdm.singleton (Xdm.atomize_seq store (eval env e')) in
    let start, len =
      match rest with
      | [ st' ] -> (num st', Value.Dbl infinity)
      | [ st'; ln ] -> (num st', ln |> fun e' -> num e')
      | _ -> Err.static "fn:substring arity"
    in
    [ Algebra.Eval.apply3 store Algebra.Plan.P3_substring (Value.Str s) start len ]
  | "translate", [ a; b; c' ] ->
    let g e' = Value.Str (ebv_str store (eval env e')) in
    [ Algebra.Eval.apply3 store Algebra.Plan.P3_translate (g a) (g b) (g c') ]
  | "remove", [ a; b ] ->
    let s = eval env a in
    let p = Value.position (Xdm.singleton (Xdm.atomize_seq store (eval env b))) in
    List.filteri (fun i _ -> i + 1 <> p) s
  | "insert-before", [ a; b; c' ] ->
    let s = eval env a in
    let p = Value.position (Xdm.singleton (Xdm.atomize_seq store (eval env b))) in
    let ins = eval env c' in
    let p = max 1 (min p (List.length s + 1)) in
    let rec go i = function
      | [] -> ins
      | x :: rest when i = p -> ins @ (x :: rest)
      | x :: rest -> x :: go (i + 1) rest
    in
    go 1 s
  | "fs:serialize-seq", [ a ] ->
    let parts =
      List.map
        (fun it ->
           match Algebra.Eval.apply1 store Algebra.Plan.P_serialize it with
           | Value.Str s -> s
           | _ -> assert false)
        (eval env a)
    in
    [ Value.Str (String.concat "\x1f" parts) ]
  | "id", [ a; b ] ->
    let vals = List.map (Xdm.string_of_item store) (eval env a) in
    (match Xdm.opt_singleton (eval env b) with
     | None -> []
     | Some ctx ->
       let idx = Xmldb.Id_index.create store in
       Array.to_list
         (Array.map
            (fun n -> Value.Node n)
            (Xmldb.Id_index.lookup idx ~ctx:(Xdm.node_of ctx) vals)))
  | "error", args' ->
    let msg =
      match List.rev args' with
      | [] -> "fn:error()"
      | last :: _ ->
        (match eval env last with
         | [] -> "fn:error()"
         | s -> Xdm.string_of_item store (Xdm.singleton s))
    in
    Err.dynamic "fn:error: %s" msg
  | _ ->
    ignore one;
    Err.static "interpreter: unknown function %s/%d" f (List.length args)

and ebv_str store s =
  match s with
  | [] -> ""
  | s -> Xdm.string_of_item store (Xdm.singleton s)

(* -- entry points ------------------------------------------------------------ *)

let eval_core ?guard store core = eval { store; vars = []; guard } core

(* Parse, normalize and evaluate a full query text. *)
let run ?guard store text : Xdm.seq =
  let q = Xquery.Parser.parse_query text in
  let core = Xquery.Normalize.normalize_query q in
  eval_core ?guard store core

let run_to_string ?guard store text = Xdm.serialize store (run ?guard store text)

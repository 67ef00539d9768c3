(* Normalization J.K: surface AST -> XQuery Core (paper, Section 2.2).

   Besides the standard lowering (// expansion is already done by the
   parser; here: path predicates -> FLWOR + positional variables, EBV
   insertion, constructor content conversion, user-function inlining),
   this pass implements the paper's order-indifference rules:

     QUANT       some/every domains are wrapped in fn:unordered()
     (gen.cmp)   both operands of general comparisons are wrapped
     FN:COUNT    the arguments of order-indifferent built-ins (count, sum,
                 avg, max, min, empty, exists, boolean, not,
                 distinct-values, zero-or-one, exactly-one) are wrapped
     UNION       under ordering mode unordered, node-set operations are
                 wrapped (Rule UNION and its intersect/except analogues)
     STEP        is recorded as the [mode] field of C_step/C_ddo — the
                 compiler turns it into LOC# (Figure 7); likewise the
                 [mode] field of C_flwor selects BIND vs BIND#.

   unordered { e } / ordered { e } and "declare ordering" simply switch the
   statically-scoped mode under which sub-expressions normalize. *)

open Ast
open Core_ast
open Basis

type env = {
  mode : ordering_mode;
  boundary_space : boundary_space;
  ctx : string option;        (* variable holding the context item *)
  pos : string option;        (* variable holding fn:position() *)
  last : string option;       (* variable holding fn:last() *)
  funs : (string * fun_decl) list;
  inlining : string list;     (* for recursion detection *)
  gensym : int ref;
}

let initial_env ?(mode = Ordered) ?(boundary_space = Bs_strip) funs =
  { mode; boundary_space; ctx = None; pos = None; last = None;
    funs = List.map (fun f -> (f.fname, f)) funs;
    inlining = []; gensym = ref 0 }

(* Generated names use '#' which cannot appear in surface variable names,
   so they can never capture user variables. *)
let fresh env base =
  incr env.gensym;
  Printf.sprintf "#%s%d" base !(env.gensym)

(* ---------------------------------------------------------------- built-ins *)

(* (name, min arity, max arity, 1-based positions of order-indifferent
   arguments that get an fn:unordered() wrapper) *)
let builtins =
  [ ("doc", 1, 1, []);
    ("count", 1, 1, [ 1 ]);
    ("sum", 1, 1, [ 1 ]);
    ("avg", 1, 1, [ 1 ]);
    ("max", 1, 1, [ 1 ]);
    ("min", 1, 1, [ 1 ]);
    ("empty", 1, 1, [ 1 ]);
    ("exists", 1, 1, [ 1 ]);
    ("not", 1, 1, [ 1 ]);
    ("boolean", 1, 1, [ 1 ]);
    ("distinct-values", 1, 1, [ 1 ]);
    ("zero-or-one", 1, 1, [ 1 ]);
    ("exactly-one", 1, 1, [ 1 ]);
    ("one-or-more", 1, 1, [ 1 ]);
    ("data", 1, 1, []);
    ("string", 1, 1, []);
    ("string-length", 1, 1, []);
    ("normalize-space", 1, 1, []);
    ("concat", 2, max_int, []);
    ("contains", 2, 2, []);
    ("starts-with", 2, 2, []);
    ("string-join", 2, 2, []);
    ("number", 1, 1, []);
    ("reverse", 1, 1, []);
    ("subsequence", 2, 3, []);
    ("round", 1, 1, []);
    ("floor", 1, 1, []);
    ("ceiling", 1, 1, []);
    ("abs", 1, 1, []);
    ("name", 1, 1, []);
    ("local-name", 1, 1, []);
    ("true", 0, 0, []);
    ("false", 0, 0, []);
    ("substring", 2, 3, []);
    ("upper-case", 1, 1, []);
    ("lower-case", 1, 1, []);
    ("ends-with", 2, 2, []);
    ("substring-before", 2, 2, []);
    ("substring-after", 2, 2, []);
    ("translate", 3, 3, []);
    ("remove", 2, 2, []);
    ("insert-before", 3, 3, []);
    ("error", 0, 2, []);
    ("fs:ebv", 1, 1, []);
    ("fs:joinws", 1, 1, []);
    ("fs:serialize-seq", 1, 1, []);
  ]

let strip_fn name =
  if String.length name > 3 && String.sub name 0 3 = "fn:" then
    String.sub name 3 (String.length name - 3)
  else name

(* ------------------------------------------------------- static analysis *)

(* Does [e] call fn:last() relative to the *current* context (i.e. not
   inside a nested predicate, which rebinds last)? *)
let rec uses_last (e : expr) =
  match e with
  | E_call (n, []) when strip_fn n = "last" -> true
  | E_call (_, args) -> List.exists uses_last args
  | E_axis_step (_, _, _preds) -> false (* nested predicate: its own last *)
  | E_filter (b, _preds) -> uses_last b
  | E_slash (a, b) -> uses_last a || uses_last b
  | E_int _ | E_dec _ | E_str _ | E_var _ | E_context_item -> false
  | E_seq es -> List.exists uses_last es
  | E_flwor f ->
    List.exists
      (fun c ->
         match c with
         | For_clause { domain; _ } -> uses_last domain
         | Let_clause { def; _ } -> uses_last def
         | Where_clause w -> uses_last w)
      f.clauses
    || List.exists (fun o -> uses_last o.key) f.order_by
    || uses_last f.return_
  | E_quantified (_, bs, body) ->
    List.exists (fun (_, d) -> uses_last d) bs || uses_last body
  | E_if (a, b, c) -> uses_last a || uses_last b || uses_last c
  | E_or (a, b) | E_and (a, b)
  | E_general_cmp (_, a, b) | E_value_cmp (_, a, b) | E_node_cmp (_, a, b)
  | E_range (a, b) | E_arith (_, a, b)
  | E_union (a, b) | E_intersect (a, b) | E_except (a, b) ->
    uses_last a || uses_last b
  | E_unary_minus a | E_ordered a | E_unordered a
  | E_text_computed a | E_comment_computed a | E_doc_computed a -> uses_last a
  | E_elem_direct (_, attrs, content) ->
    List.exists
      (fun (_, ps) ->
         List.exists (function Ap_expr e' -> uses_last e' | Ap_text _ -> false) ps)
      attrs
    || List.exists
         (function
           | Ast.C_expr e' | Ast.C_elem e' -> uses_last e'
           | Ast.C_text _ -> false)
         content
  | E_elem_computed (n, b) | E_attr_computed (n, b) | E_pi_computed (n, b) ->
    (match n with Name_computed e' -> uses_last e' | Name_const _ -> false)
    || uses_last b
  | E_instance_of (e', _) | E_treat_as (e', _)
  | E_castable_as (e', _, _) | E_cast_as (e', _, _) -> uses_last e'
  | E_typeswitch (e', cases, (_, dflt)) ->
    uses_last e'
    || List.exists (fun c -> uses_last c.tbody) cases
    || uses_last dflt

(* Is the predicate a statically numeric expression (position test)? *)
let rec numeric_static (e : expr) =
  match e with
  | E_int _ | E_dec _ -> true
  | E_call (n, []) -> (match strip_fn n with "last" | "position" -> true | _ -> false)
  | E_arith (_, a, b) -> numeric_static a && numeric_static b
  | E_unary_minus a -> numeric_static a
  | _ -> false

(* Does [e] statically evaluate to a single xs:boolean? Used to avoid
   redundant fs:ebv wrappers. *)
let static_boolean (e : expr) =
  match e with
  | E_general_cmp _ | E_value_cmp _ | E_node_cmp _ | E_or _ | E_and _
  | E_quantified _ | E_instance_of _ | E_castable_as _ -> true
  | E_call (n, _) ->
    (match strip_fn n with
     | "not" | "boolean" | "empty" | "exists" | "contains" | "starts-with"
     | "ends-with" | "deep-equal" | "true" | "false" -> true
     | _ -> false)
  | _ -> false

(* Can [e] evaluate to one numeric item? A predicate that can is tested
   at run time (XQuery 1.0, 3.2.2: a numeric value is a position test).
   A path never is (its steps return nodes), nor a boolean, so their
   predicates take the effective boolean value statically. *)
let maybe_numeric (e : expr) =
  match e with
  | E_axis_step _ | E_slash _ -> false
  | _ -> not (static_boolean e)

let all_ws s =
  let ok = ref true in
  String.iter (fun c -> if not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then ok := false) s;
  !ok

(* Canonicalize an xs: atomic-type local name; static error on unknown
   ones. The numeric subtypes collapse onto integer/double (dynamic
   typing, see DESIGN.md). *)
let atomic_type_name name =
  match name with
  | "integer" | "long" | "int" | "short" | "byte" | "nonNegativeInteger"
  | "positiveInteger" | "negativeInteger" | "nonPositiveInteger"
  | "unsignedLong" | "unsignedInt" | "unsignedShort" | "unsignedByte" ->
    "integer"
  | "decimal" | "double" | "float" -> "double"
  | "string" | "normalizedString" | "token" -> "string"
  | "boolean" -> "boolean"
  | "untypedAtomic" -> "untypedAtomic"
  | "anyAtomicType" -> "anyAtomicType"
  | other -> Err.static "unsupported atomic type xs:%s" other

let check_seq_type (t : seq_type) =
  match t with
  | St_empty -> t
  | St (It_atomic n, occ) -> St (It_atomic (atomic_type_name n), occ)
  | St _ -> t

(* ----------------------------------------------------------- normalization *)

let rec norm env (e : expr) : core =
  match e with
  | E_int n -> C_int n
  | E_dec f -> C_dbl f
  | E_str s -> C_str s
  | E_var v -> C_var v
  | E_context_item ->
    (match env.ctx with
     | Some v -> C_var v
     | None -> Err.static "no context item is defined here ('.')")
  | E_seq [] -> C_empty
  | E_seq [ e' ] -> norm env e'
  | E_seq es -> C_seq (List.map (norm env) es)
  | E_flwor f -> norm_flwor env f
  | E_quantified (q, bindings, body) ->
    (* Rule QUANT: domains are order-indifferent in either mode *)
    List.fold_right
      (fun (var, domain) acc ->
         C_quant { q; var; domain = C_unordered (norm env domain); body = acc })
      bindings (ebv env body)
  | E_if (c, t, e2) -> C_if (ebv env c, norm env t, norm env e2)
  | E_or (a, b) -> C_or (ebv env a, ebv env b)
  | E_and (a, b) -> C_and (ebv env a, ebv env b)
  | E_general_cmp (op, a, b) ->
    (* general comparisons have existential semantics; their operand order
       is unobservable (paper, Section 2.2) *)
    C_gencmp (op, C_unordered (norm env a), C_unordered (norm env b))
  | E_value_cmp (op, a, b) -> C_valcmp (op, norm env a, norm env b)
  | E_node_cmp (op, a, b) -> C_nodecmp (op, norm env a, norm env b)
  | E_range (a, b) -> C_range (norm env a, norm env b)
  | E_arith (op, a, b) -> C_arith (op, norm env a, norm env b)
  | E_unary_minus a -> C_neg (norm env a)
  | E_union (a, b) ->
    let c = C_union (norm env a, norm env b, env.mode) in
    if env.mode = Unordered then C_unordered c else c (* Rule UNION *)
  | E_intersect (a, b) ->
    let c = C_intersect (norm env a, norm env b, env.mode) in
    if env.mode = Unordered then C_unordered c else c
  | E_except (a, b) ->
    let c = C_except (norm env a, norm env b, env.mode) in
    if env.mode = Unordered then C_unordered c else c
  | E_slash (e1, e2) -> norm_slash env e1 e2
  | E_axis_step (axis, test, preds) ->
    (* a relative step: context item is the implicit input *)
    let input =
      match env.ctx with
      | Some v -> C_var v
      | None -> Err.static "axis step with no context item"
    in
    let base = C_step { input; axis; test; mode = env.mode } in
    norm_preds ~reverse:(Xmldb.Axis.is_reverse axis) env base preds
  | E_filter (e', preds) -> norm_preds env (norm env e') preds
  | E_call (name, args) -> norm_call env name args
  | E_ordered e' -> norm { env with mode = Ordered } e'
  | E_unordered e' -> norm { env with mode = Unordered } e'
  | E_elem_direct (name, attrs, content) ->
    let attr_cores =
      List.map
        (fun (aname, pieces) ->
           C_attr { name = C_qname aname; value = avt env pieces })
        attrs
    in
    let content_cores =
      List.filter_map
        (fun c ->
           match c with
           | Ast.C_text s ->
             if all_ws s && env.boundary_space = Bs_strip then None
             else Some (Core_ast.C_text (C_str s))
           | Ast.C_expr e' -> Some (C_textify (norm env e'))
           | Ast.C_elem e' -> Some (norm env e'))
        content
    in
    C_elem
      { name = C_qname name;
        content =
          (match attr_cores @ content_cores with
           | [] -> C_empty
           | [ one ] -> one
           | many -> C_seq many) }
  | E_elem_computed (nspec, body) ->
    C_elem { name = name_core env nspec; content = C_textify (norm env body) }
  | E_attr_computed (nspec, body) ->
    C_attr { name = name_core env nspec;
             value = C_call ("fs:joinws", [ norm env body ]) }
  | E_text_computed body -> C_text (C_call ("fs:joinws", [ norm env body ]))
  | E_comment_computed body -> C_comment (C_call ("fs:joinws", [ norm env body ]))
  | E_pi_computed (nspec, body) ->
    let target =
      match nspec with
      | Name_const q -> C_str (Xmldb.Qname.to_string q)
      | Name_computed e' -> C_call ("string", [ norm env e' ])
    in
    C_pi { target; value = C_call ("fs:joinws", [ norm env body ]) }
  | E_doc_computed _ ->
    Err.static "document { } constructors are not supported"
  | E_instance_of (e', t) ->
    C_instance { input = norm env e'; ty = check_seq_type t }
  | E_treat_as (e', t) ->
    C_treat { input = norm env e'; ty = check_seq_type t }
  | E_castable_as (e', ty, optional) ->
    C_castable { input = norm env e'; ty = atomic_type_name ty; optional }
  | E_cast_as (e', ty, optional) ->
    C_cast { input = norm env e'; ty = atomic_type_name ty; optional }
  | E_typeswitch (e', cases, (dvar, dflt)) ->
    (* let $sw := e; if ($sw instance of t1) then (let $v := $sw ...) ... *)
    let sw = fresh env "switch" in
    let bind_case var body =
      match var with
      | None -> norm env body
      | Some v ->
        C_flwor
          { clauses = [ CLet { var = v; def = C_var sw } ];
            order_by = []; return_ = norm env body; mode = env.mode }
    in
    let rec chain = function
      | [] -> bind_case dvar dflt
      | c :: rest ->
        C_if
          (C_instance { input = C_var sw; ty = check_seq_type c.ttype },
           bind_case c.tvar c.tbody,
           chain rest)
    in
    C_flwor
      { clauses = [ CLet { var = sw; def = norm env e' } ];
        order_by = []; return_ = chain cases; mode = env.mode }

and name_core env = function
  | Name_const q -> C_qname q
  | Name_computed e -> norm env e

(* Attribute value template: concatenation of literal text and
   space-joined atomizations of embedded expressions. *)
and avt env pieces =
  let cores =
    List.map
      (fun p ->
         match p with
         | Ap_text s -> C_str s
         | Ap_expr e -> C_call ("fs:joinws", [ norm env e ]))
      pieces
  in
  match cores with
  | [] -> C_str ""
  | [ one ] -> one
  | first :: rest ->
    List.fold_left (fun acc c -> C_call ("concat", [ acc; c ])) first rest

and ebv env e =
  if static_boolean e then norm env e
  else C_call ("fs:ebv", [ norm env e ])

and norm_flwor env (f : Ast.flwor) =
  let clauses =
    List.map
      (fun c ->
         match c with
         | For_clause { var; pos_var; domain } ->
           CFor { var; pos_var; domain = norm env domain; reverse_pos = false }
         | Let_clause { var; def } -> CLet { var; def = norm env def }
         | Where_clause w -> CWhere (ebv env w))
      f.clauses
  in
  let order_by =
    List.map (fun o -> (norm env o.key, o.dir, o.empty)) f.order_by
  in
  C_flwor { clauses; order_by; return_ = norm env f.return_; mode = env.mode }

and norm_slash env e1 e2 =
  match e2 with
  | E_axis_step (axis, test, []) ->
    (* the common case: Rule LOC / LOC# applies directly *)
    C_step { input = norm env e1; axis; test; mode = env.mode }
  | E_axis_step (axis, test, preds) ->
    (* predicates count positions per context node of e1 *)
    let dot = fresh env "dot" in
    let step = C_step { input = C_var dot; axis; test; mode = env.mode } in
    let filtered =
      norm_preds ~reverse:(Xmldb.Axis.is_reverse axis)
        { env with ctx = Some dot } step preds
    in
    C_ddo
      { input =
          C_flwor
            { clauses =
                [ CFor { var = dot; pos_var = None; reverse_pos = false;
                         domain = C_unordered (norm env e1) } ];
              order_by = [];
              return_ = filtered;
              (* iteration order is irrelevant: the surrounding ddo
                 re-establishes document order *)
              mode = Unordered };
        mode = env.mode }
  | _ ->
    (* general right-hand side, e.g. $t/(c|d) *)
    let dot = fresh env "dot" in
    C_ddo
      { input =
          C_flwor
            { clauses =
                [ CFor { var = dot; pos_var = None; reverse_pos = false;
                         domain = C_unordered (norm env e1) } ];
              order_by = [];
              return_ = norm { env with ctx = Some dot } e2;
              mode = Unordered };
        mode = env.mode }

(* e[p1][p2]... — each predicate filters the previous result; positions are
   sequence positions of that intermediate result ([reverse]: reverse
   document order, for predicates directly on a reverse axis step). *)
and norm_preds ?(reverse = false) env base preds =
  (* every predicate attached to a reverse-axis step counts positions in
     reverse document order: ancestor::*[p][2] is the second-nearest
     ancestor among those satisfying p *)
  List.fold_left (fun acc p -> norm_one_pred ~reverse env acc p) base preds

and norm_one_pred ~reverse env base pred =
  let needs_last = uses_last pred in
  let seqv = fresh env "seq" in
  let dotv = fresh env "dot" in
  let posv = fresh env "pos" in
  let lastv = fresh env "last" in
  let penv =
    { env with
      ctx = Some dotv;
      pos = Some posv;
      last = (if needs_last then Some lastv else None) }
  in
  let cond =
    if numeric_static pred then
      (* numeric predicate: position() = value *)
      C_valcmp (Veq, C_var posv, norm penv pred)
    else if maybe_numeric pred then begin
      (* decided per value: position() = value when the value is one
         numeric item, its effective boolean value otherwise *)
      let pv = fresh env "pred" in
      let is ty =
        C_instance { input = C_var pv; ty = St (It_atomic ty, Occ_one) }
      in
      C_flwor
        { clauses = [ CLet { var = pv; def = norm penv pred } ];
          order_by = [];
          return_ =
            C_if
              (C_or (is "integer", is "double"),
               C_valcmp (Veq, C_var posv, C_var pv),
               C_call ("fs:ebv", [ C_var pv ]));
          mode = env.mode }
    end
    else ebv penv pred
  in
  let clauses =
    [ CLet { var = seqv; def = base } ]
    @ (if needs_last then
         [ CLet { var = lastv;
                  def = C_call ("count", [ C_unordered (C_var seqv) ]) } ]
       else [])
    @ [ CFor { var = dotv; pos_var = Some posv; domain = C_var seqv;
               reverse_pos = reverse };
        CWhere cond ]
  in
  C_flwor { clauses; order_by = []; return_ = C_var dotv; mode = env.mode }

and norm_call env name args =
  let name = strip_fn name in
  (* context-dependent functions default their argument to the context
     item when called with arity 0 *)
  let args =
    if args = []
       && List.mem name
            [ "name"; "local-name"; "string"; "data"; "number";
              "string-length"; "normalize-space"; "root" ]
    then [ E_context_item ]
    else args
  in
  (* user-declared functions are inlined *)
  match List.assoc_opt name env.funs with
  | Some f ->
    if List.mem name env.inlining then
      Err.static "recursive functions are not supported (%s)" name;
    if List.length f.params <> List.length args then
      Err.static "%s expects %d arguments, got %d" name
        (List.length f.params) (List.length args);
    let lets =
      List.map2
        (fun p a -> CLet { var = p; def = norm env a })
        f.params args
    in
    let benv = { env with inlining = name :: env.inlining; ctx = None } in
    if lets = [] then norm benv f.body
    else
      C_flwor
        { clauses = lets; order_by = []; return_ = norm benv f.body;
          mode = env.mode }
  | None ->
    (match name with
     | "position" ->
       (match env.pos with
        | Some v -> C_var v
        | None -> Err.static "fn:position() outside of a predicate")
     | "last" ->
       (match env.last with
        | Some v -> C_var v
        | None -> Err.static "fn:last() outside of a predicate")
     | "unordered" ->
       (match args with
        | [ a ] -> C_unordered (norm env a)
        | _ -> Err.static "fn:unordered expects 1 argument")
     | "id" ->
       (match args with
        | [ vals; ctx ] ->
          let c =
            C_call ("id", [ C_unordered (norm env vals); norm env ctx ])
          in
          (* Rule STEP analogue: fn:id derives its result order from
             document order; under ordering mode unordered that order is
             free *)
          if env.mode = Unordered then C_unordered c else c
        | _ ->
          Err.static "fn:id expects 2 arguments here (idrefs, context node)")
     | "root" ->
       (* fn:root($n) == ($n/ancestor-or-self::node())[last()] *)
       (match args with
        | [ a ] ->
          norm env
            (E_filter
               (E_slash
                  (a, E_axis_step (Xmldb.Axis.Ancestor_or_self, Nt_kind_node, [])),
                [ E_call ("last", []) ]))
        | _ -> Err.static "fn:root expects 1 argument")
     | "deep-equal" ->
       (* pragmatic deep equality: sequences are deep-equal iff their
          XML serializations coincide item-wise (see DESIGN.md) *)
       (match args with
        | [ a; b ] ->
          C_valcmp
            (Veq,
             C_call ("fs:serialize-seq", [ norm env a ]),
             C_call ("fs:serialize-seq", [ norm env b ]))
        | _ -> Err.static "fn:deep-equal expects 2 arguments")
     | _ ->
       (match
          List.find_opt (fun (n, _, _, _) -> String.equal n name) builtins
        with
        | None -> Err.static "unknown function %s()" name
        | Some (_, amin, amax, unord) ->
          let n = List.length args in
          if n < amin || n > amax then
            Err.static "%s() called with %d arguments" name n;
          let cargs =
            List.mapi
              (fun i a ->
                 let c = norm env a in
                 if List.mem (i + 1) unord then C_unordered c else c)
              args
          in
          (* n-ary concat folds into binary concatenations *)
          if name = "concat" then
            match cargs with
            | first :: rest ->
              List.fold_left
                (fun acc c -> C_call ("concat", [ acc; c ]))
                (C_call ("string", [ first ]))
                rest
            | [] -> assert false
          else C_call (name, cargs)))

(* ------------------------------------------------------------- entry point *)

(* [mode_override] forces an ordering mode regardless of the prolog's
   "declare ordering" — used by the benchmarks to run the same query text
   under both modes. *)
let normalize_query ?mode_override (q : Ast.query) : core =
  let mode =
    match mode_override with
    | Some m -> m
    | None -> Option.value ~default:Ordered q.prolog.ordering
  in
  let env =
    initial_env ~mode ~boundary_space:q.prolog.boundary_space
      q.prolog.functions
  in
  norm env q.body

(* Normalize a standalone expression under a given mode (tests, examples). *)
let normalize_expr ?(mode = Ordered) e =
  norm (initial_env ~mode []) e

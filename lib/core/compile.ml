(* The loop-lifting compilation scheme "e => q" (paper, Section 3) with the
   order-indifference extensions of Section 4 (Figure 7).

   Every XQuery Core expression compiles, relative to a loop relation
   (one row per active iteration), to a table with schema iter|pos|item:
   "in iteration iter, the expression assumes item value item at the
   sequence position corresponding to pos's rank".

   The three rules of Figure 7 are implemented verbatim and can be toggled
   with [unordered_rules] (the ablation switch used by the benchmarks):

     FN:UNORDERED   fn:unordered(e)  =>  #pos(π_{iter,item}(q_e))
     LOC#           under mode unordered, steps take #pos instead of
                    %pos:<item>||iter
     BIND#          under mode unordered (or below an order by clause),
                    for-variable bindings take #bind instead of
                    %bind:<iter,pos>

   Two engineering notes:
     - Loop-invariant hoisting: every sub-expression is compiled under the
       shallowest loop that binds all its free variables and the result is
       lifted (mapped) into the current loop. This reproduces the effect
       the paper attributes to Pathfinder's join recognition [9] for Q11:
       "the two path expressions ... are evaluated once only".
     - Like Pathfinder, compiled plans evaluate eagerly through
       conditionals: both branches of an if are computed (over restricted
       loops) and unioned. A dynamic error in a branch may therefore
       surface even if no iteration reaches it. *)

open Basis
open Xquery.Core_ast
module A = Algebra.Plan
module Value = Algebra.Value

type cfg = {
  b : A.builder;
  unordered_rules : bool;  (* enable FN:UNORDERED / LOC# / BIND# *)
  hoist : bool;            (* loop-invariant hoisting *)
  join_rec : bool;         (* value-join recognition [9]: where clauses and
                              correlated predicates *)
  join_isolation : bool;   (* slide a joinable where past intervening lets
                              so join recognition sees it (Q9's
                              for-let-where shape) *)
}

let default_cfg () =
  { b = A.builder (); unordered_rules = true; hoist = true; join_rec = true;
    join_isolation = true }

type binding = {
  plan : A.node;
  bound_depth : int;
  bound_loop : int;   (* id of the loop the plan's iterations align with *)
  singleton : bool;   (* statically known to bind exactly one item *)
}

type env = {
  loop : A.node;                    (* current loop: a table with col iter *)
  depth : int;
  maps : (int * A.node) list;       (* depth k -> map(outer,inner) into the
                                       current loop's iterations *)
  maps_target : int;                (* loop id the maps were built against *)
  vars : (string * binding) list;
  parent : env option;              (* env snapshot of the enclosing loop *)
}

let initial_env cfg =
  let loop = A.lit_loop cfg.b in
  { loop; depth = 0; maps = []; maps_target = loop.A.id; vars = [];
    parent = None }

(* ------------------------------------------------------------ small utils *)

let ipi = [ ("iter", "iter"); ("pos", "pos"); ("item", "item") ]

let pi_ipi cfg q = A.project cfg.b q ipi

let pi2 cfg q = A.project cfg.b q [ ("iter", "iter"); ("item", "item") ]

(* Attach pos=1 to an iter|item table (the paper's "× (pos|1)"). *)
let with_pos1 cfg q = pi_ipi cfg (A.attach cfg.b q "pos" (Value.Int 1))

(* A literal constant under the given loop. *)
let const_under cfg loop v =
  let q = A.attach cfg.b (A.attach cfg.b loop "pos" (Value.Int 1)) "item" v in
  pi_ipi cfg q

let empty_table cfg = A.lit cfg.b [| "iter"; "pos"; "item" |] []

(* Derive sequence order from document order (interaction 1, doc->seq):
   %pos:<item>||iter — or, under LOC#/FN:UNORDERED, a free #pos. *)
let number_by_doc_order cfg ~ordered q2 =
  if ordered then pi_ipi cfg (A.rownum cfg.b q2 "pos" [ ("item", A.Asc) ] (Some "iter"))
  else pi_ipi cfg (A.rowid cfg.b q2 "pos")

(* -------------------------------------------------- variable / loop access *)

let env_at env d =
  let rec go e =
    if e.depth = d then e
    else
      match e.parent with
      | Some p -> go p
      | None -> Err.internal "no environment snapshot at depth %d" d
  in
  go env

(* Map a plan produced at depth k into the current loop, and restrict it to
   the current loop's live iterations. [aligned_loop] is the id of the loop
   the plan's iterations already align with (semijoin elision). *)
let lift_to_current cfg env ~from_depth ?aligned_loop q =
  if from_depth = env.depth then begin
    (* already at this depth: restrict only if the loop shrank since *)
    match aligned_loop with
    | Some id when id = env.loop.A.id -> q
    | _ -> pi_ipi cfg (A.semijoin cfg.b q env.loop [ ("iter", "iter") ])
  end
  else if from_depth = 0 then
    (* the depth-0 loop is the unit loop: lifting is a cross product with
       the (live) current loop — no further restriction needed *)
    pi_ipi cfg
      (A.cross cfg.b env.loop
         (A.project cfg.b q [ ("pos", "pos"); ("item", "item") ]))
  else begin
    match List.assoc_opt from_depth env.maps with
    | None -> Err.internal "no loop map from depth %d" from_depth
    | Some map ->
      let j = A.join cfg.b map q "outer" "iter" in
      let q' =
        A.project cfg.b j [ ("iter", "inner"); ("pos", "pos"); ("item", "item") ]
      in
      (* the maps target the loop as it was when entered; restrict only if
         a where/if has shrunk it since *)
      if env.maps_target = env.loop.A.id then q'
      else pi_ipi cfg (A.semijoin cfg.b q' env.loop [ ("iter", "iter") ])
  end

let lookup_var cfg env v =
  match List.assoc_opt v env.vars with
  | None -> Err.static "unbound variable $%s" v
  | Some { plan; bound_depth; bound_loop; _ } ->
    lift_to_current cfg env ~from_depth:bound_depth ~aligned_loop:bound_loop plan

module SS = Set.Make (String)

(* Depth of the shallowest loop that binds all free variables of [e]. *)
let needed_depth env e =
  let fv = free_vars e in
  let d = ref 0 in
  let ok = ref true in
  SS.iter
    (fun v ->
       match List.assoc_opt v env.vars with
       | Some b -> if b.bound_depth > !d then d := b.bound_depth
       | None -> ok := false)
    fv;
  if !ok then Some !d else None

(* compose m1: outer->mid with m2: mid->inner *)
let compose_maps cfg m1 m2 =
  let m1' = A.project cfg.b m1 [ ("outer", "outer"); ("mid", "inner") ] in
  let m2' = A.project cfg.b m2 [ ("mid2", "outer"); ("inner", "inner") ] in
  let j = A.join cfg.b m1' m2' "mid" "mid2" in
  A.project cfg.b j [ ("outer", "outer"); ("inner", "inner") ]

(* ------------------------------------------------------------- built-ins *)

(* Count of rows per iteration, with absent iterations filled with 0;
   yields iter|item. *)
let grouped_count cfg env q =
  let cnt = A.aggr cfg.b (pi2 cfg q) "item" A.A_count None (Some "iter") None in
  let missing = A.antijoin cfg.b env.loop cnt [ ("iter", "iter") ] in
  let zero = A.attach cfg.b missing "item" (Value.Int 0) in
  A.union cfg.b cnt (A.project cfg.b zero [ ("iter", "iter"); ("item", "item") ])

(* Per-iteration boolean presence: true where q has rows, [dflt] elsewhere. *)
let presence cfg env ~present_value ~absent_value q =
  let present = A.distinct cfg.b (A.project cfg.b q [ ("iter", "iter") ]) in
  let t = A.attach cfg.b present "item" present_value in
  let missing = A.antijoin cfg.b env.loop present [ ("iter", "iter") ] in
  let f = A.attach cfg.b missing "item" absent_value in
  A.union cfg.b
    (A.project cfg.b t [ ("iter", "iter"); ("item", "item") ])
    (A.project cfg.b f [ ("iter", "iter"); ("item", "item") ])

(* Effective boolean value per iteration (fills absent iterations: false). *)
let ebv_table cfg env q =
  let e = A.aggr cfg.b (pi2 cfg q) "item" A.A_ebv (Some "item") (Some "iter") None in
  let missing = A.antijoin cfg.b env.loop e [ ("iter", "iter") ] in
  let f = A.attach cfg.b missing "item" (Value.Bool false) in
  A.union cfg.b e (A.project cfg.b f [ ("iter", "iter"); ("item", "item") ])

(* The per-iteration single value of q as iter|item, raising a dynamic
   error on iterations with more than one item (the A_the aggregate). *)
let the_singleton cfg q =
  A.aggr cfg.b (pi2 cfg q) "item" A.A_the (Some "item") (Some "iter") None

(* Static cardinality: is [e] known to yield at most one item per
   iteration? Lets singleton contexts skip the A_the runtime check. *)
let rec static_single env (e : core) =
  match e with
  | C_int _ | C_dbl _ | C_str _ | C_qname _ | C_empty -> true
  | C_var v ->
    (match List.assoc_opt v env.vars with
     | Some b -> b.singleton
     | None -> false)
  | C_gencmp _ | C_valcmp _ | C_nodecmp _ | C_arith _ | C_neg _
  | C_and _ | C_or _ | C_quant _ | C_if (_, C_empty, C_empty) -> true
  | C_if (_, t, e') -> static_single env t && static_single env e'
  | C_elem _ | C_attr _ | C_text _ | C_comment _ | C_pi _ -> true
  | C_unordered e' | C_textify e' -> static_single env e'
  | C_call (f, _) ->
    List.mem f
      [ "doc"; "count"; "sum"; "avg"; "max"; "min"; "empty"; "exists"; "not";
        "boolean"; "fs:ebv"; "string"; "string-length"; "normalize-space";
        "concat"; "contains"; "starts-with"; "ends-with"; "string-join";
        "fs:joinws"; "fs:serialize-seq"; "number"; "round"; "floor";
        "ceiling"; "abs"; "name"; "local-name"; "true"; "false";
        "zero-or-one"; "exactly-one"; "substring"; "upper-case";
        "lower-case"; "substring-before"; "substring-after"; "translate" ]
  | C_instance _ | C_castable _ -> true
  | C_cast { optional; _ } -> optional || true (* at most one item *)
  | C_treat { input; _ } -> static_single env input
  | C_seq _ | C_flwor _ | C_step _ | C_ddo _ | C_union _ | C_intersect _
  | C_except _ | C_range _ -> false

(* E, $dot and P of Normalize's filter form for E[P],

     let $seq := E  for $dot at $pos in $seq  where P  return $dot

   when P reads neither $pos nor $seq: a non-positional predicate, so the
   form means [for $dot in E where P return $dot]. A [last()] predicate
   binds one more let and never matches. *)
let filter_form (f : flwor) =
  match (f.clauses, f.order_by, f.return_) with
  | [ CLet { var = seq; def };
      CFor { var = dot; pos_var = Some pos; domain = C_var s; _ };
      CWhere p ], [], C_var r
    when String.equal s seq && String.equal r dot ->
    let fv = free_vars p in
    if SS.mem pos fv || SS.mem seq fv then None else Some (def, dot, p)
  | _ -> None

(* Does [e] read a variable bound inside a loop? Only then would the
   loop-lifted plan repeat its work once per iteration. *)
let correlated env e =
  SS.exists
    (fun v ->
       match List.assoc_opt v env.vars with
       | Some b -> b.bound_depth >= 1
       | None -> false)
    (free_vars e)

(* A singleton view of the compiled [e]: skip the runtime cardinality check
   when static analysis already guarantees it. *)
let singleton_of cfg env e q =
  if static_single env e then pi2 cfg q else the_singleton cfg q

(* An operand of [|], [intersect] or [except] must be nodes. A step, a
   ddo path or another node-set operator returns nodes by construction;
   any other operand is checked row by row, with the checked value as
   the item so the check is never pruned. *)
let node_operand cfg e q =
  match e with
  | C_step _ | C_ddo _ | C_union _ | C_intersect _ | C_except _ -> pi2 cfg q
  | _ ->
    let c = A.fun1 cfg.b (pi2 cfg q) "nc" A.P_check_node "item" in
    A.project cfg.b c [ ("iter", "iter"); ("item", "nc") ]

(* [target] restricted to the iterations in which [q] has exactly one
   item; [check], applied to each iteration's count, raises on any other
   count. *)
let exactly_one cfg env check q target =
  let cnt = grouped_count cfg env (pi2 cfg q) in
  let chk = A.fun1 cfg.b cnt "ok" check "item" in
  let ok = A.project cfg.b (A.select cfg.b chk "ok") [ ("iter", "iter") ] in
  A.semijoin cfg.b target ok [ ("iter", "iter") ]

(* A computed constructor name: exactly one item per iteration. A
   literal QName or string is one; any other name is counted, so an
   empty name raises as a longer one does. *)
let constructor_name cfg env name q =
  match name with
  | C_qname _ | C_str _ -> singleton_of cfg env name q
  | _ -> exactly_one cfg env A.P_check_singleton q (pi2 cfg q)

(* Singleton (or absent) value per iteration as iter|<res>, atomized.
   [sq] must already be a per-iteration singleton table (iter|item). *)
let singleton_col_of cfg sq res =
  let a = A.fun1 cfg.b sq "a" A.P_atomize "item" in
  A.project cfg.b a [ ("iter", "iter"); (res, "a") ]

let singleton_col cfg q res = singleton_col_of cfg (the_singleton cfg q) res

(* Join two per-iteration singleton tables; iterations missing on either
   side drop out (empty operand -> empty result). *)
let join_singletons_of cfg sq1 sq2 =
  let l = singleton_col_of cfg sq1 "v1" in
  let r =
    let a = A.fun1 cfg.b sq2 "a" A.P_atomize "item" in
    A.project cfg.b a [ ("iter2", "iter"); ("v2", "a") ]
  in
  A.join cfg.b l r "iter" "iter2"

(* Fill an iter|item singleton table with a default for absent iters. *)
let fill_default cfg env q2 v =
  let missing = A.antijoin cfg.b env.loop q2 [ ("iter", "iter") ] in
  let d = A.attach cfg.b missing "item" v in
  A.union cfg.b q2 (A.project cfg.b d [ ("iter", "iter"); ("item", "item") ])

(* Ast-level type names (already canonicalized by Normalize) to the
   algebra's dynamic-type vocabulary. *)
let atomic_ty = function
  | "integer" -> A.Ty_integer
  | "double" -> A.Ty_double
  | "string" -> A.Ty_string
  | "boolean" -> A.Ty_boolean
  | "untypedAtomic" -> A.Ty_untyped
  | "anyAtomicType" -> A.Ty_any_atomic
  | other -> Err.internal "unexpected atomic type %s" other

let item_ty (t : Xquery.Ast.item_type) : A.item_ty =
  match t with
  | Xquery.Ast.It_item -> A.Ty_item
  | Xquery.Ast.It_node -> A.Ty_node
  | Xquery.Ast.It_element q -> A.Ty_element q
  | Xquery.Ast.It_attribute q -> A.Ty_attribute q
  | Xquery.Ast.It_text -> A.Ty_text
  | Xquery.Ast.It_comment -> A.Ty_comment
  | Xquery.Ast.It_pi -> A.Ty_pi
  | Xquery.Ast.It_document -> A.Ty_document
  | Xquery.Ast.It_atomic n -> A.Ty_atomic (atomic_ty n)

(* ------------------------------------------------------------ compilation *)

let rec compile cfg env (e : core) : A.node =
  (* loop-invariant hoisting: compile under the shallowest sufficient loop *)
  let trivial = match e with C_var _ | C_empty -> true | _ -> false in
  match (if cfg.hoist && not trivial then needed_depth env e else None) with
  | Some d when d < env.depth ->
    let env_d = env_at env d in
    let q = compile_here cfg env_d e in
    lift_to_current cfg env ~from_depth:d ~aligned_loop:env_d.loop.A.id q
  | _ -> compile_here cfg env e

and compile_here cfg env (e : core) : A.node =
  match e with
  | C_int n -> const_under cfg env.loop (Value.Int n)
  | C_dbl f -> const_under cfg env.loop (Value.Dbl f)
  | C_str s -> const_under cfg env.loop (Value.Str s)
  | C_qname q -> const_under cfg env.loop (Value.Qname_v q)
  | C_empty -> empty_table cfg
  | C_var v -> lookup_var cfg env v
  | C_seq es -> compile_seq cfg env es
  | C_flwor f -> compile_flwor cfg env f
  | C_quant { q; var; domain; body } -> compile_quant cfg env q var domain body
  | C_if (c, t, e2) -> compile_if cfg env c t e2
  | C_step { input; axis; test; mode } ->
    let qi = compile cfg env input in
    let s = A.step cfg.b (pi2 cfg qi) axis (plan_test test) in
    let ordered =
      (not cfg.unordered_rules) || mode = Xquery.Ast.Ordered
    in
    (* Rule LOC (ordered) / LOC# (unordered) *)
    number_by_doc_order cfg ~ordered s
  | C_ddo { input; mode } -> (
    match path_join cfg env input with
    | Some chain -> compile cfg env chain
    | None ->
      let qi = compile cfg env input in
      (* XQuery 1.0: every path step must produce nodes; the checked value
         becomes the item so the check can never be pruned *)
      let checked = A.fun1 cfg.b (pi2 cfg qi) "nc" A.P_node_check "item" in
      let checked = A.project cfg.b checked [ ("iter", "iter"); ("item", "nc") ] in
      let d = A.distinct cfg.b checked in
      let ordered = (not cfg.unordered_rules) || mode = Xquery.Ast.Ordered in
      number_by_doc_order cfg ~ordered d)
  | C_unordered e' ->
    let q = compile cfg env e' in
    if cfg.unordered_rules then
      (* Rule FN:UNORDERED: #pos . π_{iter,item} *)
      pi_ipi cfg (A.rowid cfg.b (pi2 cfg q) "pos")
    else q
  | C_gencmp (op, a, b) -> compile_gencmp cfg env op a b
  | C_valcmp (op, a, b) ->
    let sa = singleton_of cfg env a (compile cfg env a) in
    let sb = singleton_of cfg env b (compile cfg env b) in
    let j = join_singletons_of cfg sa sb in
    let c = A.fun2 cfg.b j "item" (val_prim op) "v1" "v2" in
    with_pos1 cfg (A.project cfg.b c [ ("iter", "iter"); ("item", "item") ])
  | C_nodecmp (op, a, b) ->
    (* node comparisons: no atomization, but singletons only *)
    let l = A.project cfg.b (singleton_of cfg env a (compile cfg env a)) [ ("iter", "iter"); ("v1", "item") ] in
    let r = A.project cfg.b (singleton_of cfg env b (compile cfg env b)) [ ("iter2", "iter"); ("v2", "item") ] in
    let j = A.join cfg.b l r "iter" "iter2" in
    let c = A.fun2 cfg.b j "item" (node_prim op) "v1" "v2" in
    with_pos1 cfg (A.project cfg.b c [ ("iter", "iter"); ("item", "item") ])
  | C_arith (op, a, b) ->
    let sa = singleton_of cfg env a (compile cfg env a) in
    let sb = singleton_of cfg env b (compile cfg env b) in
    let j = join_singletons_of cfg sa sb in
    let c = A.fun2 cfg.b j "item" (arith_prim op) "v1" "v2" in
    with_pos1 cfg (A.project cfg.b c [ ("iter", "iter"); ("item", "item") ])
  | C_neg a ->
    let q = singleton_col_of cfg (singleton_of cfg env a (compile cfg env a)) "v" in
    let c = A.fun1 cfg.b q "item" A.P_neg "v" in
    with_pos1 cfg (A.project cfg.b c [ ("iter", "iter"); ("item", "item") ])
  | C_and (a, b) | C_or (a, b) ->
    let prim = (match e with C_and _ -> A.P_and | _ -> A.P_or) in
    (* operands are EBV'd: one boolean per live iteration *)
    let l = A.project cfg.b (pi2 cfg (compile cfg env a)) [ ("iter", "iter"); ("v1", "item") ] in
    let r = A.project cfg.b (pi2 cfg (compile cfg env b)) [ ("iter2", "iter"); ("v2", "item") ] in
    let j = A.join cfg.b l r "iter" "iter2" in
    let c = A.fun2 cfg.b j "item" prim "v1" "v2" in
    with_pos1 cfg (A.project cfg.b c [ ("iter", "iter"); ("item", "item") ])
  | C_union (a, b, _mode) ->
    let u =
      A.union cfg.b
        (node_operand cfg a (compile cfg env a))
        (node_operand cfg b (compile cfg env b))
    in
    let d = A.distinct cfg.b u in
    (* document order determines sequence order (doc->seq): Rule LOC's
       % — the C_unordered wrapper added by Rule UNION overwrites it *)
    number_by_doc_order cfg ~ordered:true d
  | C_intersect (a, b, _) ->
    let qa = A.distinct cfg.b (node_operand cfg a (compile cfg env a)) in
    let qb = node_operand cfg b (compile cfg env b) in
    let s = A.semijoin cfg.b qa qb [ ("iter", "iter"); ("item", "item") ] in
    number_by_doc_order cfg ~ordered:true s
  | C_except (a, b, _) ->
    let qa = A.distinct cfg.b (node_operand cfg a (compile cfg env a)) in
    let qb = node_operand cfg b (compile cfg env b) in
    let s = A.antijoin cfg.b qa qb [ ("iter", "iter"); ("item", "item") ] in
    number_by_doc_order cfg ~ordered:true s
  | C_range (a, b) ->
    let sa = singleton_of cfg env a (compile cfg env a) in
    let sb = singleton_of cfg env b (compile cfg env b) in
    (* the range kernel reads each bound with [Value.range_bound], as
       the interpreter does *)
    A.range cfg.b (join_singletons_of cfg sa sb) "v1" "v2"
  | C_call (f, args) -> compile_call cfg env f args
  | C_elem { name; content } ->
    let qn = constructor_name cfg env name (compile cfg env name) in
    let qc = pi_ipi cfg (compile cfg env content) in
    with_pos1 cfg (A.elem cfg.b qn qc)
  | C_attr { name; value } ->
    let qn = constructor_name cfg env name (compile cfg env name) in
    let qv = pi2 cfg (compile cfg env value) in
    with_pos1 cfg (A.attr cfg.b qn qv)
  | C_text v ->
    with_pos1 cfg (A.textnode cfg.b (pi2 cfg (compile cfg env v)))
  | C_comment v ->
    with_pos1 cfg (A.commentnode cfg.b (pi2 cfg (compile cfg env v)))
  | C_pi { target; value } ->
    let t =
      singleton_col_of cfg
        (singleton_of cfg env target (compile cfg env target)) "target"
    in
    let v =
      let a = A.fun1 cfg.b (pi2 cfg (compile cfg env value)) "a" A.P_atomize "item" in
      A.project cfg.b a [ ("iter2", "iter"); ("value", "a") ]
    in
    let j = A.join cfg.b t v "iter" "iter2" in
    let j = A.project cfg.b j [ ("iter", "iter"); ("target", "target"); ("value", "value") ] in
    with_pos1 cfg (A.pinode cfg.b j)
  | C_textify e' ->
    (* group atomic runs into text nodes; pos order is preserved *)
    let q = pi_ipi cfg (compile cfg env e') in
    pi_ipi cfg (mk_textify cfg q)
  | C_instance { input; ty } ->
    let q = pi2 cfg (compile cfg env input) in
    with_pos1 cfg (instance_table cfg env q ty)
  | C_treat { input; ty } ->
    (* a runtime assertion: pass the operand through, raising when the
       dynamic type does not match *)
    let q = pi_ipi cfg (compile cfg env input) in
    let inst = instance_table cfg env (pi2 cfg q) ty in
    let chk = A.fun1 cfg.b inst "ok" A.P_check_treat "item" in
    let ok = A.project cfg.b (A.select cfg.b chk "ok") [ ("iter", "iter") ] in
    pi_ipi cfg (A.semijoin cfg.b q ok [ ("iter", "iter") ])
  | C_cast { input; ty; optional } ->
    let q = compile cfg env input in
    let s = the_singleton cfg q in            (* raises on more than one *)
    let casted = A.fun1 cfg.b s "c" (A.P_cast_as (atomic_ty ty)) "item" in
    let casted =
      with_pos1 cfg (A.project cfg.b casted [ ("iter", "iter"); ("item", "c") ])
    in
    if optional then casted
    else begin
      (* "cast as T" (no ?) requires exactly one item *)
      pi_ipi cfg (exactly_one cfg env A.P_check_exactly_one q casted)
    end
  | C_castable { input; ty; optional } ->
    let q = pi2 cfg (compile cfg env input) in
    let cnt = grouped_count cfg env q in      (* iter|item incl. zeros *)
    let one = A.attach cfg.b cnt "one" (Value.Int 1) in
    (* count = 1: ask the value; count = 0: the "?" decides; else false *)
    let is_one = A.fun2 cfg.b one "c1" A.P_eq "item" "one" in
    let ones = A.project cfg.b (A.select cfg.b is_one "c1") [ ("i1", "iter") ] in
    let single =
      A.project cfg.b
        (A.join cfg.b ones q "i1" "iter")
        [ ("iter", "iter"); ("item", "item") ]
    in
    let can = A.fun1 cfg.b single "cc" (A.P_castable (atomic_ty ty)) "item" in
    let can = A.project cfg.b can [ ("iter", "iter"); ("item", "cc") ] in
    let is_zero = A.fun1 cfg.b cnt "z" A.P_not "item" in
    let zeros =
      A.project cfg.b
        (A.attach cfg.b
           (A.select cfg.b is_zero "z")
           "ans" (Value.Bool optional))
        [ ("iter", "iter"); ("item", "ans") ]
    in
    let gt_one = A.fun2 cfg.b one "cm" A.P_gt "item" "one" in
    let many =
      A.project cfg.b
        (A.attach cfg.b (A.select cfg.b gt_one "cm") "ans" (Value.Bool false))
        [ ("iter", "iter"); ("item", "ans") ]
    in
    with_pos1 cfg (A.union cfg.b (A.union cfg.b can zeros) many)

and mk_textify cfg q = A.mk cfg.b (A.Textify { input = q })

(* The per-iteration boolean of "q instance of ty": cardinality check plus
   a per-item dynamic type test, filled over the live loop. *)
and instance_table cfg env q2 (ty : Xquery.Ast.seq_type) =
  match ty with
  | Xquery.Ast.St_empty ->
    presence cfg env ~present_value:(Value.Bool false)
      ~absent_value:(Value.Bool true) q2
  | Xquery.Ast.St (ity, occ) ->
    let cnt = grouped_count cfg env q2 in
    let one = A.attach cfg.b cnt "one" (Value.Int 1) in
    let card_ok =
      match occ with
      | Xquery.Ast.Occ_one -> A.fun2 cfg.b one "ok1" A.P_eq "item" "one"
      | Xquery.Ast.Occ_opt -> A.fun2 cfg.b one "ok1" A.P_le "item" "one"
      | Xquery.Ast.Occ_plus -> A.fun2 cfg.b one "ok1" A.P_ge "item" "one"
      | Xquery.Ast.Occ_star -> A.attach cfg.b one "ok1" (Value.Bool true)
    in
    let card_ok = A.project cfg.b card_ok [ ("iter", "iter"); ("ok1", "ok1") ] in
    let tested = A.fun1 cfg.b q2 "t" (A.P_instance_item (item_ty ity)) "item" in
    let bad = A.fun1 cfg.b tested "nt" A.P_not "t" in
    let fails = A.select cfg.b bad "nt" in
    let items_ok =
      presence cfg env ~present_value:(Value.Bool false)
        ~absent_value:(Value.Bool true) fails
    in
    let items_ok = A.project cfg.b items_ok [ ("i2", "iter"); ("ok2", "item") ] in
    let j = A.join cfg.b card_ok items_ok "iter" "i2" in
    let both = A.fun2 cfg.b j "item" A.P_and "ok1" "ok2" in
    A.project cfg.b both [ ("iter", "iter"); ("item", "item") ]

and plan_test (t : Xquery.Ast.node_test) : A.ntest =
  match t with
  | Xquery.Ast.Nt_name q -> A.N_name q
  | Xquery.Ast.Nt_wild -> A.N_wild
  | Xquery.Ast.Nt_prefix_wild _ -> Err.static "prefix:* node tests are not supported"
  | Xquery.Ast.Nt_kind_node -> A.N_any
  | Xquery.Ast.Nt_kind_text -> A.N_kind Xmldb.Node_kind.Text
  | Xquery.Ast.Nt_kind_comment -> A.N_kind Xmldb.Node_kind.Comment
  | Xquery.Ast.Nt_kind_document -> A.N_kind Xmldb.Node_kind.Document
  | Xquery.Ast.Nt_kind_element None -> A.N_kind Xmldb.Node_kind.Element
  | Xquery.Ast.Nt_kind_element (Some q) -> A.N_name q
  | Xquery.Ast.Nt_kind_attribute None -> A.N_kind Xmldb.Node_kind.Attribute
  | Xquery.Ast.Nt_kind_attribute (Some q) -> A.N_name q
  | Xquery.Ast.Nt_kind_pi None -> A.N_kind Xmldb.Node_kind.Processing_instruction
  | Xquery.Ast.Nt_kind_pi (Some t') -> A.N_pi t'

and val_prim (op : Xquery.Ast.value_cmp) =
  match op with
  | Xquery.Ast.Veq -> A.P_eq | Xquery.Ast.Vne -> A.P_ne
  | Xquery.Ast.Vlt -> A.P_lt | Xquery.Ast.Vle -> A.P_le
  | Xquery.Ast.Vgt -> A.P_gt | Xquery.Ast.Vge -> A.P_ge

and gen_prim (op : Xquery.Ast.general_cmp) =
  match op with
  | Xquery.Ast.Geq -> A.P_eq | Xquery.Ast.Gne -> A.P_ne
  | Xquery.Ast.Glt -> A.P_lt | Xquery.Ast.Gle -> A.P_le
  | Xquery.Ast.Ggt -> A.P_gt | Xquery.Ast.Gge -> A.P_ge

and node_prim (op : Xquery.Ast.node_cmp) =
  match op with
  | Xquery.Ast.Is -> A.P_is
  | Xquery.Ast.Precedes -> A.P_before
  | Xquery.Ast.Follows -> A.P_after

and arith_prim (op : Xquery.Ast.arith) =
  match op with
  | Xquery.Ast.Add -> A.P_add | Xquery.Ast.Sub -> A.P_sub
  | Xquery.Ast.Mul -> A.P_mul | Xquery.Ast.Div -> A.P_div
  | Xquery.Ast.Idiv -> A.P_idiv | Xquery.Ast.Mod -> A.P_mod

(* (e1, e2, ...): disjoint union with an ord column, then renumber
   (iter->seq: sequence order is concatenation order). *)
and compile_seq cfg env es =
  match es with
  | [] -> empty_table cfg
  | [ e ] -> compile cfg env e
  | es ->
    let parts =
      List.mapi
        (fun i e ->
           let q = compile cfg env e in
           A.project cfg.b
             (A.attach cfg.b (pi_ipi cfg q) "ord" (Value.Int (i + 1)))
             [ ("iter", "iter"); ("ord", "ord"); ("pos", "pos"); ("item", "item") ])
        es
    in
    let u = List.fold_left (fun acc p -> A.union cfg.b acc p) (List.hd parts) (List.tl parts) in
    let n = A.rownum cfg.b u "pos2" [ ("ord", A.Asc); ("pos", A.Asc) ] (Some "iter") in
    A.project cfg.b n [ ("iter", "iter"); ("pos", "pos2"); ("item", "item") ]

and compile_if cfg env c t e2 =
  let qc = compile cfg env c in  (* one boolean per live iteration *)
  let qc2 = pi2 cfg qc in
  let loop_t =
    A.project cfg.b (A.select cfg.b qc2 "item") [ ("iter", "iter") ]
  in
  let nc = A.fun1 cfg.b qc2 "nitem" A.P_not "item" in
  let loop_f =
    A.project cfg.b (A.select cfg.b nc "nitem") [ ("iter", "iter") ]
  in
  let qt = compile cfg { env with loop = loop_t } t in
  let qe = compile cfg { env with loop = loop_f } e2 in
  pi_ipi cfg (A.union cfg.b (pi_ipi cfg qt) (pi_ipi cfg qe))

and compile_gencmp cfg env op a b =
  let qa = compile cfg env a and qb = compile cfg env b in
  let l =
    let x = A.fun1 cfg.b (pi2 cfg qa) "v1" A.P_atomize "item" in
    A.project cfg.b x [ ("iter", "iter"); ("v1", "v1") ]
  in
  let r =
    let x = A.fun1 cfg.b (pi2 cfg qb) "v2" A.P_atomize "item" in
    A.project cfg.b x [ ("iter2", "iter"); ("v2", "v2") ]
  in
  let j = A.join cfg.b l r "iter" "iter2" in
  let c = A.fun2 cfg.b j "c" (gen_prim op) "v1" "v2" in
  let sat = A.distinct cfg.b (A.project cfg.b (A.select cfg.b c "c") [ ("iter", "iter") ]) in
  with_pos1 cfg
    (presence cfg env ~present_value:(Value.Bool true)
       ~absent_value:(Value.Bool false) sat)

and compile_quant cfg env q var domain body =
  let qd = compile cfg env domain in
  (* QUANT: iteration order over the domain is free — #bind *)
  let t =
    if cfg.unordered_rules then A.rowid cfg.b (pi_ipi cfg qd) "bind"
    else A.rownum cfg.b (pi_ipi cfg qd) "bind" [ ("iter", A.Asc); ("pos", A.Asc) ] None
  in
  let inner_loop = A.project cfg.b t [ ("iter", "bind") ] in
  let map_new = A.project cfg.b t [ ("outer", "iter"); ("inner", "bind") ] in
  let var_plan =
    with_pos1 cfg (A.project cfg.b t [ ("iter", "bind"); ("item", "item") ])
  in
  let env' = push_loop cfg env inner_loop map_new [ (var, (var_plan, true)) ] in
  let qb = compile cfg env' body in
  (* for "every", test for a falsifying binding *)
  let qb2 = pi2 cfg qb in
  let hits =
    match q with
    | Xquery.Ast.Some_q -> A.select cfg.b qb2 "item"
    | Xquery.Ast.Every_q ->
      let n = A.fun1 cfg.b qb2 "nitem" A.P_not "item" in
      A.project cfg.b (A.select cfg.b n "nitem") [ ("iter", "iter"); ("item", "item") ]
  in
  let hit_inner = A.project cfg.b hits [ ("inner2", "iter") ] in
  let j = A.join cfg.b map_new hit_inner "inner" "inner2" in
  let sat = A.distinct cfg.b (A.project cfg.b j [ ("iter", "outer") ]) in
  let present, absent =
    match q with
    | Xquery.Ast.Some_q -> (Value.Bool true, Value.Bool false)
    | Xquery.Ast.Every_q -> (Value.Bool false, Value.Bool true)
  in
  with_pos1 cfg (presence cfg env ~present_value:present ~absent_value:absent sat)

(* Enter a nested loop: extend maps, bind new variables, link parent. *)
and push_loop cfg env inner_loop map_new new_vars =
  let maps' =
    (env.depth, map_new)
    :: List.map (fun (k, m) -> (k, compose_maps cfg m map_new)) env.maps
  in
  { loop = inner_loop;
    depth = env.depth + 1;
    maps = maps';
    maps_target = inner_loop.A.id;
    vars =
      List.map
        (fun (v, (p, single)) ->
           (v, { plan = p; bound_depth = env.depth + 1;
                 bound_loop = inner_loop.A.id; singleton = single }))
        new_vars
      @ env.vars;
    parent = Some env }

(* Value-join recognition on FLWOR where-clauses (the paper's reference
   [9], "Purely Relational FLWORs"): for

     for $v in D where a cmp b ...

   with D fully loop-invariant, a independent of $v, and b depending on at
   most $v (plus top-level bindings), the filtered inner loop is computed
   as an actual theta join of a's values (per outer iteration) with b's
   values (per D binding) — never materializing the outer x D cross
   product. The general comparison's existential semantics are a distinct
   projection of the join result. *)
and joinable_where cfg env_cur (fc : clause) cond =
  if not cfg.join_rec then None
  else
    match (fc, cond) with
    | CFor { var; pos_var = None; domain; _ }, C_gencmp (op, a0, b0) ->
      let unwrap = function C_unordered e -> e | e -> e in
      let a = unwrap a0 and b = unwrap b0 in
      let depth_ok e = needed_depth env_cur e in
      let only_v_and_invariants e =
        SS.for_all
          (fun x ->
             String.equal x var
             || (match List.assoc_opt x env_cur.vars with
                 | Some bd -> bd.bound_depth = 0
                 | None -> false))
          (free_vars e)
      in
      if depth_ok domain <> Some 0 then None
      else if
        (* outer-side operand on the left, $var-side on the right *)
        (not (SS.mem var (free_vars a)))
        && depth_ok a <> None
        && only_v_and_invariants b
      then Some (var, domain, op, a, b)
      else if
        (* swapped orientation: flip the comparison *)
        (not (SS.mem var (free_vars b)))
        && depth_ok b <> None
        && only_v_and_invariants a
      then begin
        let flipped =
          match op with
          | Xquery.Ast.Glt -> Xquery.Ast.Ggt
          | Xquery.Ast.Gle -> Xquery.Ast.Gge
          | Xquery.Ast.Ggt -> Xquery.Ast.Glt
          | Xquery.Ast.Gge -> Xquery.Ast.Gle
          | (Xquery.Ast.Geq | Xquery.Ast.Gne) as o -> o
        in
        Some (var, domain, flipped, b, a)
      end
      else None
    | _ -> None

(* Join recognition on predicates: the filter form of E[P] is compiled as
   [for $dot in E where P return $dot], so [compile_join_for] builds the
   theta join. It fires only when P is correlated (top_sellers'
   open_auction[seller/@person = $s], whose loop-lifted steps would visit
   every auction once per seller) and [joinable_where] accepts the
   rewritten FLWOR; every other predicate keeps the positional plan. The
   rewrite lives here, not in Normalize: the interpreter evaluates
   normalized Core, so it keeps the positional form and stays an
   independent oracle for this rewrite. *)
and predicate_join cfg env (f : flwor) =
  match filter_form f with
  | Some (e, dot, p) when correlated env p ->
    let fc = CFor { var = dot; pos_var = None; domain = e; reverse_pos = false } in
    Option.map
      (fun _ -> { f with clauses = [ fc; CWhere p ] })
      (joinable_where cfg env fc p)
  | _ -> None

(* The path form of E1/s[P1]..[Pn], [ddo(for $c in E1 return <chain>)],
   where the chain is the filter forms over $c/s: when every link is
   non-positional and no P reads $c, the filters commute with the
   per-context union plus ddo, so the chain rebuilt over the one step
   E1/s means the same. [rebase] stops at a positional link, so
   E1/s[P][1] and E1/s[1][P] keep their plans. [fires] keeps the chain
   only when one of its links is then recognized as a join, so a chain
   with no correlated link (person[@id = "person0"]) keeps its
   per-context plan. *)
and path_join cfg env input =
  match input with
  | C_flwor
      { clauses = [ CFor { var = c; pos_var = None; domain; _ } ];
        order_by = []; return_; _ } ->
    let e1 = match domain with C_unordered e -> e | e -> e in
    let rec rebase = function
      | C_step ({ input = C_var v; _ } as s) when String.equal v c ->
        Some (C_step { s with input = e1 })
      | C_flwor f -> (
        match (filter_form f, f.clauses) with
        | Some (e, _, p), CLet { var; _ } :: rest
          when not (SS.mem c (free_vars p)) ->
          Option.map
            (fun def -> C_flwor { f with clauses = CLet { var; def } :: rest })
            (rebase e)
        | _ -> None)
      | _ -> None
    in
    let rec fires = function
      | C_flwor f -> (
        predicate_join cfg env f <> None
        || match filter_form f with Some (e, _, _) -> fires e | None -> false)
      | _ -> false
    in
    (match rebase return_ with
     | Some chain when fires chain -> Some chain
     | _ -> None)
  | _ -> None

and compile_join_for cfg env_cur ~bind_ordered (var, domain, op, a, b) =
  let env0 = env_at env_cur 0 in
  (* the domain, evaluated once (iter = 1 throughout) *)
  let qd0 = pi_ipi cfg (compile cfg env0 domain) in
  let t0 =
    if bind_ordered then
      A.rownum cfg.b qd0 "bind" [ ("iter", A.Asc); ("pos", A.Asc) ] None
    else A.rowid cfg.b qd0 "bind"
  in
  (* a standalone loop over the domain bindings, for compiling b *)
  let domain_loop = A.project cfg.b t0 [ ("iter", "bind") ] in
  let map0 = A.project cfg.b t0 [ ("outer", "iter"); ("inner", "bind") ] in
  let vplan =
    with_pos1 cfg (A.project cfg.b t0 [ ("iter", "bind"); ("item", "item") ])
  in
  let env_b =
    { loop = domain_loop;
      depth = 1;
      maps = [ (0, map0) ];
      maps_target = domain_loop.A.id;
      vars =
        (var, { plan = vplan; bound_depth = 1; bound_loop = domain_loop.A.id;
                singleton = true })
        :: List.filter (fun (_, bd) -> bd.bound_depth = 0) env_cur.vars;
      parent = Some env0 }
  in
  let qb = compile cfg env_b b in
  let qa = compile cfg env_cur a in
  let l =
    let x = A.fun1 cfg.b (pi2 cfg qa) "va" A.P_atomize "item" in
    A.project cfg.b x [ ("iter", "iter"); ("va", "va") ]
  in
  let r =
    let x = A.fun1 cfg.b (pi2 cfg qb) "vb" A.P_atomize "item" in
    A.project cfg.b x [ ("bindb", "iter"); ("vb", "vb") ]
  in
  (* THE join: (outer iteration, domain binding) pairs that satisfy the
     comparison, deduplicated (existential semantics) *)
  let pairs = A.thetajoin cfg.b l r "va" (gen_prim op) "vb" in
  let pairs = A.distinct cfg.b (A.project cfg.b pairs [ ("iter", "iter"); ("bindb", "bindb") ]) in
  (* recover sequence positions in D for the ordered tuple numbering *)
  let t0pos = A.project cfg.b t0 [ ("bind2", "bind"); ("pos", "pos") ] in
  let pairs_pos = A.join cfg.b pairs t0pos "bindb" "bind2" in
  let t =
    if bind_ordered then
      A.rownum cfg.b pairs_pos "bind3" [ ("iter", A.Asc); ("pos", A.Asc) ] None
    else A.rowid cfg.b pairs_pos "bind3"
  in
  let inner_loop = A.project cfg.b t [ ("iter", "bind3") ] in
  let map_new = A.project cfg.b t [ ("outer", "iter"); ("inner", "bind3") ] in
  let titems = A.project cfg.b t0 [ ("bind4", "bind"); ("item", "item") ] in
  let vplan_inner =
    with_pos1 cfg
      (A.project cfg.b
         (A.join cfg.b
            (A.project cfg.b t [ ("bind3", "bind3"); ("bindb", "bindb") ])
            titems "bindb" "bind4")
         [ ("iter", "bind3"); ("item", "item") ])
  in
  push_loop cfg env_cur inner_loop map_new [ (var, (vplan_inner, true)) ]

and compile_flwor cfg env (f : flwor) =
  let f = Option.value ~default:f (predicate_join cfg env f) in
  let d0 = env.depth in
  let bind_ordered =
    (not cfg.unordered_rules)
    || (f.mode = Xquery.Ast.Ordered && f.order_by = [])
  in
  (* Join isolation, compile-level half: a joinable where may slide left
     past let clauses that neither bind its free variables nor are bound
     over by it, making it adjacent to the for so [compile_join_for]
     fires (Q9's for-let-where shape). The slid-over lets then compile
     under the join-filtered inner loop — their definitions are evaluated
     only for surviving iterations, the same dynamic-error latitude
     (XQuery 2.3.4) the predicate reordering of join recognition itself
     already uses. Result and order are unchanged: a where only restricts
     the iteration set, and a let neither adds, drops nor reorders
     iterations. With [join_isolation] off the scan stops at the first
     non-where clause, which is exactly the old adjacent-only behavior. *)
  let isolated_join env_cur fc rest =
    let rec scan lets = function
      | CWhere cond :: rest' -> (
        let clear =
          List.for_all
            (function
              | CLet { var; _ } -> not (SS.mem var (free_vars cond))
              | _ -> false)
            lets
        in
        match (if clear then joinable_where cfg env_cur fc cond else None) with
        | Some spec -> Some (spec, List.rev_append lets rest')
        | None -> None)
      | (CLet _ as cl) :: rest' when cfg.join_isolation ->
        scan (cl :: lets) rest'
      | _ -> None
    in
    scan [] rest
  in
  let rec process env_cur clauses =
    match clauses with
    | (CFor _ as fc) :: rest -> (
      match isolated_join env_cur fc rest with
      | Some (spec, rest') ->
        process (compile_join_for cfg env_cur ~bind_ordered spec) rest'
      | None -> process (step_clause env_cur fc) rest)
    | cl :: rest -> process (step_clause env_cur cl) rest
    | [] -> env_cur
  and step_clause env_cur cl =
    (match cl with
         | CLet { var; def } ->
           let plan = compile cfg env_cur def in
           { env_cur with
             vars =
               (var, { plan; bound_depth = env_cur.depth;
                       bound_loop = env_cur.loop.A.id;
                       singleton = static_single env_cur def })
               :: env_cur.vars }
         | CWhere cond ->
           let qc = pi2 cfg (compile cfg env_cur cond) in
           let loop' = A.project cfg.b (A.select cfg.b qc "item") [ ("iter", "iter") ] in
           { env_cur with loop = loop' }
         | CFor { var; pos_var; domain; reverse_pos } ->
           let qd = pi_ipi cfg (compile cfg env_cur domain) in
           (* Rule BIND (%) vs BIND# (#) *)
           let t =
             if bind_ordered then
               A.rownum cfg.b qd "bind" [ ("iter", A.Asc); ("pos", A.Asc) ] None
             else A.rowid cfg.b qd "bind"
           in
           (* positional variable: dense per-iteration numbering (reverse
              document order for predicates on reverse axes) *)
           let t =
             match pos_var with
             | None -> t
             | Some _ ->
               let dir = if reverse_pos then A.Desc else A.Asc in
               A.rownum cfg.b t "p" [ ("pos", dir) ] (Some "iter")
           in
           let inner_loop = A.project cfg.b t [ ("iter", "bind") ] in
           let map_new = A.project cfg.b t [ ("outer", "iter"); ("inner", "bind") ] in
           let var_plan =
             with_pos1 cfg (A.project cfg.b t [ ("iter", "bind"); ("item", "item") ])
           in
           let new_vars =
             (var, (var_plan, true))
             :: (match pos_var with
                 | None -> []
                 | Some p ->
                   [ (p,
                      (with_pos1 cfg
                         (A.project cfg.b t [ ("iter", "bind"); ("item", "p") ]),
                       true)) ])
           in
           push_loop cfg env_cur inner_loop map_new new_vars)
  in
  let env_final = process env f.clauses in
  let q_ret = pi_ipi cfg (compile cfg env_final f.return_) in
  if env_final.depth = d0 then begin
    (* let/where only: restrict the result to surviving iterations *)
    if env_final.loop == env.loop then q_ret
    else pi_ipi cfg (A.semijoin cfg.b q_ret env_final.loop [ ("iter", "iter") ])
  end
  else begin
    (* map the inner result back to the outer loop and number it:
       %pos1:<inner,pos>||outer (interaction 4, iter->seq) — or by the
       order by keys (context (f) of the paper) *)
    let map_full =
      if d0 = 0 && not (List.mem_assoc 0 env_final.maps) then
        (* depth 0: outer iteration is the constant 1 *)
        A.attach cfg.b env_final.loop "outer"  (Value.Int 1)
        |> fun m -> A.project cfg.b m [ ("outer", "outer"); ("inner", "iter") ]
      else
        match List.assoc_opt d0 env_final.maps with
        | Some m -> m
        | None -> Err.internal "missing flwor map"
    in
    (* restrict the map to live inner iterations (where clauses may have
       shrunk the innermost loop) *)
    let map_full =
      A.project cfg.b
        (A.join cfg.b map_full env_final.loop "inner" "iter")
        [ ("outer", "outer"); ("inner", "inner") ]
    in
    let j = A.join cfg.b map_full (A.project cfg.b q_ret [ ("iter2", "iter"); ("pos", "pos"); ("item", "item") ]) "inner" "iter2" in
    let order_keys, j =
      if f.order_by = [] then ([ ("inner", A.Asc); ("pos", A.Asc) ], j)
      else begin
        (* compute each key per inner iteration, with empty handling *)
        let _, keys_rev, j' =
          List.fold_left
            (fun (i, acc, jacc) (kexpr, dir, empty) ->
               let kq =
                 singleton_of cfg env_final kexpr (compile cfg env_final kexpr)
               in
               let kq = A.fun1 cfg.b kq "kv" A.P_atomize "item" in
               let kcol = Printf.sprintf "key%d" i in
               let fcol = Printf.sprintf "flag%d" i in
               let icol = Printf.sprintf "ki%d" i in
               let present =
                 A.project cfg.b
                   (A.attach cfg.b kq fcol (Value.Int 0))
                   [ (icol, "iter"); (kcol, "kv"); (fcol, fcol) ]
               in
               let missing =
                 A.antijoin cfg.b env_final.loop kq [ ("iter", "iter") ]
               in
               let flag_val =
                 match empty with
                 | Xquery.Ast.Empty_greatest -> Value.Int 1
                 | Xquery.Ast.Empty_least -> Value.Int (-1)
               in
               let absent =
                 A.project cfg.b
                   (A.attach cfg.b
                      (A.attach cfg.b missing kcol (Value.Int 0))
                      fcol flag_val)
                   [ (icol, "iter"); (kcol, kcol); (fcol, fcol) ]
               in
               let ktab = A.union cfg.b present absent in
               let jacc = A.join cfg.b jacc ktab "inner" icol in
               let adir = match dir with
                 | Xquery.Ast.Ascending -> A.Asc
                 | Xquery.Ast.Descending -> A.Desc
               in
               (i + 1, (kcol, adir) :: (fcol, adir) :: acc, jacc))
            (0, [], j) f.order_by
        in
        (List.rev keys_rev @ [ ("inner", A.Asc); ("pos", A.Asc) ], j')
      end
    in
    let numbered = A.rownum cfg.b j "pos1" order_keys (Some "outer") in
    A.project cfg.b numbered
      [ ("iter", "outer"); ("pos", "pos1"); ("item", "item") ]
  end

and compile_call cfg env f args =
  let arg i = List.nth args i in
  let c i = compile cfg env (arg i) in
  match f with
  | "doc" ->
    let q = singleton_col cfg (c 0) "item" in
    with_pos1 cfg (A.doc cfg.b q)
  | "count" -> with_pos1 cfg (grouped_count cfg env (c 0))
  | "sum" ->
    let a = A.fun1 cfg.b (pi2 cfg (c 0)) "v" A.P_atomize "item" in
    let s = A.aggr cfg.b a "item" A.A_sum (Some "v") (Some "iter") None in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Int 0))
  | "max" | "min" | "avg" ->
    let agg = match f with "max" -> A.A_max | "min" -> A.A_min | _ -> A.A_avg in
    let a = A.fun1 cfg.b (pi2 cfg (c 0)) "v" A.P_atomize "item" in
    let s = A.aggr cfg.b a "item" agg (Some "v") (Some "iter") None in
    with_pos1 cfg (A.project cfg.b s [ ("iter", "iter"); ("item", "item") ])
  | "empty" ->
    with_pos1 cfg
      (presence cfg env ~present_value:(Value.Bool false)
         ~absent_value:(Value.Bool true) (pi2 cfg (c 0)))
  | "exists" ->
    with_pos1 cfg
      (presence cfg env ~present_value:(Value.Bool true)
         ~absent_value:(Value.Bool false) (pi2 cfg (c 0)))
  | "not" ->
    let e = ebv_table cfg env (c 0) in
    let n = A.fun1 cfg.b e "nitem" A.P_not "item" in
    with_pos1 cfg (A.project cfg.b n [ ("iter", "iter"); ("item", "nitem") ])
  | "boolean" | "fs:ebv" -> with_pos1 cfg (ebv_table cfg env (c 0))
  | "distinct-values" ->
    let a = A.fun1 cfg.b (pi2 cfg (c 0)) "v" A.P_atomize "item" in
    let d = A.distinct cfg.b (A.project cfg.b a [ ("iter", "iter"); ("item", "v") ]) in
    (* implementation-defined order: # in either mode *)
    pi_ipi cfg (A.rowid cfg.b d "pos")
  | "data" ->
    let a = A.fun1 cfg.b (pi_ipi cfg (c 0)) "v" A.P_atomize "item" in
    A.project cfg.b a [ ("iter", "iter"); ("pos", "pos"); ("item", "v") ]
  | "string" ->
    let s = singleton_col cfg (c 0) "v" in
    let s = A.fun1 cfg.b s "item" A.P_cast_str "v" in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Str ""))
  | "string-length" | "normalize-space" | "upper-case" | "lower-case" ->
    let prim =
      match f with
      | "string-length" -> A.P_string_length
      | "normalize-space" -> A.P_normalize_space
      | "upper-case" -> A.P_upper
      | _ -> A.P_lower
    in
    let dflt = if f = "string-length" then Value.Int 0 else Value.Str "" in
    let s = singleton_col cfg (c 0) "v" in
    let s = A.fun1 cfg.b s "item" prim "v" in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s dflt)
  | "concat" | "contains" | "starts-with" | "ends-with"
  | "substring-before" | "substring-after" ->
    let prim = match f with
      | "concat" -> A.P_concat
      | "contains" -> A.P_contains
      | "starts-with" -> A.P_starts_with
      | "ends-with" -> A.P_ends_with
      | "substring-before" -> A.P_substr_before
      | _ -> A.P_substr_after
    in
    let s1 =
      let t = singleton_col cfg (c 0) "v1" in
      let t = A.project cfg.b t [ ("iter", "iter"); ("item", "v1") ] in
      fill_default cfg env t (Value.Str "")
    in
    let s2 =
      let t = singleton_col cfg (c 1) "v2" in
      let t = A.project cfg.b t [ ("iter", "iter"); ("item", "v2") ] in
      fill_default cfg env t (Value.Str "")
    in
    let l = A.project cfg.b s1 [ ("iter", "iter"); ("v1", "item") ] in
    let r = A.project cfg.b s2 [ ("iter2", "iter"); ("v2", "item") ] in
    let j = A.join cfg.b l r "iter" "iter2" in
    let x = A.fun2 cfg.b j "item" prim "v1" "v2" in
    with_pos1 cfg (A.project cfg.b x [ ("iter", "iter"); ("item", "item") ])
  | "string-join" ->
    let sep =
      match arg 1 with
      | C_str s -> s
      | _ -> Err.static "fn:string-join: the separator must be a string literal"
    in
    let q = pi_ipi cfg (c 0) in
    let a = A.fun1 cfg.b q "v" A.P_atomize "item" in
    let s = A.aggr cfg.b a "item" (A.A_str_join sep) (Some "v") (Some "iter") (Some "pos") in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Str ""))
  | "fs:joinws" ->
    let q = pi_ipi cfg (c 0) in
    let a = A.fun1 cfg.b q "v" A.P_atomize "item" in
    let s = A.aggr cfg.b a "item" (A.A_str_join " ") (Some "v") (Some "iter") (Some "pos") in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Str ""))
  | "number" ->
    let s = singleton_col cfg (c 0) "v" in
    let s = A.fun1 cfg.b s "item" A.P_number "v" in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Dbl Float.nan))
  | "reverse" ->
    let q = pi_ipi cfg (c 0) in
    let n = A.rownum cfg.b q "pos2" [ ("pos", A.Desc) ] (Some "iter") in
    A.project cfg.b n [ ("iter", "iter"); ("pos", "pos2"); ("item", "item") ]
  | "subsequence" ->
    let q = pi_ipi cfg (c 0) in
    (* dense per-iteration positions *)
    let n = A.rownum cfg.b q "p" [ ("pos", A.Asc) ] (Some "iter") in
    let start =
      let s = singleton_col cfg (c 1) "v" in
      let s = A.fun1 cfg.b s "sv" A.P_cast_dbl "v" in
      let s = A.fun1 cfg.b s "sr" A.P_round "sv" in
      A.project cfg.b s [ ("iter2", "iter"); ("sr", "sr") ]
    in
    let j = A.join cfg.b n start "iter" "iter2" in
    let ge = A.fun2 cfg.b j "keep1" A.P_ge "p" "sr" in
    let filtered1 = A.select cfg.b ge "keep1" in
    let final =
      if List.length args = 3 then begin
        let len =
          let s = singleton_col cfg (c 2) "v" in
          let s = A.fun1 cfg.b s "lv" A.P_cast_dbl "v" in
          A.project cfg.b s [ ("iter3", "iter"); ("lv", "lv") ]
        in
        let j2 = A.join cfg.b filtered1 len "iter" "iter3" in
        let hi = A.fun2 cfg.b j2 "hi" A.P_add "sr" "lv" in
        let lt = A.fun2 cfg.b hi "keep2" A.P_lt "p" "hi" in
        A.select cfg.b lt "keep2"
      end
      else filtered1
    in
    A.project cfg.b final [ ("iter", "iter"); ("pos", "p"); ("item", "item") ]
  | "round" | "floor" | "ceiling" | "abs" ->
    let prim = match f with
      | "round" -> A.P_round | "floor" -> A.P_floor
      | "ceiling" -> A.P_ceiling | _ -> A.P_abs
    in
    let s = singleton_col cfg (c 0) "v" in
    let s = A.fun1 cfg.b s "item" prim "v" in
    with_pos1 cfg (A.project cfg.b s [ ("iter", "iter"); ("item", "item") ])
  | "name" | "local-name" ->
    let prim = if f = "name" then A.P_name else A.P_local_name in
    let q = pi2 cfg (c 0) in
    let s = A.fun1 cfg.b q "n" prim "item" in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "n") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Str ""))
  | "true" -> const_under cfg env.loop (Value.Bool true)
  | "false" -> const_under cfg env.loop (Value.Bool false)
  | "zero-or-one" | "exactly-one" | "one-or-more" ->
    let prim = match f with
      | "zero-or-one" -> A.P_check_zero_one
      | "exactly-one" -> A.P_check_exactly_one
      | _ -> A.P_check_one_or_more
    in
    let q = pi_ipi cfg (c 0) in
    let cnt = grouped_count cfg env q in
    let chk = A.fun1 cfg.b cnt "ok" prim "item" in
    let ok = A.project cfg.b (A.select cfg.b chk "ok") [ ("iter", "iter") ] in
    pi_ipi cfg (A.semijoin cfg.b q ok [ ("iter", "iter") ])
  | "substring" | "translate" ->
    (* ternary string functions over per-iteration singletons *)
    let s1 = singleton_col cfg (c 0) "v1" in
    let s2 =
      let a = A.fun1 cfg.b (the_singleton cfg (c 1)) "a" A.P_atomize "item" in
      A.project cfg.b a [ ("iter2", "iter"); ("v2", "a") ]
    in
    let j = A.join cfg.b s1 s2 "iter" "iter2" in
    let j3 =
      if f = "substring" && List.length args = 2 then
        (* missing length: +INF selects everything from start on *)
        A.attach cfg.b j "v3" (Value.Dbl infinity)
      else begin
        let s3 =
          let a = A.fun1 cfg.b (the_singleton cfg (c 2)) "a" A.P_atomize "item" in
          A.project cfg.b a [ ("iter3", "iter"); ("v3", "a") ]
        in
        A.project cfg.b (A.join cfg.b j s3 "iter" "iter3")
          [ ("iter", "iter"); ("v1", "v1"); ("v2", "v2"); ("v3", "v3") ]
      end
    in
    let prim = if f = "substring" then A.P3_substring else A.P3_translate in
    let x = A.fun3 cfg.b j3 "item" prim "v1" "v2" "v3" in
    let x = A.project cfg.b x [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env x (Value.Str ""))
  | "fs:serialize-seq" ->
    (* item-wise XML serialization joined in sequence order — the carrier
       of the pragmatic fn:deep-equal *)
    let q = pi_ipi cfg (c 0) in
    let a = A.fun1 cfg.b q "v" A.P_serialize "item" in
    let s = A.aggr cfg.b a "item" (A.A_str_join "\x1f") (Some "v") (Some "iter") (Some "pos") in
    let s = A.project cfg.b s [ ("iter", "iter"); ("item", "item") ] in
    with_pos1 cfg (fill_default cfg env s (Value.Str ""))
  | "remove" ->
    (* drop the item at (dense) position p; out-of-range p drops nothing.
       The position is an xs:integer ([Value.position]) *)
    let q = pi_ipi cfg (c 0) in
    let n = A.rownum cfg.b q "dp" [ ("pos", A.Asc) ] (Some "iter") in
    let pcol =
      let a = A.fun1 cfg.b (the_singleton cfg (c 1)) "a" A.P_atomize "item" in
      let a = A.fun1 cfg.b a "p" A.P_position "a" in
      A.project cfg.b a [ ("iter2", "iter"); ("p", "p") ]
    in
    let j = A.join cfg.b n pcol "iter" "iter2" in
    let ne = A.fun2 cfg.b j "keep" A.P_ne "dp" "p" in
    let sel = A.select cfg.b ne "keep" in
    A.project cfg.b sel [ ("iter", "iter"); ("pos", "dp"); ("item", "item") ]
  | "insert-before" ->
    (* inserted items land at key p - 0.5, strictly between the dense
       positions p-1 and p of the target (clamping falls out for free);
       the position p is an xs:integer ([Value.position]) *)
    let q = pi_ipi cfg (c 0) in
    let n = A.rownum cfg.b q "dp" [ ("pos", A.Asc) ] (Some "iter") in
    let target =
      A.project cfg.b (A.attach cfg.b n "k2" (Value.Int 0))
        [ ("iter", "iter"); ("k1", "dp"); ("k2", "k2"); ("item", "item") ]
    in
    let pcol =
      let a = A.fun1 cfg.b (the_singleton cfg (c 1)) "a" A.P_atomize "item" in
      let a = A.fun1 cfg.b a "p" A.P_position "a" in
      let a = A.attach cfg.b a "half" (Value.Dbl 0.5) in
      let a = A.fun2 cfg.b a "k1" A.P_sub "p" "half" in
      A.project cfg.b a [ ("iter2", "iter"); ("k1", "k1") ]
    in
    let ins = pi_ipi cfg (c 2) in
    let ins = A.project cfg.b ins [ ("iter3", "iter"); ("k2", "pos"); ("item", "item") ] in
    let ins_keyed =
      A.project cfg.b (A.join cfg.b pcol ins "iter2" "iter3")
        [ ("iter", "iter2"); ("k1", "k1"); ("k2", "k2"); ("item", "item") ]
    in
    let u = A.union cfg.b target ins_keyed in
    let renum = A.rownum cfg.b u "pos2" [ ("k1", A.Asc); ("k2", A.Asc) ] (Some "iter") in
    A.project cfg.b renum [ ("iter", "iter"); ("pos", "pos2"); ("item", "item") ]
  | "id" ->
    let vals = pi2 cfg (c 0) in
    let ctxn = the_singleton cfg (c 1) in
    let looked = A.id_lookup cfg.b vals ctxn in
    (* document order determines sequence order, as after a step *)
    number_by_doc_order cfg ~ordered:true looked
  | "error" ->
    (* fn:error raises for every live iteration (eagerly, like all
       loop-lifted evaluation; see the module comment) *)
    let msg =
      if args = [] then const_under cfg env.loop (Value.Str "fn:error()")
      else c (List.length args - 1)
    in
    let m = singleton_col cfg msg "m" in
    let e' = A.fun1 cfg.b m "x" A.P_error "m" in
    (* the (never-produced) error value is the result item, so column
       dependency analysis can never prune the raising operator *)
    with_pos1 cfg
      (A.project cfg.b e' [ ("iter", "iter"); ("item", "x") ])
  | _ -> Err.static "compiler: unknown function %s/%d" f (List.length args)

(* ------------------------------------------------------------- entry point *)

(* Compile a whole Core expression; the result plan yields the query result
   as an iter|pos|item table with iter = 1. *)
let compile_core ?(cfg = default_cfg ()) core =
  let env = initial_env cfg in
  (cfg, compile cfg env core)

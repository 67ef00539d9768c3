(* Lowering: compile the hash-consed logical Plan DAG into the physical
   operator DAG that [Physical] executes.

   Lowering is a 1:1 map: every logical node becomes exactly one kernel,
   memoized under the node's hash-cons id, so the sharing the
   hash-consing found is preserved intact and every node's output is a
   batch of its own. A physical run therefore passes the same budget
   boundaries, and charges the same rows, as the boxed executor over the
   same plan. Each kernel is typed where [Physical] has a typed
   implementation (the step operator included), [K_boxed] (the boxed
   kernel called through table conversions) where it does not. Lowering
   is strictly post-logical: it never changes plan shapes, so the
   logical optimizer's output (and its golden tests) are untouched.

   One property analyzer ([Props]) supplies the static column types,
   which only annotate the physical plan for dumps (execution re-detects
   types dynamically), and, under [order_props], the merge hints of
   surviving sorts.

   Lowering also decides which kernels are licensed to fan out over
   morsels ([ppar]) — the plan-shape story of the paper, mapped onto the
   executor: Rowid is the [#] shape (order immaterial — dense renumbering
   at the end), Rownum is the [%] shape (an order the query can observe),
   so the per-row select/attach/fun kernels, join and semijoin probes and
   the order-indifferent aggregates (count/sum/min/max) parallelize,
   while Rownum — and everything whose matching logic is inherently
   sequential (Distinct's first-wins dedup, any hash build that is itself
   the output, Union's append, the loop-lifted step's run-by-run walk) or
   boxed — stays serial. *)

let label_of (n : Plan.node) =
  if n.Plan.label = "" then Plan.op_symbol n.Plan.op else n.Plan.label

(* Order-indifference licence per kernel (see the module comment). A
   build-left join runs serial: its accumulation order is the build of
   the output itself, not a probe that can be sliced into morsels.
   A standalone [#] stamp fans out: the dense path is O(1) and the
   scattered path writes disjoint, index-determined slots per morsel —
   this is what makes sort-elision (% becoming #) widen the ∥ fraction
   of the plan, not just remove a sort. *)
let parallelizable (pop : Physical.pop) =
  match pop with
  | Physical.K_join { build_left = true; _ }
  | Physical.K_semijoin { build_left = true; _ } -> false
  | Physical.K_select _ | Physical.K_attach _ | Physical.K_fun1 _
  | Physical.K_fun2 _ | Physical.K_fun3 _ | Physical.K_join _
  | Physical.K_thetajoin _ | Physical.K_semijoin _ | Physical.K_rowid _ ->
    true
  | Physical.K_aggr { agg; _ } -> (
    match agg with
    | Plan.A_count | Plan.A_sum | Plan.A_min | Plan.A_max -> true
    | _ -> false)
  | Physical.K_project _ | Physical.K_distinct | Physical.K_union
  | Physical.K_rownum _ | Physical.K_step _ | Physical.K_boxed _ -> false

let lower ?card ?(order_props = true) ?(props = Props.make ())
    (root : Plan.node) : Physical.pnode =
  (* Cardinality estimates pick the hash-join build side: build on the
     left when it is estimated (with margin) smaller than the right. A
     wrong estimate costs time, never correctness — both builds emit the
     same pair order. *)
  let build_left_of left right =
    match card with
    | None -> false
    | Some est -> 2 * est left < est right
  in
  let types n =
    List.map (fun c -> (c, Props.col_ty props n c))
      (Props.SSet.elements (Props.schema props n))
  in
  (* A surviving % whose input the analysis proves piecewise sorted (k
     runs) gets a merge hint: the kernel verifies the runs and merges
     instead of sorting. The hint is advisory — a wrong count falls back
     to the full sort. *)
  let merge_hint input order part =
    if not order_props then None
    else
      Props.sorted_runs props input
        ((match part with Some p -> [ (p, Plan.Asc) ] | None -> []) @ order)
  in
  let memo : (int, Physical.pnode) Hashtbl.t = Hashtbl.create 256 in
  let rec go (n : Plan.node) : Physical.pnode =
    match Hashtbl.find_opt memo n.Plan.id with
    | Some p -> p
    | None ->
      let pop =
        match n.Plan.op with
        | Plan.Select { col; _ } -> Physical.K_select col
        | Plan.Attach { res; value; _ } -> Physical.K_attach (res, value)
        | Plan.Fun1 { res; f; arg; _ } -> Physical.K_fun1 (res, f, arg)
        | Plan.Fun2 { res; f; arg1; arg2; _ } ->
          Physical.K_fun2 (res, f, arg1, arg2)
        | Plan.Fun3 { res; f; arg1; arg2; arg3; _ } ->
          Physical.K_fun3 (res, f, arg1, arg2, arg3)
        | Plan.Project { cols; _ } -> Physical.K_project cols
        | Plan.Distinct _ -> Physical.K_distinct
        | Plan.Union _ -> Physical.K_union
        | Plan.Rowid { res; _ } -> Physical.K_rowid res
        | Plan.Rownum { input; res; order; part } ->
          Physical.K_rownum
            { res; order; part; merge_hint = merge_hint input order part }
        | Plan.Join { left; right; lcol; rcol } ->
          Physical.K_join { lcol; rcol; build_left = build_left_of left right }
        | Plan.Thetajoin { lcol; cmp; rcol; _ } ->
          Physical.K_thetajoin { lcol; cmp; rcol }
        | Plan.Semijoin { left; right; on } ->
          Physical.K_semijoin
            { anti = false; on; build_left = build_left_of left right }
        | Plan.Antijoin { left; right; on } ->
          Physical.K_semijoin
            { anti = true; on; build_left = build_left_of left right }
        | Plan.Aggr { res; agg; arg; part; order; _ } ->
          Physical.K_aggr { res; agg; arg; part; order }
        | Plan.Step { axis; test; _ } -> Physical.K_step { axis; test }
        | op ->
          (* Lit, Cross, node construction, Range, Textify, Id_lookup,
             Doc: boxed kernels over converted inputs *)
          Physical.K_boxed op
      in
      let p =
        { Physical.pid = n.Plan.id;
          pop;
          pinputs = List.map go (Plan.children n.Plan.op);
          plabel = label_of n;
          ptypes = types n;
          ppar = parallelizable pop }
      in
      Hashtbl.add memo n.Plan.id p;
      p
  in
  go root

(* Distinct kernels in the physical DAG (each shared kernel counted once). *)
let count_kernels (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let rec go (p : Physical.pnode) =
    if not (Hashtbl.mem seen p.Physical.pid) then begin
      Hashtbl.add seen p.Physical.pid ();
      List.iter go p.Physical.pinputs
    end
  in
  go root;
  Hashtbl.length seen

(* Kernels licensed for morsel parallelism (each counted once). *)
let count_parallel (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec go (p : Physical.pnode) =
    if not (Hashtbl.mem seen p.Physical.pid) then begin
      Hashtbl.add seen p.Physical.pid ();
      if p.Physical.ppar then incr total;
      List.iter go p.Physical.pinputs
    end
  in
  go root;
  !total

(* Physical-plan dump: one node per line, indentation for structure,
   [^id] back-references for shared kernels, column-type annotations from
   the static hints. *)
let pp fmt (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let rec go indent (p : Physical.pnode) =
    if Hashtbl.mem seen p.Physical.pid then
      Format.fprintf fmt "%s^%d (shared)@\n" indent p.Physical.pid
    else begin
      Hashtbl.add seen p.Physical.pid ();
      (* equality comparisons whose operands are statically strings are
         code-eval candidates: at run time they translate the comparand
         into the fragment's dictionary code once and compare machine
         ints per row (unless --no-code-eval, or the operand column
         turns out not to carry codes). The stamp covers every shape
         the optimizer can leave the equality in: a [fun2] predicate, a
         hash-join or semijoin key, or an eq thetajoin. *)
      let tyof c = List.assoc_opt c p.Physical.ptypes in
      let str c = tyof c = Some Column.T_str in
      let detail =
        match p.Physical.pop with
        | Physical.K_select c -> Printf.sprintf " [σ(%s)]" c
        | Physical.K_attach (res, v) ->
          Format.asprintf " [@%s:=%a]" res Value.pp v
        | Physical.K_fun1 (res, _, a) -> Printf.sprintf " [%s:=f1(%s)]" res a
        | Physical.K_fun2 (res, f, a1, a2) ->
          Printf.sprintf " [%s:=f2(%s,%s)]%s" res a1 a2
            (match f with
             | (Plan.P_eq | Plan.P_ne) when str a1 || str a2 -> " [code]"
             | _ -> "")
        | Physical.K_fun3 (res, _, a1, a2, a3) ->
          Printf.sprintf " [%s:=f3(%s,%s,%s)]" res a1 a2 a3
        | Physical.K_thetajoin { lcol; cmp = Plan.P_eq; rcol }
          when str lcol || str rcol -> " [code]"
        | Physical.K_join { lcol; rcol; _ } when str lcol || str rcol ->
          " [code]"
        | Physical.K_semijoin { on = [ (lc, _) ]; _ } when str lc ->
          " [code]"
        | Physical.K_step { axis; test } ->
          Printf.sprintf " [%s::%s]" (Xmldb.Axis.to_string axis)
            (Plan_pp.ntest_str test)
        | _ -> ""
      in
      let tys =
        match p.Physical.ptypes with
        | [] -> ""
        | l ->
          " {"
          ^ String.concat ", "
              (List.map
                 (fun (c, ty) -> c ^ ":" ^ Column.ty_name ty)
                 (List.filter (fun (_, ty) -> ty <> Column.T_mixed) l))
          ^ "}"
      in
      let tys = if tys = " {}" then "" else tys in
      Format.fprintf fmt "%s[%d] %s%s%s%s@\n" indent p.Physical.pid
        (Physical.pop_name p.Physical.pop)
        (if p.Physical.ppar then " \xE2\x88\xA5" else "")
        detail tys;
      List.iter (go (indent ^ "  ")) p.Physical.pinputs
    end
  in
  go "" root

let to_string root = Format.asprintf "%a" pp root

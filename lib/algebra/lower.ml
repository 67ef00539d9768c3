(* The physical view of a plan, for [xrquy plan]: which kernel [Physical]
   runs for every node, which kernels may fan out over morsels, and the
   column types the property analysis proves.

   [Physical] executes the optimized plan as it is, one kernel per node
   ([Physical.kernel_name]), so this module only reads the plan. Every
   data-dependent choice is left to the kernels, which observe their
   input: an equality match picks aligned, merged or hashed from its
   keys, and a surviving [%] merges input that arrives in few sorted
   runs. The column types are annotations only; execution re-detects
   types dynamically. *)

(* Distinct kernels in the plan (each shared node counted once). *)
let count_kernels = Plan.count_ops

(* Kernels licensed for morsel parallelism (each counted once). *)
let count_parallel (root : Plan.node) =
  List.length
    (List.filter
       (fun (n : Plan.node) -> Physical.parallelizable n.Plan.op)
       (Plan.topo_order root))

(* Physical-plan dump: one node per line, indentation for structure,
   [^id] back-references for shared kernels. *)
let pp fmt (root : Plan.node) =
  let props = Props.make () in
  let seen = Hashtbl.create 64 in
  let rec go indent (n : Plan.node) =
    if Hashtbl.mem seen n.Plan.id then
      Format.fprintf fmt "%s^%d (shared)@\n" indent n.Plan.id
    else begin
      Hashtbl.add seen n.Plan.id ();
      let types =
        List.filter_map
          (fun c ->
             match Props.col_ty props n c with
             | Column.T_mixed -> None
             | ty -> Some (c, ty))
          (Props.SSet.elements (Props.schema props n))
      in
      (* equality comparisons whose operands are statically strings are
         code-eval candidates: at run time they translate the comparand
         into the fragment's dictionary code once and compare machine
         ints per row (unless --no-code-eval, or the operand column
         turns out not to carry codes). The stamp covers every shape
         the optimizer can leave the equality in: a [fun2] predicate, a
         hash-join or semijoin key, or an eq thetajoin. *)
      let str c = List.assoc_opt c types = Some Column.T_str in
      let detail =
        match n.Plan.op with
        | Plan.Select { col; _ } -> Printf.sprintf " [σ(%s)]" col
        | Plan.Attach { res; value; _ } ->
          Format.asprintf " [@%s:=%a]" res Value.pp value
        | Plan.Fun1 { res; arg; _ } -> Printf.sprintf " [%s:=f1(%s)]" res arg
        | Plan.Fun2 { res; f; arg1; arg2; _ } ->
          Printf.sprintf " [%s:=f2(%s,%s)]%s" res arg1 arg2
            (match f with
             | (Plan.P_eq | Plan.P_ne) when str arg1 || str arg2 -> " [code]"
             | _ -> "")
        | Plan.Fun3 { res; arg1; arg2; arg3; _ } ->
          Printf.sprintf " [%s:=f3(%s,%s,%s)]" res arg1 arg2 arg3
        | Plan.Thetajoin { lcol; cmp = Plan.P_eq; rcol; _ }
          when str lcol || str rcol -> " [code]"
        | Plan.Join { lcol; rcol; _ } when str lcol || str rcol -> " [code]"
        | (Plan.Semijoin { on = [ (lc, _) ]; _ }
          | Plan.Antijoin { on = [ (lc, _) ]; _ }) when str lc -> " [code]"
        | Plan.Step { axis; test; _ } ->
          Printf.sprintf " [%s::%s]" (Xmldb.Axis.to_string axis)
            (Plan_pp.ntest_str test)
        | _ -> ""
      in
      let tys =
        if types = [] then ""
        else
          " {"
          ^ String.concat ", "
              (List.map (fun (c, ty) -> c ^ ":" ^ Column.ty_name ty) types)
          ^ "}"
      in
      Format.fprintf fmt "%s[%d] %s%s%s%s@\n" indent n.Plan.id
        (Physical.kernel_name n.Plan.op)
        (if Physical.parallelizable n.Plan.op then " \xE2\x88\xA5" else "")
        detail tys;
      List.iter (go (indent ^ "  ")) (Plan.children n.Plan.op)
    end
  in
  go "" root

let to_string root = Format.asprintf "%a" pp root

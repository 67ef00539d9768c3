(* The physical view of a plan, for [xrquy plan]: which kernel [Physical]
   runs for every node, and which kernels may fan out over morsels.

   [Physical] executes the optimized plan as it is, one kernel per node
   ([Physical.kernel_name]), so this module only reads the plan. Every
   data-dependent choice is left to the kernels, which observe their
   input: an equality match picks aligned, merged or hashed from its
   keys, a string equality compares store text ids when a column
   carries them, and a surviving [%] merges input that arrives in few
   sorted runs. *)

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
  let seen = Hashtbl.create 64 in
  let rec go indent (n : Plan.node) =
    if Hashtbl.mem seen n.Plan.id then
      Format.fprintf fmt "%s^%d (shared)@\n" indent n.Plan.id
    else begin
      Hashtbl.add seen n.Plan.id ();
      let detail =
        match n.Plan.op with
        | Plan.Select { col; _ } -> Printf.sprintf " [σ(%s)]" col
        | Plan.Attach { res; value; _ } ->
          Format.asprintf " [@%s:=%a]" res Value.pp value
        | Plan.Fun1 { res; arg; _ } -> Printf.sprintf " [%s:=f1(%s)]" res arg
        | Plan.Fun2 { res; arg1; arg2; _ } ->
          Printf.sprintf " [%s:=f2(%s,%s)]" res arg1 arg2
        | Plan.Fun3 { res; arg1; arg2; arg3; _ } ->
          Printf.sprintf " [%s:=f3(%s,%s,%s)]" res arg1 arg2 arg3
        | Plan.Step { axis; test; _ } ->
          Printf.sprintf " [%s::%s]" (Xmldb.Axis.to_string axis)
            (Plan_pp.ntest_str test)
        | _ -> ""
      in
      Format.fprintf fmt "%s[%d] %s%s%s@\n" indent n.Plan.id
        (Physical.kernel_name n.Plan.op)
        (if Physical.parallelizable n.Plan.op then " \xE2\x88\xA5" else "")
        detail;
      List.iter (go (indent ^ "  ")) (Plan.children n.Plan.op)
    end
  in
  go "" root

let to_string root = Format.asprintf "%a" pp root

(* The boxed logical executor: evaluates an algebra DAG bottom-up,
   memoizing every node's result table by node id, so the sharing in
   Pathfinder's emitted DAGs (paper Section 3) translates into single
   evaluation. The engine executes on [Physical]; this module is the
   reference the tests compare the physical kernels against, row for
   row.

   The engine is "inherently unordered": no operator promises any row
   order; all order semantics live in explicit pos/iter columns. The one
   cost asymmetry the paper's results hinge on is implemented faithfully:
   [Rownum] ("%") sorts its input, [Rowid] ("#") just stamps a counter.

   The per-operator table implementations live in [Kernels]; this module
   is the policy layer — memoization, Dag/Tree sharing semantics, budget
   enforcement, and profiling. *)

open Basis
open Plan

type step_impl = Scan | Tag_index

(* [Dag] memoizes every node's result by hash-cons id, so shared subplans
   are computed (and their cost charged) exactly once. [Tree] walks the
   plan as if it were a tree, re-evaluating shared subtrees on every
   reference — the differential-testing oracle for the sharing machinery
   and the honest cost model of a sharing-oblivious executor. *)
type mode = Dag | Tree

type ctx = {
  env : Kernels.env;
  cache : (int, Table.t) Hashtbl.t;
  mode : mode;
  mutable evals : int;  (* node evaluations performed (cache hits excluded) *)
  profile : Profile.t option;
  guard : Budget.t option;  (* resource governor, checked per operator *)
}

let create ?profile ?guard ?(step_impl = Scan) ?(mode = Dag) store =
  let tag_index =
    match step_impl with
    | Scan -> None
    | Tag_index -> Some (Xmldb.Tag_index.create store)
  in
  { env = Kernels.env ?tag_index store;
    cache = Hashtbl.create 128;
    mode;
    evals = 0;
    profile;
    guard }

let evals ctx = ctx.evals

let now = Clock.now

(* ------------------------------------------------------------ dispatcher *)

let rec eval ctx (n : node) : Table.t =
  match
    (match ctx.mode with
     | Dag -> Hashtbl.find_opt ctx.cache n.id
     | Tree -> None)
  with
  | Some t -> t
  | None ->
    (* the operator boundary: deadline / op-budget / cancellation / fault
       injection all fire here, before any work for this node. In Dag mode
       cache hits never reach it, so a node's cost is charged exactly once;
       in Tree mode every reference to a shared subtree pays again. *)
    (match ctx.guard with Some g -> Budget.check g | None -> ());
    let kids = children n.op in
    (* evaluate children first so their time is attributed to them; in
       Tree mode that pre-pass would double-evaluate, so children run
       inside the timed region below and attribution is inclusive *)
    (match ctx.mode with
     | Dag -> List.iter (fun c -> ignore (eval ctx c)) kids
     | Tree -> ());
    let t0 = match ctx.profile with Some _ -> now () | None -> 0.0 in
    ctx.evals <- ctx.evals + 1;
    let inputs = List.map (eval ctx) kids in
    let t = Kernels.eval_op ctx.env n.op inputs in
    (match ctx.guard with
     | Some g ->
       Budget.add_rows g (Table.nrows t);
       if Budget.wants_bytes g then
         Budget.add_bytes g (Table.estimated_bytes t)
     | None -> ());
    (match ctx.profile with
     | Some p ->
       let label = if n.label = "" then op_symbol n.op else n.label in
       let dt = now () -. t0 in
       Profile.add p label dt;
       Profile.add_node p n.id label dt
     | None -> ());
    (match ctx.mode with
     | Dag -> Hashtbl.add ctx.cache n.id t
     | Tree -> ());
    t

(* Evaluate a whole plan against a fresh context. *)
let run ?profile ?guard ?step_impl ?mode store root =
  let ctx = create ?profile ?guard ?step_impl ?mode store in
  eval ctx root

(* Primitive semantics, re-exported for the interpreter and tests. *)
let atomize = Kernels.atomize
let apply1 = Kernels.apply1
let apply2 = Kernels.apply2
let apply3 = Kernels.apply3

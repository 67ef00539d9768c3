(* Per-operator wall-clock profiling, the instrument behind Table 2 of the
   paper (the Q11 execution-time breakdown). The compiler labels plan nodes
   with the source sub-expression they implement; the executor adds the
   local evaluation time of every node to its label's bucket. *)

(* Per-unique-plan-node attribution, keyed by the node's hash-cons id: in
   DAG evaluation each node appears once; a tree-walking evaluation of a
   shared plan accumulates [evals > 1] on the shared nodes. *)
type node_stat = {
  nlabel : string;
  mutable evals : int;
  mutable seconds : float;
}

(* Physical-executor counters: how much work the typed-column machinery
   did and which paths it took. *)
type phys = {
  mutable kernels : int;      (* physical kernel invocations *)
  mutable fused_ops : int;    (* logical operators covered by kernels:
                                 one per plan node, so always [kernels] *)
  mutable rows_in : int;      (* input rows across all kernel invocations *)
  mutable rows_out : int;     (* output rows across all kernel invocations *)
  mutable mat_forced : int;   (* batches boxed into tables for a
                                 boxed-fallback kernel or the final
                                 serialization *)
  mutable retypes : int;      (* Mixed -> typed column conversions *)
  mutable joins_aligned : int; (* typed equality joins over identical,
                                  strictly ascending keys: no index *)
  mutable joins_merged : int; (* ... over two ascending key sequences *)
  mutable joins_hashed : int; (* ... through a flat hash index *)
  mutable theta_sorted : int; (* inequality theta joins swept over sorted
                                 typed keys *)
  mutable theta_boxed : int;  (* ... run as the boxed nested loop *)
  mutable sorts_elided : int; (* interior % nodes rewritten away because the
                                 required order was proved to already hold *)
  mutable sorts_to_merges : int; (* % sorts replaced by merges: the input
                                    arrived in at most 64 sorted runs *)
  mutable root_sort_elided : int; (* root sort-on-pos skipped: the pos
                                     column arrived non-decreasing *)
  mutable code_preds : int;   (* equality kernels evaluated as integer
                                 compares of store text ids *)
  mutable bulk_decodes : int; (* column rows the run's batched staircase
                                 scans decoded *)
  mutable late_materializations : int; (* text-id columns boxed into
                                          strings at pipeline breakers
                                          or for a consumer that needs
                                          the text *)
}

(* A profile may be observed while a morsel-parallel query is running
   (e.g. a monitoring domain rendering [pp]), and nothing stops a caller
   from sharing one profile across concurrent evaluations, so every
   mutation and every aggregating read is serialized by [mu]. The
   parallel executor itself keeps all counting on the coordinating
   domain — that, not the mutex, is what makes the counter *values*
   bit-identical to serial mode; the mutex makes any remaining
   concurrent use race-free rather than silently lossy. *)
type t = {
  mu : Mutex.t;
  buckets : (string, float ref) Hashtbl.t;
  nodes : (int, node_stat) Hashtbl.t;
  phys : phys;
}

let create () =
  { mu = Mutex.create ();
    buckets = Hashtbl.create 32;
    nodes = Hashtbl.create 64;
    phys =
      { kernels = 0; fused_ops = 0; rows_in = 0; rows_out = 0;
        mat_forced = 0; retypes = 0;
        joins_aligned = 0; joins_merged = 0; joins_hashed = 0;
        theta_sorted = 0; theta_boxed = 0;
        sorts_elided = 0; sorts_to_merges = 0; root_sort_elided = 0;
        code_preds = 0; bulk_decodes = 0;
        late_materializations = 0 } }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v -> Mutex.unlock t.mu; v
  | exception e -> Mutex.unlock t.mu; raise e

let phys t = t.phys

let add_kernel t ~rows_in ~rows_out =
  locked t (fun () ->
      let p = t.phys in
      p.kernels <- p.kernels + 1;
      p.fused_ops <- p.fused_ops + 1;
      p.rows_in <- p.rows_in + rows_in;
      p.rows_out <- p.rows_out + rows_out)

let count_mat_forced t =
  locked t (fun () -> t.phys.mat_forced <- t.phys.mat_forced + 1)

let count_retype t =
  locked t (fun () -> t.phys.retypes <- t.phys.retypes + 1)

let count_join_aligned t =
  locked t (fun () -> t.phys.joins_aligned <- t.phys.joins_aligned + 1)

let count_join_merged t =
  locked t (fun () -> t.phys.joins_merged <- t.phys.joins_merged + 1)

let count_join_hashed t =
  locked t (fun () -> t.phys.joins_hashed <- t.phys.joins_hashed + 1)

let count_theta_sorted t =
  locked t (fun () -> t.phys.theta_sorted <- t.phys.theta_sorted + 1)

let count_theta_boxed t =
  locked t (fun () -> t.phys.theta_boxed <- t.phys.theta_boxed + 1)

let add_sorts_elided t k =
  locked t (fun () -> t.phys.sorts_elided <- t.phys.sorts_elided + k)

let count_sort_merge t =
  locked t (fun () -> t.phys.sorts_to_merges <- t.phys.sorts_to_merges + 1)

let count_root_sort_elided t =
  locked t (fun () -> t.phys.root_sort_elided <- t.phys.root_sort_elided + 1)

let count_code_pred t =
  locked t (fun () -> t.phys.code_preds <- t.phys.code_preds + 1)

let add_bulk_decodes t k =
  locked t (fun () -> t.phys.bulk_decodes <- t.phys.bulk_decodes + k)

let count_late_mat t =
  locked t (fun () ->
      t.phys.late_materializations <- t.phys.late_materializations + 1)

let add t label seconds =
  locked t (fun () ->
      match Hashtbl.find_opt t.buckets label with
      | Some r -> r := !r +. seconds
      | None -> Hashtbl.add t.buckets label (ref seconds))

let add_node t id label seconds =
  locked t (fun () ->
      match Hashtbl.find_opt t.nodes id with
      | Some s ->
        s.evals <- s.evals + 1;
        s.seconds <- s.seconds +. seconds
      | None -> Hashtbl.add t.nodes id { nlabel = label; evals = 1; seconds })

(* Unlocked internals, composed under a single lock by [pp]. *)

let unique_nodes_u t = Hashtbl.length t.nodes

let node_evals_u t = Hashtbl.fold (fun _ s acc -> acc + s.evals) t.nodes 0

let node_rows_u t =
  Hashtbl.fold (fun id s acc -> (id, s.nlabel, s.evals, s.seconds) :: acc)
    t.nodes []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let total_u t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.buckets 0.0

(* Buckets sorted by descending time. *)
let rows_u t =
  let l = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.buckets [] in
  List.sort (fun (_, a) (_, b) -> Float.compare b a) l

let unique_nodes t = locked t (fun () -> unique_nodes_u t)
let node_evals t = locked t (fun () -> node_evals_u t)
let node_rows t = locked t (fun () -> node_rows_u t)
let total t = locked t (fun () -> total_u t)
let rows t = locked t (fun () -> rows_u t)

(* Render in the style of the paper's Table 2: time [ms] and % of total. *)
let pp fmt t =
  let tot, rws, nnodes, nevals, p =
    locked t (fun () ->
        ( total_u t, rows_u t, unique_nodes_u t, node_evals_u t,
          { t.phys with kernels = t.phys.kernels } ))
  in
  Format.fprintf fmt "%-42s %12s %6s@." "Bucket" "Time [ms]" "%";
  List.iter
    (fun (label, secs) ->
       let pct = if tot > 0.0 then 100.0 *. secs /. tot else 0.0 in
       Format.fprintf fmt "%-42s %12.1f %5.1f%%@." label (secs *. 1000.0) pct)
    rws;
  Format.fprintf fmt "%-42s %12.1f@." "total" (tot *. 1000.0);
  if nnodes > 0 then
    Format.fprintf fmt "%d unique plan nodes, %d evaluations@." nnodes nevals;
  if p.kernels > 0 then begin
    Format.fprintf fmt "physical: %d kernels, %d rows in, %d rows out@."
      p.kernels p.rows_in p.rows_out;
    Format.fprintf fmt
      "physical: %d materializations forced, %d columns retyped@."
      p.mat_forced p.retypes;
    if p.joins_aligned + p.joins_merged + p.joins_hashed > 0 then
      Format.fprintf fmt
        "physical: equi-joins %d aligned, %d merged, %d hashed@."
        p.joins_aligned p.joins_merged p.joins_hashed;
    if p.theta_sorted + p.theta_boxed > 0 then
      Format.fprintf fmt "physical: inequality theta joins %d sorted, %d boxed@."
        p.theta_sorted p.theta_boxed
  end;
  if p.sorts_elided > 0 || p.sorts_to_merges > 0 || p.root_sort_elided > 0
  then
    Format.fprintf fmt
      "order: %d sorts elided, %d degraded to merges, root sort %s@."
      p.sorts_elided p.sorts_to_merges
      (if p.root_sort_elided > 0 then "elided" else "kept");
  if p.code_preds > 0 || p.bulk_decodes > 0 || p.late_materializations > 0
  then
    Format.fprintf fmt
      "compressed: %d code predicates, %d rows bulk-decoded, \
       %d late materializations@."
      p.code_preds p.bulk_decodes p.late_materializations

let to_string t = Format.asprintf "%a" pp t

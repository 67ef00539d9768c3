(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) plus the plan-level figures.

     fig6       Figure 6:  Q6 plans under ordered vs unordered (raw)
     fig9       Figure 9:  Q6 plan after column dependency analysis
     fig10      Figure 10: unordered { $t//(c|d) } — union becomes concat
     table2     Table 2:   Q11 execution profile breakdown
     plansizes  in-text:   operator counts before/after CDA (Q11: 235->141)
     fig12      Figure 12: XMark Q1-Q20 speedups across document sizes;
                exits 1 on a result count mismatch
     micro      Section 3/4 premise: % (rownum) vs # (rowid) operator cost,
                and staircase-join step throughput
     ablation   one mechanism switched off per stage (the paper's rules,
                CDA, hoisting, join recognition, tag-index steps, the
                rewriter, order properties, join isolation, code eval);
                exits 1 when a stage's answer differs from the full one
     parallel   morsel-driven scaling at jobs = 1/2/4/8;
                writes BENCH_parallel.json, exits 1 on a count mismatch
     serve      the query server under concurrent clients: capacity and
                2x-overload phases, throughput + p50/p99 + shed counts;
                writes BENCH_serve.json
     storage    packed bytes/node vs 48 boxed, monolithic vs
                chunked ingest (MB/s), snapshot save/load vs re-parse;
                writes BENCH_storage.json

   Run with no arguments to execute everything; pass experiment names to
   select. Environment knobs:
     XRQ_CUTOFF        per-query cutoff in seconds (default 30, as in the paper)
     XRQ_SCALES        comma-separated XMark scale factors for fig12
     XRQ_TABLE2_SCALE  XMark scale for the Q11 profile (default 0.02)
     XRQ_ABLATION_SCALE XMark scale for the ablation table (default 0.02)
     XRQ_PAR_SCALE     XMark scale for the parallel experiment (default 0.05)
     XRQ_PAR_OUT       output path for BENCH_parallel.json
     XRQ_SERVE_SCALE   XMark scale for the serve experiment (default 0.02)
     XRQ_SERVE_REQS    requests per client in each serve phase (default 40)
     XRQ_SERVE_OUT     output path for BENCH_serve.json
     XRQ_STORAGE_SCALES comma-separated scales for storage (default 0.01,0.05)
     XRQ_STORAGE_OUT   output path for BENCH_storage.json
     XRQ_STORE_CACHE   directory caching generated stores as snapshots;
                       every experiment's store build goes through it *)

module A = Algebra.Plan

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let mode_unordered = { Engine.default_opts with Engine.mode = Some Xquery.Ast.Unordered }
let mode_unordered_nocda =
  { Engine.default_opts with
    Engine.mode = Some Xquery.Ast.Unordered; Engine.cda = false }

let cutoff =
  try float_of_string (Sys.getenv "XRQ_CUTOFF") with Not_found | Failure _ -> 30.0

(* Build (or reuse) the XMark store for a scale. With XRQ_STORE_CACHE set
   to a directory, the generated+parsed store is saved there as a snapshot
   keyed by scale and format version; later runs load the snapshot instead
   of regenerating — at bench scales the load is far cheaper than
   generate+parse. A .bytes sidecar records the serialized document size
   (the snapshot holds the encoded table, not the XML). *)
let with_store scale f =
  let build () =
    let st = Xmldb.Doc_store.create () in
    let _, bytes = Xmark.Xmark_gen.load ~scale st in
    (st, bytes)
  in
  let st, bytes =
    match Sys.getenv_opt "XRQ_STORE_CACHE" with
    | None | Some "" -> build ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let key =
        Printf.sprintf "xmark-%g-v%d" scale
          Xmldb.Doc_store.Snapshot.format_version
      in
      let snap = Filename.concat dir (key ^ ".xrqs") in
      let sidecar = Filename.concat dir (key ^ ".bytes") in
      if Sys.file_exists snap && Sys.file_exists sidecar then begin
        let st = Xmldb.Doc_store.Snapshot.load snap in
        let ic = open_in sidecar in
        let bytes =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> int_of_string (String.trim (input_line ic)))
        in
        Printf.printf "[store cache] hit: %s (%d nodes)\n%!" snap
          (Xmldb.Doc_store.total_nodes st);
        (st, bytes)
      end
      else begin
        let st, bytes = build () in
        Xmldb.Doc_store.Snapshot.save st snap;
        let oc = open_out sidecar in
        Printf.fprintf oc "%d\n" bytes;
        close_out oc;
        Printf.printf "[store cache] saved: %s\n%!" snap;
        (st, bytes)
      end
  in
  f st bytes

let time f =
  let t0 = Basis.Clock.now () in
  let r = f () in
  (r, Basis.Clock.now () -. t0)

(* Execution time of a precompiled query: repeat short runs (up to 7 or a
   0.5 s budget) and report the minimum — compilation is excluded. The
   heap is compacted first so that a cell does not pay for the garbage of
   the cell before it (a 10 ms query timed right after a quadratic one
   once read 1.5x slower). *)
let measure_exec ?(budget = 0.5) run =
  Gc.compact ();
  let n = ref 0 in
  let best = ref infinity in
  let total = ref 0.0 in
  let items = ref 0 in
  (* always at least two runs: single-run variance dominates at sizes
     where one execution exceeds the budget *)
  while (!n < 7 && !total < budget) || !n < 2 do
    let t0 = Basis.Clock.now () in
    items := run ();
    let dt = Basis.Clock.now () -. t0 in
    best := Float.min !best dt;
    total := !total +. dt;
    incr n
  done;
  (!items, !best)

(* ------------------------------------------------------------------ fig6 *)

let q6 = Xmark.Xmark_queries.q6

let fig6 () =
  section "Figure 6 — plan emitted for XMark Q6 under varying ordering mode";
  let _, raw_ord, _ = Engine.plans_of ~opts:Engine.ordered_baseline q6 in
  let _, raw_unord, _ = Engine.plans_of ~opts:mode_unordered_nocda q6 in
  Printf.printf "\n(a) ordering mode ordered:   %s\n" (Algebra.Plan_pp.summary raw_ord);
  print_string (Algebra.Plan_pp.to_tree raw_ord);
  Printf.printf "\n(b) ordering mode unordered: %s\n" (Algebra.Plan_pp.summary raw_unord);
  print_string (Algebra.Plan_pp.to_tree raw_unord);
  Printf.printf
    "\npaper: the ordered plan carries 5 %% operators; under unordered all\n\
     but the result numbering (iter->seq, interaction 4) trade %% for #.\n";
  Printf.printf "measured: ordered %d %%; unordered %d %% and %d #\n"
    (A.count_kind raw_ord "%") (A.count_kind raw_unord "%")
    (A.count_kind raw_unord "#")

(* ------------------------------------------------------------------ fig9 *)

let fig9 () =
  section "Figure 9 — Q6 plan after column dependency analysis";
  let _, _, opt = Engine.plans_of ~opts:mode_unordered q6 in
  print_string (Algebra.Plan_pp.to_tree opt);
  Printf.printf "\n%s\n" (Algebra.Plan_pp.summary opt);
  Printf.printf
    "paper: order is (almost) no concern; the residual %%pos1 degrades to a\n\
     free # via constant/arbitrary column properties (Section 7).\n\
     measured: %d %% operators remain.\n"
    (A.count_kind opt "%")

(* ----------------------------------------------------------------- fig10 *)

let fig10 () =
  section "Figure 10 — unordered { $t//(c|d) }: '|' traded for ','";
  let q = {|let $t := doc("auction.xml") return unordered { $t//(c|d) }|} in
  let _, raw, opt = Engine.plans_of ~opts:Engine.default_opts q in
  Printf.printf "\nbefore column dependency analysis: %s\n" (Algebra.Plan_pp.summary raw);
  Printf.printf "after:                             %s\n\n" (Algebra.Plan_pp.summary opt);
  print_string (Algebra.Plan_pp.to_tree opt);
  Printf.printf
    "\npaper: the document order-aware union is cut down to sequence\n\
     concatenation (a plain disjoint union), no sort remains.\n\
     measured: %d %% operators; union survives as append: %b\n"
    (A.count_kind opt "%")
    (A.count_kind opt "∪" > 0)

(* ---------------------------------------------------------------- table2 *)

let table2 () =
  section "Table 2 — profile breakdown for XMark Q11";
  let scale =
    try float_of_string (Sys.getenv "XRQ_TABLE2_SCALE")
    with Not_found | Failure _ -> 0.02
  in
  with_store scale (fun st bytes ->
      Printf.printf "auction.xml: %.2f MB serialized, %d nodes\n\n"
        (float_of_int bytes /. 1e6) (Xmldb.Doc_store.total_nodes st);
      let run_profiled name opts =
        let r, secs =
          time (fun () ->
              Engine.run ~opts ~with_profile:true st Xmark.Xmark_queries.q11)
        in
        Printf.printf "--- %s (%d result items, %.1f ms total) ---\n"
          name (List.length r.Engine.items) (secs *. 1000.0);
        (match r.Engine.profile with
         | Some p -> print_string (Algebra.Profile.to_string p)
         | None -> ());
        print_newline ();
        secs
      in
      let t_ord = run_profiled "ordering mode ordered (baseline)" Engine.ordered_baseline in
      let t_un = run_profiled "order indifference exploited" mode_unordered in
      Printf.printf
        "paper: join (45%%) and the iter->seq reorder (45%%) dominate the\n\
         ordered run; exploiting order indifference removes the reorder\n\
         share, saving 45%% of execution time.\n\
         measured end-to-end: %.1f ms -> %.1f ms (%.0f%% speedup)\n"
        (t_ord *. 1000.) (t_un *. 1000.)
        ((t_ord /. t_un -. 1.0) *. 100.))

(* ------------------------------------------------------------- plansizes *)

let has_descendant_step p =
  List.exists
    (fun (n : A.node) ->
       match n.A.op with
       | A.Step { axis = Xmldb.Axis.Descendant; _ } -> true
       | _ -> false)
    (A.topo_order p)

let plansizes () =
  section "In-text — plan sizes before/after column dependency analysis";
  Printf.printf "%-5s %15s %15s %20s %14s\n" "query"
    "ordered (raw)" "unord (raw)" "unord + CDA" "steps merged";
  List.iter
    (fun (name, q) ->
       let _, raw_ord, _ = Engine.plans_of ~opts:Engine.ordered_baseline q in
       let _, raw_un, opt = Engine.plans_of ~opts:mode_unordered q in
       let merged = has_descendant_step opt && not (has_descendant_step raw_un) in
       Printf.printf "%-5s %11d ops %11d ops %10d ops (%d %%) %12s\n" name
         (A.count_ops raw_ord) (A.count_ops raw_un) (A.count_ops opt)
         (A.count_kind opt "%")
         (if merged then "yes" else "-"))
    Xmark.Xmark_queries.all;
  let _, raw, opt = Engine.plans_of ~opts:mode_unordered Xmark.Xmark_queries.q11 in
  Printf.printf
    "\npaper (Q11): the initial DAG of 235 operators is cut down to 141 (-40%%).\n\
     measured (Q11): %d -> %d operators (-%.0f%%).\n"
    (A.count_ops raw) (A.count_ops opt)
    (100.0
     *. (1.0 -. (float_of_int (A.count_ops opt) /. float_of_int (A.count_ops raw))))

(* ----------------------------------------------------------------- fig12 *)

let default_scales = [ 0.002; 0.01; 0.05; 0.2 ]

let fig12_scales () =
  match Sys.getenv_opt "XRQ_SCALES" with
  | None -> default_scales
  | Some s -> List.map float_of_string (String.split_on_char ',' (String.trim s))

let fig12 () =
  section "Figure 12 — observed impact of order indifference (speedup), XMark Q1-Q20";
  Printf.printf
    "speedup = t(ordered baseline) / t(order indifference exploited) - 1,\n\
     in %%; per-query cutoff %.0f s (the paper's setting); '-' = not run\n\
     (exceeded or predicted to exceed the cutoff).\n\n%!"
    cutoff;
  let scales = fig12_scales () in
  let nscales = List.length scales in
  let qnames = List.map fst Xmark.Xmark_queries.all in
  let cells : (string * int, float option) Hashtbl.t = Hashtbl.create 128 in
  let sizes_mb = Array.make nscales 0.0 in
  let last_time : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let skipped : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let mismatches = ref [] in
  List.iteri
    (fun si scale ->
       with_store scale (fun st bytes ->
           let mb = float_of_int bytes /. 1e6 in
           sizes_mb.(si) <- mb;
           Printf.printf "--- document size %.2f MB (scale %g, %d nodes) ---\n%!"
             mb scale (Xmldb.Doc_store.total_nodes st);
           List.iter
             (fun (name, q) ->
                let predicted_blowup =
                  match Hashtbl.find_opt last_time name with
                  | Some t when si > 0 ->
                    (* assume up to quadratic growth in document size *)
                    let ratio =
                      List.nth scales si /. List.nth scales (si - 1)
                    in
                    t *. ratio *. ratio > cutoff
                  | _ -> false
                in
                if Hashtbl.mem skipped name || predicted_blowup then begin
                  Hashtbl.replace skipped name ();
                  Hashtbl.replace cells (name, si) None;
                  Printf.printf "%-4s %10s\n%!" name "-"
                end
                else begin
                  let _, run_base = Engine.prepare ~opts:Engine.ordered_baseline st q in
                  let _, run_un = Engine.prepare ~opts:mode_unordered st q in
                  let n1, t_base = measure_exec run_base in
                  let n2, t_un = measure_exec run_un in
                  Hashtbl.replace last_time name (Float.max t_base t_un);
                  if Float.max t_base t_un > cutoff then
                    Hashtbl.replace skipped name ();
                  let speedup = (t_base /. t_un -. 1.0) *. 100.0 in
                  Hashtbl.replace cells (name, si) (Some speedup);
                  if n1 <> n2 then
                    mismatches :=
                      Printf.sprintf "%s at scale %g" name scale :: !mismatches;
                  Printf.printf
                    "%-4s %9.1f ms -> %9.1f ms   speedup %7.0f%%%s\n%!" name
                    (t_base *. 1000.) (t_un *. 1000.) speedup
                    (if n1 <> n2 then "  !! result count mismatch" else "")
                end)
             Xmark.Xmark_queries.all))
    scales;
  Printf.printf "\nspeedup matrix [%%] (rows: queries; columns: document size):\n\n";
  Printf.printf "%-5s" "";
  Array.iter (fun mb -> Printf.printf " %9s" (Printf.sprintf "%.2fMB" mb)) sizes_mb;
  print_newline ();
  List.iter
    (fun name ->
       Printf.printf "%-5s" name;
       for si = 0 to nscales - 1 do
         match Hashtbl.find_opt cells (name, si) with
         | Some (Some s) -> Printf.printf " %8.0f%%" s
         | _ -> Printf.printf " %9s" "-"
       done;
       print_newline ())
    qnames;
  Printf.printf
    "\npaper: speedups range from 0%% to 10,000%%; Q6 and Q7 are exceptional\n\
     because removing the %% between adjacent steps lets them merge into a\n\
     single descendant step.\n";
  if !mismatches <> [] then begin
    List.iter
      (Printf.eprintf "fig12: result count mismatch on %s\n")
      (List.rev !mismatches);
    exit 1
  end

(* ----------------------------------------------------------------- micro *)

(* Bechamel-based micro benchmark of the engine-level premise: the rownum
   primitive % sorts, the rowid primitive # stamps. *)
let bechamel_run tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |]) instance raw
  in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)

let micro () =
  section "Micro — % (rownum, sorts) vs # (rowid, free); staircase join";
  let st = Xmldb.Doc_store.create () in
  let sizes = [ 1_000; 10_000; 100_000 ] in
  let tests =
    List.concat_map
      (fun n ->
         let b = A.builder () in
         let rng = Basis.Prng.create 7 in
         let rows =
           List.init n (fun i ->
               [| Algebra.Value.Int (1 + (i mod 97));
                  Algebra.Value.Int (Basis.Prng.int rng 1000000) |])
         in
         let t = A.lit b [| "iter"; "item" |] rows in
         let input = Algebra.Eval.run st t in
         ignore input;
         let rn = A.rownum b t "pos" [ ("item", A.Asc) ] (Some "iter") in
         let ri = A.rowid b t "pos" in
         let eval_over node () =
           (* the literal re-evaluates from its row list; both arms pay it *)
           ignore (Algebra.Eval.run st node)
         in
         [ Bechamel.Test.make
             ~name:(Printf.sprintf "rownum %% n=%d" n)
             (Bechamel.Staged.stage (eval_over rn));
           Bechamel.Test.make
             ~name:(Printf.sprintf "rowid  # n=%d" n)
             (Bechamel.Staged.stage (eval_over ri)) ])
      sizes
  in
  bechamel_run
    (Bechamel.Test.make_grouped ~name:"order primitives" tests);
  (* the wall-clock view at the largest size, input evaluation excluded *)
  List.iter
    (fun n ->
       let b = A.builder () in
       let rng = Basis.Prng.create 7 in
       let rows =
         List.init n (fun i ->
             [| Algebra.Value.Int (1 + (i mod 97));
                Algebra.Value.Int (Basis.Prng.int rng 1000000) |])
       in
       let t = A.lit b [| "iter"; "item" |] rows in
       let rn = A.rownum b t "pos" [ ("item", A.Asc) ] (Some "iter") in
       let ri = A.rowid b t "pos" in
       let measure node =
         let c = Algebra.Eval.create st in
         ignore (Algebra.Eval.eval c t);
         let t0 = Basis.Clock.now () in
         ignore (Algebra.Eval.eval c node);
         Basis.Clock.now () -. t0
       in
       let t_rownum = measure rn and t_rowid = measure ri in
       Printf.printf
         "n = %9d   %%: %9.2f ms   #: %9.2f ms   ratio %5.1fx\n%!" n
         (t_rownum *. 1000.) (t_rowid *. 1000.)
         (t_rownum /. Float.max 1e-9 t_rowid))
    [ 1_000_000 ];
  let st = Xmldb.Doc_store.create () in
  let root, bytes = Xmark.Xmark_gen.load ~scale:0.05 st in
  let _, t_desc =
    time (fun () ->
        Xmldb.Staircase.step st Xmldb.Axis.Descendant Xmldb.Node_test.Any_node
          [| root |])
  in
  let nodes = Xmldb.Doc_store.total_nodes st in
  Printf.printf
    "\nstaircase descendant::node() over %.1f MB (%d nodes): %.2f ms (%.1f M nodes/s)\n"
    (float_of_int bytes /. 1e6) nodes (t_desc *. 1000.)
    (float_of_int nodes /. t_desc /. 1e6);
  (* the pluggable ⊘ implementations on a selective tag (paper, Section 3:
     TwigStack-style element streams vs staircase scan) *)
  let ti = Xmldb.Tag_index.create st in
  let test_tag tag =
    let t' = Xmldb.Node_test.Name (Xmldb.Doc_store.name_test_id st (Xmldb.Qname.make tag)) in
    let r1, t_scan =
      time (fun () -> Xmldb.Staircase.step st Xmldb.Axis.Descendant t' [| root |])
    in
    ignore (Xmldb.Tag_index.step ti Xmldb.Axis.Descendant t' [| root |]);
    let r2, t_idx =
      time (fun () -> Xmldb.Tag_index.step ti Xmldb.Axis.Descendant t' [| root |])
    in
    Printf.printf
      "descendant::%-10s %6d nodes   scan %8.3f ms   tag-index %8.3f ms (warm)%s\n"
      tag (Array.length r1) (t_scan *. 1000.) (t_idx *. 1000.)
      (if Array.length r1 <> Array.length r2 then "  !! mismatch" else "")
  in
  List.iter test_tag [ "item"; "keyword"; "person"; "emph" ]

(* --------------------------------------------------------------- sharing *)

(* The DAG-evaluation dividend: how much work plan sharing saves at
   runtime (tree vs DAG node counts, Tree vs Dag evaluation wall time),
   and what the prepared-plan cache buys a repeated-query workload. *)
let sharing () =
  section "Sharing — DAG vs tree evaluation; the prepared-plan cache";
  let fig10_q = {|let $t := doc("auction.xml") return unordered { $t//(c|d) }|} in
  let paper_queries =
    [ ("fig10", fig10_q); ("Q6", q6); ("Q11", Xmark.Xmark_queries.q11) ]
  in
  Printf.printf "\nsharing factor (optimized plans, default_opts):\n\n";
  Printf.printf "%-6s %10s %12s %9s\n" "query" "DAG nodes" "tree nodes" "factor";
  let max_factor = ref 0.0 in
  List.iter
    (fun (name, q) ->
       let _, _, opt = Engine.plans_of ~opts:mode_unordered q in
       let dag = A.count_ops opt and tree = A.count_tree_nodes opt in
       let f = A.sharing_factor opt in
       max_factor := Float.max !max_factor f;
       Printf.printf "%-6s %10d %12d %8.2fx\n" name dag tree f)
    (paper_queries @ Xmark.Xmark_queries.all);
  Printf.printf
    "\nany factor > 1 means the memoizing executor evaluates strictly\n\
     fewer operators than a tree walk; largest here: %.2fx\n" !max_factor;
  (* Tree vs Dag evaluation of the same optimized plan *)
  with_store 0.01 (fun st _ ->
      Printf.printf "\ntree vs DAG evaluation (same plan, same store, scale 0.01):\n\n";
      Printf.printf "%-6s %12s %12s %12s %12s\n" "query" "DAG evals"
        "tree evals" "DAG ms" "tree ms";
      List.iter
        (fun (name, q) ->
           let _, _, opt = Engine.plans_of ~opts:mode_unordered q in
           let measure mode =
             let ctx = Algebra.Eval.create ~mode st in
             let t0 = Basis.Clock.now () in
             ignore (Algebra.Eval.eval ctx opt);
             (Algebra.Eval.evals ctx, Basis.Clock.now () -. t0)
           in
           let ed, td = measure Algebra.Eval.Dag in
           let et, tt = measure Algebra.Eval.Tree in
           Printf.printf "%-6s %12d %12d %10.2fms %10.2fms\n" name ed et
             (td *. 1000.) (tt *. 1000.))
        paper_queries);
  (* repeated-query throughput: full Engine.run, cold vs warm plan cache.
     Tiny store: the point is the per-dispatch parse+compile tax, which is
     store-independent — the cache's win on any workload where queries
     repeat. *)
  with_store 0.001 (fun st _ ->
      let workload =
        paper_queries
        @ List.filter
            (fun (n, _) ->
               List.mem n [ "Q3"; "Q4"; "Q10"; "Q12"; "Q19"; "Q20" ])
            Xmark.Xmark_queries.all
      in
      let rounds = 30 in
      let run_all ?cache () =
        List.iter
          (fun (_, q) ->
             ignore (Engine.run ?cache ~opts:mode_unordered st q))
          workload
      in
      let _, t_nocache =
        time (fun () -> for _ = 1 to rounds do run_all () done)
      in
      let cache = Engine.create_cache ~capacity:64 () in
      run_all ~cache ();  (* warm it *)
      let _, t_warm =
        time (fun () -> for _ = 1 to rounds do run_all ~cache () done)
      in
      let n = rounds * List.length workload in
      Printf.printf
        "\nrepeated-query workload (%d queries/round, %d rounds, scale 0.001):\n\n"
        (List.length workload) rounds;
      Printf.printf "  no plan cache:   %8.1f ms  (%7.0f queries/s)\n"
        (t_nocache *. 1000.) (float_of_int n /. t_nocache);
      Printf.printf "  warm plan cache: %8.1f ms  (%7.0f queries/s)\n"
        (t_warm *. 1000.) (float_of_int n /. t_warm);
      Printf.printf "  speedup: %.2fx   cache: %s\n"
        (t_nocache /. t_warm)
        (Engine.Plan_cache.stats_to_string (Engine.cache_stats cache)))

(* -------------------------------------------------------------- ablation *)

(* A query answer as a multiset: its items serialized and sorted. *)
let answer_multiset opts st q =
  (Engine.run ~opts st q).Engine.items
  |> List.map (function
    | Algebra.Value.Node n -> Xmldb.Serialize.node_to_string st n
    | v -> Algebra.Value.to_string v)
  |> List.sort compare

(* Which mechanism contributes what: the Figure-7 rules alone, CDA alone,
   both, then the full setting with one mechanism switched off per stage.
   Every cell's answer must equal the full stage's as a multiset: ordered
   and unordered answers are permutations of each other, and no other
   switch may change the answer at all. A mismatch exits 1 after the
   table. *)
let ablation () =
  section "Ablation — contribution of each mechanism (execution time, ms)";
  let full = mode_unordered in
  let stages =
    [ ("baseline (ordered, no opt)", Engine.ordered_baseline);
      ("rules only (unord, no CDA)", mode_unordered_nocda);
      ("CDA only (ordered)",
       { Engine.default_opts with Engine.mode = Some Xquery.Ast.Ordered });
      ("rules + CDA (full)", full);
      ("full, hoisting off", { full with Engine.hoist = false });
      ("full, join recognition off", { full with Engine.join_rec = false });
      ("full, tag-index steps",
       { full with Engine.step_impl = Algebra.Eval.Tag_index });
      ("full, rewriter off", { full with Engine.rewrite = false });
      ("full, order props off", { full with Engine.order_props = false });
      ("full, join isolation off", { full with Engine.join_isolation = false });
      ("full, code eval off", { full with Engine.code_eval = false }) ]
  in
  let queries_dir =
    if Sys.file_exists "queries" then "queries" else "../queries"
  in
  let corpus_query name =
    let ic = open_in_bin (Filename.concat queries_dir (name ^ ".xq")) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> (name, really_input_string ic (in_channel_length ic)))
  in
  let queries =
    List.map
      (fun qn -> (qn, Xmark.Xmark_queries.get qn))
      [ "Q1"; "Q5"; "Q6"; "Q7"; "Q8"; "Q9"; "Q11"; "Q14"; "Q19"; "Q20" ]
    @ List.map corpus_query [ "existential_join"; "top_sellers" ]
  in
  let width qn = max 9 (String.length qn) in
  let scale =
    try float_of_string (Sys.getenv "XRQ_ABLATION_SCALE")
    with Not_found | Failure _ -> 0.02
  in
  with_store scale (fun st bytes ->
      Printf.printf "auction.xml: %.2f MB\n\n" (float_of_int bytes /. 1e6);
      let expected = List.map (fun (_, q) -> answer_multiset full st q) queries in
      Printf.printf "%-28s" "";
      List.iter (fun (qn, _) -> Printf.printf " %*s" (width qn) qn) queries;
      print_newline ();
      let mismatches = ref [] in
      List.iter
        (fun (name, opts) ->
           Printf.printf "%-28s" name;
           List.iter2
             (fun (qn, q) want ->
                let _, run = Engine.prepare ~opts st q in
                let _, t = measure_exec run in
                Printf.printf " %*.1fms%!" (width qn - 2) (t *. 1000.);
                if answer_multiset opts st q <> want then
                  mismatches := (name, qn) :: !mismatches)
             queries expected;
           print_newline ())
        stages;
      Printf.printf
        "\nReading guide: the Figure-7 rules without CDA recover only part of\n\
         the gain (the dead %% chains remain, Section 4.1). CDA alone prunes\n\
         every %% whose position column no consumer reads, which on these\n\
         queries comes close to the full setting even under ordering mode\n\
         ordered. Hoisting matters where a loop-invariant path sits inside\n\
         a predicate (existential_join); without join recognition the value\n\
         joins (Q8, Q9, Q11) fall back to filtered cross products. The last\n\
         four stages switch off the engine's own optimizations, each with a\n\
         headline column: Q9 for join isolation (its join hides behind a\n\
         let), existential_join for the rewriter (join synthesis),\n\
         top_sellers for order properties and Q7 for code eval's bulk\n\
         scans.\n";
      if !mismatches <> [] then begin
        List.iter
          (fun (name, qn) ->
             Printf.eprintf
               "ablation: %s under %S differs from the full stage's answer\n"
               qn name)
          (List.rev !mismatches);
        exit 1
      end)

(* -------------------------------------------------------------- parallel *)

(* Morsel-driven scaling: the same prepared physical plan executed at
   jobs = 1, 2, 4, 8 over the XMark corpus. Results are parity-checked
   per width (identical item counts — the full row-level parity lives in
   test_parallel.ml), and a count mismatch on any query exits 1 after
   the JSON is written; the JSON baseline records per-width times, the
   speedup at 4 domains, and the host's core count. The baseline's
   "mode" field says what was measured: "scaling" on a multi-core host,
   "overhead" on a single core (where a best case of ~1.0x means the
   adaptive morsel policy got out of the way). Knobs: XRQ_PAR_SCALE
   (default 0.05), XRQ_PAR_OUT (default BENCH_parallel.json). *)
let parallel_bench () =
  section "Parallel — morsel-driven scaling of the physical executor";
  let scale =
    try float_of_string (Sys.getenv "XRQ_PAR_SCALE")
    with Not_found | Failure _ -> 0.05
  in
  let out_path =
    Option.value (Sys.getenv_opt "XRQ_PAR_OUT") ~default:"BENCH_parallel.json"
  in
  let widths = [ 1; 2; 4; 8 ] in
  let host_cores = Basis.Pool.recommended_jobs () in
  with_store scale (fun st bytes ->
      Printf.printf
        "auction.xml: %.2f MB serialized, %d nodes; host cores: %d\n\n"
        (float_of_int bytes /. 1e6) (Xmldb.Doc_store.total_nodes st)
        host_cores;
      Printf.printf "%-6s" "query";
      List.iter (fun j -> Printf.printf " %9s" (Printf.sprintf "jobs=%d" j)) widths;
      Printf.printf " %9s %7s\n" "x at 4" "items";
      let rows =
        List.map
          (fun (name, q) ->
             let per_width =
               List.map
                 (fun jobs ->
                    let opts = { Engine.default_opts with Engine.jobs = jobs } in
                    let _, run = Engine.prepare ~opts st q in
                    let n, t = measure_exec run in
                    (jobs, n, t))
                 widths
             in
             let _, n1, t1 = List.hd per_width in
             let _, _, t4 = List.nth per_width 2 in
             let parity =
               List.for_all (fun (_, n, _) -> n = n1) per_width
             in
             Printf.printf "%-6s" name;
             List.iter
               (fun (_, _, t) -> Printf.printf " %7.1fms" (t *. 1000.))
               per_width;
             Printf.printf " %8.2fx %7d%s\n%!" (t1 /. t4) n1
               (if parity then "" else "  !! result count mismatch");
             (name, per_width, t1 /. t4, parity))
          Xmark.Xmark_queries.all
      in
      let scaled =
        List.filter (fun (_, _, s, _) -> s >= 1.7) rows |> List.length
      in
      Printf.printf
        "\n%d queries reach >= 1.7x at 4 domains on this %d-core host.\n\
         (Morsel scaling needs real cores: on a single-core host the\n\
         deterministic merge discipline caps the best case at ~1.0x.)\n"
        scaled host_cores;
      (* What this baseline measures depends on the host: with real cores
         it is a scaling experiment; on a single core it is an overhead
         experiment — jobs = 4 should stay near jobs = 1 because the
         adaptive morsel policy hands one span to each domain when rows
         are few and caps span count near the worker count when rows are
         plentiful. Either way the numbers are honest for what they
         claim; [degraded] now means the numbers themselves are suspect:
         a result-count parity failure, or single-core overhead beyond
         30% on some query (the morsel machinery failed to get out of
         the way). *)
      let mode = if host_cores > 1 then "scaling" else "overhead" in
      let min_speedup4 =
        List.fold_left (fun acc (_, _, s, _) -> min acc s) infinity rows
      in
      let all_parity = List.for_all (fun (_, _, _, p) -> p) rows in
      let degraded =
        (not all_parity) || (host_cores <= 1 && min_speedup4 < 0.7)
      in
      Printf.printf
        "mode: %s; worst speedup at 4 domains: %.2fx%s\n" mode
        min_speedup4
        (if degraded then
           " — DEGRADED baseline (parity failure or uncontained overhead)"
         else "");
      let oc = open_out out_path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"parallel\",\n  \"scale\": %g,\n\
        \  \"document_bytes\": %d,\n  \"host_cores\": %d,\n\
        \  \"mode\": %S,\n  \"min_speedup_at_4\": %.3f,\n\
        \  \"degraded\": %b,\n\
        \  \"jobs\": [%s],\n  \"queries\": [\n"
        scale bytes host_cores mode min_speedup4 degraded
        (String.concat ", " (List.map string_of_int widths));
      List.iteri
        (fun i (name, per_width, speedup4, parity) ->
           let times =
             String.concat ", "
               (List.map
                  (fun (j, _, t) ->
                     Printf.sprintf "\"%d\": %.3f" j (t *. 1000.))
                  per_width)
           in
           let _, items, _ = List.hd per_width in
           Printf.fprintf oc
             "    { \"query\": %S, \"ms\": {%s}, \"speedup_at_4\": %.3f, \
              \"items\": %d, \"count_parity\": %b }%s\n"
             name times speedup4 items parity
             (if i < List.length rows - 1 then "," else ""))
        rows;
      Printf.fprintf oc "  ]\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" out_path;
      if not all_parity then begin
        Printf.eprintf "parallel: result count parity failed\n";
        exit 1
      end)

(* ----------------------------------------------------------------- serve *)

(* The query server under concurrent load, measured from the client side
   of real loopback TCP connections. Two phases against one in-process
   server (workers=4, queue=4, per-client cap 2, 5s ceiling):

   - capacity: clients = workers, each issuing sequential request/response
     XMark Q1 queries — nothing should shed, and the p50/p99 are the
     baseline service latency;
   - overload: 3x the capacity clients (>= the issue's 2x bar): 4 "hog"
     clients pin every worker with 40 ms SLEEP holds while 8 query clients
     offer the same Q1 load. Demand exceeds workers + queue, so the
     admission queue must shed (counted both client- and server-side);
     what IS admitted must still finish inside the budget ceiling —
     that is the graceful-degradation claim, checked as
     p99_within_ceiling.

   Knobs: XRQ_SERVE_SCALE (default 0.02), XRQ_SERVE_REQS (requests per
   client, default 40), XRQ_SERVE_OUT (default BENCH_serve.json). *)
let serve_bench () =
  section "Serve — concurrent clients, load shedding, tail latency";
  let scale =
    try float_of_string (Sys.getenv "XRQ_SERVE_SCALE")
    with Not_found | Failure _ -> 0.02
  in
  let reqs =
    try int_of_string (Sys.getenv "XRQ_SERVE_REQS")
    with Not_found | Failure _ -> 40
  in
  let out_path =
    Option.value (Sys.getenv_opt "XRQ_SERVE_OUT") ~default:"BENCH_serve.json"
  in
  let workers = 4 and queue_capacity = 4 and client_cap = 2 in
  let ceiling_s = 5.0 in
  with_store scale (fun st bytes ->
      Printf.printf
        "auction.xml: %.2f MB serialized, %d nodes; workers=%d queue=%d \
         client_cap=%d ceiling=%.0fs\n\n"
        (float_of_int bytes /. 1e6) (Xmldb.Doc_store.total_nodes st)
        workers queue_capacity client_cap ceiling_s;
      let ceiling =
        { Basis.Budget.unlimited with
          Basis.Budget.timeout_s = Some ceiling_s }
      in
      let cfg =
        Server.config ~port:0 ~ceiling ~workers
          ~queue_capacity ~client_cap ~debug:true
          ~stores:[ ("xmark", st) ] ()
      in
      let srv = Server.start cfg in
      let port = Server.port srv in
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd Unix.(ADDR_INET (inet_addr_loopback, port));
        fd
      in
      let rpc ic oc line =
        output_string oc line;
        output_char oc '\n';
        flush oc;
        input_line ic
      in
      (* One client: [n] sequential request/response rounds of [line];
         returns (ok latencies in ms, shed count, other-error count). *)
      let client line n () =
        let fd = connect () in
        let ic = Unix.in_channel_of_descr fd
        and oc = Unix.out_channel_of_descr fd in
        let lats = ref [] and shed = ref 0 and errs = ref 0 in
        (try
           for _ = 1 to n do
             let t0 = Basis.Clock.now () in
             let resp = rpc ic oc line in
             let dt = (Basis.Clock.now () -. t0) *. 1000. in
             if String.length resp >= 2 && String.sub resp 0 2 = "OK" then
               lats := dt :: !lats
             else if String.starts_with ~prefix:"ERR resource" resp then
               incr shed
             else incr errs
           done
         with End_of_file | Sys_error _ -> incr errs);
        (try ignore (rpc ic oc "QUIT") with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (!lats, !shed, !errs)
      in
      let percentile sorted p =
        match Array.length sorted with
        | 0 -> 0.0
        | len -> sorted.(int_of_float (p /. 100. *. float_of_int (len - 1)))
      in
      (* the wire is line-delimited: fold the query onto one line *)
      let q1 =
        "Q "
        ^ String.concat " "
            (String.split_on_char '\n' Xmark.Xmark_queries.q1)
      in
      (* A phase: run the thunks concurrently, merge client-side tallies. *)
      let run_phase name thunks =
        let t0 = Basis.Clock.now () in
        let results = ref [] and mu = Mutex.create () in
        let ths =
          List.map
            (fun f ->
               Thread.create
                 (fun () ->
                    let r = f () in
                    Mutex.lock mu;
                    results := r :: !results;
                    Mutex.unlock mu)
                 ())
            thunks
        in
        List.iter Thread.join ths;
        let wall = Basis.Clock.now () -. t0 in
        let lats =
          List.concat_map (fun (l, _, _) -> l) !results
          |> Array.of_list
        in
        Array.sort compare lats;
        let ok = Array.length lats in
        let shed = List.fold_left (fun a (_, s, _) -> a + s) 0 !results in
        let errs = List.fold_left (fun a (_, _, e) -> a + e) 0 !results in
        let p50 = percentile lats 50. and p99 = percentile lats 99. in
        let within = p99 <= ceiling_s *. 1000. in
        Printf.printf
          "%-9s clients=%-2d ok=%-4d shed=%-4d errs=%-2d wall=%5.2fs \
           %7.1f req/s  p50=%6.2fms  p99=%6.2fms%s\n%!"
          name (List.length thunks) ok shed errs wall
          (float_of_int ok /. wall) p50 p99
          (if within then "" else "  !! p99 exceeds ceiling");
        (name, List.length thunks, ok, shed, errs, wall, p50, p99, within)
      in
      let capacity =
        run_phase "capacity"
          (List.init workers (fun _ -> client q1 reqs))
      in
      (* Hogs pin the workers with SLEEP holds so the query clients
         genuinely contend for the admission queue; a stopped flag ends
         them once the measured clients finish. *)
      let stop_hogs = Atomic.make false in
      let hog () =
        let fd = connect () in
        let ic = Unix.in_channel_of_descr fd
        and oc = Unix.out_channel_of_descr fd in
        let shed = ref 0 in
        (try
           while not (Atomic.get stop_hogs) do
             let resp = rpc ic oc "SLEEP 40" in
             if String.starts_with ~prefix:"ERR resource" resp then
               incr shed
           done
         with End_of_file | Sys_error _ -> ());
        (try ignore (rpc ic oc "QUIT") with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ([], !shed, 0)
      in
      let overload_queriers = 2 * workers in
      let overload =
        let hog_threads =
          List.init workers (fun _ -> Thread.create hog ())
        in
        let r =
          run_phase "overload"
            (List.init overload_queriers (fun _ -> client q1 reqs))
        in
        Atomic.set stop_hogs true;
        List.iter Thread.join hog_threads;
        (* hogs are load generators, not measured clients; report the
           total offered concurrency instead *)
        let (n, c, ok, shed, errs, wall, p50, p99, within) = r in
        (n, c + workers, ok, shed, errs, wall, p50, p99, within)
      in
      let stats = Server.stats srv in
      Server.stop ~grace_s:5. srv;
      let stat k = try List.assoc k stats with Not_found -> "0" in
      Printf.printf
        "\nserver: admitted=%s completed=%s shed_full=%s shed_cap=%s \
         degradations=%s\n"
        (stat "admitted") (stat "completed") (stat "shed_full")
        (stat "shed_cap") (stat "degradations");
      let oc = open_out out_path in
      Printf.fprintf oc
        "{\n  \"experiment\": \"serve\",\n  \"scale\": %g,\n\
        \  \"document_bytes\": %d,\n  \"workers\": %d,\n\
        \  \"queue_capacity\": %d,\n  \"client_cap\": %d,\n\
        \  \"ceiling_s\": %g,\n  \"requests_per_client\": %d,\n\
        \  \"phases\": [\n"
        scale bytes workers queue_capacity client_cap ceiling_s reqs;
      List.iteri
        (fun i (name, clients, ok, shed, errs, wall, p50, p99, within) ->
           Printf.fprintf oc
             "    { \"phase\": %S, \"clients\": %d, \"ok\": %d, \
              \"shed\": %d, \"errors\": %d, \"wall_s\": %.3f, \
              \"throughput_rps\": %.1f, \"p50_ms\": %.3f, \
              \"p99_ms\": %.3f, \"p99_within_ceiling\": %b }%s\n"
             name clients ok shed errs wall
             (float_of_int ok /. wall) p50 p99 within
             (if i = 0 then "," else ""))
        [ capacity; overload ];
      Printf.fprintf oc
        "  ],\n  \"server\": { \"admitted\": %s, \"completed\": %s, \
         \"shed_full\": %s, \"shed_cap\": %s, \"shed_draining\": %s, \
         \"degradations\": %s }\n}\n"
        (stat "admitted") (stat "completed") (stat "shed_full")
        (stat "shed_cap") (stat "shed_draining") (stat "degradations");
      close_out oc;
      Printf.printf "wrote %s\n" out_path)

(* --------------------------------------------------------------- storage *)

(* A boxed row: kind, name, value, size, level, parent, one word each. *)
let boxed_bytes_per_node = 48.

(* The encoded-store experiment: bytes/node of the packed columns vs a
   boxed row, ingest throughput monolithic vs chunked (64 KB reader
   windows), and snapshot save/load vs re-parsing the document.
   Writes BENCH_storage.json (override XRQ_STORAGE_OUT; scales
   XRQ_STORAGE_SCALES, default "0.01,0.05"). *)
let storage_bench () =
  section "Storage — packed columns, chunked ingest, snapshot persistence";
  let scales =
    match Sys.getenv_opt "XRQ_STORAGE_SCALES" with
    | None -> [ 0.01; 0.05 ]
    | Some s -> List.map float_of_string (String.split_on_char ',' (String.trim s))
  in
  let out_path =
    Option.value (Sys.getenv_opt "XRQ_STORAGE_OUT")
      ~default:"BENCH_storage.json"
  in
  let parse_into st xml =
    ignore (Xmldb.Xml_parser.load_document st ~uri:"auction.xml" xml)
  in
  let parse_chunked st xml =
    let pos = ref 0 in
    let reader b ofs len =
      let n = min (min len 65536) (String.length xml - !pos) in
      Bytes.blit_string xml !pos b ofs n;
      pos := !pos + n;
      n
    in
    ignore
      (Xmldb.Xml_parser.load_reader ~window:65536 st ~uri:"auction.xml"
         reader)
  in
  (* best of two runs; each run parses into a throwaway store *)
  let best_time mk run =
    let one () =
      let st = mk () in
      let _, t = time (fun () -> run st) in
      t
    in
    let a = one () and b = one () in
    Float.min a b
  in
  let rows =
    List.map
      (fun scale ->
         let xml = Xmark.Xmark_gen.generate ~scale () in
         let doc_bytes = String.length xml in
         let mb = float_of_int doc_bytes /. 1e6 in
         let t_mono =
           best_time Xmldb.Doc_store.create (fun st -> parse_into st xml)
         in
         let t_chunk =
           best_time Xmldb.Doc_store.create (fun st -> parse_chunked st xml)
         in
         (* one retained store for sizes and snapshots *)
         let st = Xmldb.Doc_store.create () in
         parse_into st xml;
         let nodes = Xmldb.Doc_store.total_nodes st in
         let p_bytes = Xmldb.Doc_store.encoded_bytes st in
         let per n bytes = float_of_int bytes /. float_of_int n in
         (* chunked ingest must produce the byte-identical store *)
         let stc = Xmldb.Doc_store.create () in
         parse_chunked stc xml;
         let chunk_identical =
           Xmldb.Doc_store.Snapshot.to_string st
           = Xmldb.Doc_store.Snapshot.to_string stc
         in
         let snap = Filename.temp_file "xrq-storage" ".xrqs" in
         let _, t_save = time (fun () -> Xmldb.Doc_store.Snapshot.save st snap) in
         let snap_bytes = (Unix.stat snap).Unix.st_size in
         let loaded = ref None in
         let t_load =
           let a = snd (time (fun () -> loaded := Some (Xmldb.Doc_store.Snapshot.load snap))) in
           let b = snd (time (fun () -> loaded := Some (Xmldb.Doc_store.Snapshot.load snap))) in
           Float.min a b
         in
         let load_nodes =
           match !loaded with
           | Some l -> Xmldb.Doc_store.total_nodes l
           | None -> -1
         in
         Sys.remove snap;
         Printf.printf
           "--- scale %g: %.2f MB, %d nodes ---\n\
           \  bytes/node        packed %6.2f   boxed %6.2f   ratio %.2fx\n\
           \  ingest            monolithic %7.1f ms (%.1f MB/s)   chunked-64K \
            %7.1f ms (%.1f MB/s)%s\n\
           \  snapshot          %d bytes   save %6.1f ms   load %6.1f ms   \
            load vs re-parse %.1fx%s\n%!"
           scale mb nodes (per nodes p_bytes) boxed_bytes_per_node
           (boxed_bytes_per_node /. per nodes p_bytes)
           (t_mono *. 1000.) (mb /. t_mono)
           (t_chunk *. 1000.) (mb /. t_chunk)
           (if chunk_identical then "" else "  !! chunked snapshot differs")
           snap_bytes (t_save *. 1000.) (t_load *. 1000.) (t_mono /. t_load)
           (if load_nodes = nodes then "" else "  !! node count mismatch after load");
         (scale, doc_bytes, nodes, per nodes p_bytes, boxed_bytes_per_node,
          t_mono, t_chunk, chunk_identical, snap_bytes, t_save, t_load,
          load_nodes = nodes))
      scales
  in
  let oc = open_out out_path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"storage\",\n  \"format_version\": %d,\n\
    \  \"scales\": [\n"
    Xmldb.Doc_store.Snapshot.format_version;
  List.iteri
    (fun i (scale, doc_bytes, nodes, ppn, bpn, t_mono, t_chunk, ident,
            snap_bytes, t_save, t_load, load_ok) ->
       let mb = float_of_int doc_bytes /. 1e6 in
       Printf.fprintf oc
         "    { \"scale\": %g, \"document_bytes\": %d, \"nodes\": %d, \
          \"packed_bytes_per_node\": %.3f, \"boxed_bytes_per_node\": %.3f, \
          \"compression_ratio\": %.3f, \"parse_ms\": %.3f, \
          \"parse_mb_s\": %.2f, \"chunked_parse_ms\": %.3f, \
          \"chunked_mb_s\": %.2f, \"chunk_snapshot_identical\": %b, \
          \"snapshot_bytes\": %d, \"save_ms\": %.3f, \"load_ms\": %.3f, \
          \"load_vs_reparse\": %.3f, \"load_node_parity\": %b }%s\n"
         scale doc_bytes nodes ppn bpn (bpn /. ppn) (t_mono *. 1000.)
         (mb /. t_mono) (t_chunk *. 1000.) (mb /. t_chunk) ident snap_bytes
         (t_save *. 1000.) (t_load *. 1000.) (t_mono /. t_load) load_ok
         (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out_path

(* ---------------------------------------------------------------- driver *)

let experiments =
  [ ("fig6", fig6); ("fig9", fig9); ("fig10", fig10); ("table2", table2);
    ("plansizes", plansizes); ("fig12", fig12); ("micro", micro);
    ("sharing", sharing); ("ablation", ablation);
    ("parallel", parallel_bench); ("serve", serve_bench);
    ("storage", storage_bench) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] then List.map fst experiments else args in
  List.iter
    (fun name ->
       match List.assoc_opt name experiments with
       | Some f -> f ()
       | None ->
         Printf.eprintf "unknown experiment %S; available: %s\n" name
           (String.concat ", " (List.map fst experiments));
         exit 1)
    selected

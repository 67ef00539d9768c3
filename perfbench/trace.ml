(* The traced run: per-layer metrics, timed from outside the program
   around calls into each layer's public functions (no tracing inside the
   engine). For every query of the workload, a traced pass

   - replays the front end through Parser, Normalize, Compile, Icols,
     Rewrite (both rounds, in Engine.analyze's order), Properties and
     Engine.lower_physical, and asserts that the replay's optimized plan
     has Engine.analyze's operator count, so it measures the same
     program;
   - runs the query with the engine's own profile (Algebra.Profile:
     per-bucket execution time and the physical counters), then without
     it, then times Algebra.Physical.run on the lowered plan and
     Interp.Xdm.serialize on the items.

   Times are per-query bests over the passes (Measure.best),
   summed over the corpus (one pass's worth); counts are per-pass totals
   and must repeat exactly from pass to pass, and from run to run of the
   same program and seed.
   The server metrics come from a load against bin/serve on the
   workload's document: serve-rw's own load, a short one elsewhere. *)

open Corpus
module M = Measure

type front = {
  parse : float; normalize : float; compile : float; cda : float;
  rewrite : float; properties : float; lower : float;
  raw_ops : int; opt_ops : int; fires : int; pkernels : int;
}

(* Engine.analyze and Engine.lower_physical, call by call. *)
let replay ~stats text =
  let q, parse = M.time (fun () -> Xquery.Parser.parse_query text) in
  let core, normalize =
    M.time (fun () -> Xquery.Normalize.normalize_query ?mode_override:opts.mode q)
  in
  let cfg =
    { (Exrquy.Compile.default_cfg ()) with
      unordered_rules = opts.unordered_rules;
      hoist = opts.hoist;
      join_rec = opts.join_rec;
      join_isolation = opts.join_isolation }
  in
  let (_, raw), compile = M.time (fun () -> Exrquy.Compile.compile_core ~cfg core) in
  let cda_s = ref 0. and rewrite_s = ref 0. and fires = ref 0 in
  let cda p =
    if not opts.cda then p
    else begin
      let p', dt = M.time (fun () -> Exrquy.Icols.optimize cfg.b p) in
      cda_s := !cda_s +. dt;
      p'
    end
  in
  let rewrite (p : Algebra.Plan.node) =
    let (p', s), dt =
      M.time (fun () ->
          Algebra.Rewrite.optimize ~order_props:opts.order_props
            ~join_isolation:opts.join_isolation ~stats cfg.b p)
    in
    rewrite_s := !rewrite_s +. dt;
    fires := !fires + Algebra.Rewrite.total_fires s;
    if p'.id <> p.id then cda p' else p'
  in
  let optimized =
    if opts.rewrite then rewrite (rewrite (cda raw)) else cda raw
  in
  let _, properties = M.time (fun () -> Exrquy.Properties.infer optimized) in
  let pp, lower =
    M.time (fun () ->
        Engine.lower_physical ~stats ~order_props:opts.order_props optimized)
  in
  { parse; normalize; compile; cda = !cda_s; rewrite = !rewrite_s; properties;
    lower;
    raw_ops = Algebra.Plan.count_ops raw;
    opt_ops = Algebra.Plan.count_ops optimized;
    fires = !fires;
    pkernels = Algebra.Lower.count_kernels pp }

(* Algebra.Profile's buckets (the labels Engine gives plan nodes). *)
let buckets =
  [ ("path steps", "exec.steps_ms"); ("join", "exec.join_ms");
    ("order (rownum %)", "exec.sort_ms"); ("construction", "exec.construct_ms");
    ("aggregation", "exec.aggr_ms"); ("arithmetic/comparison", "exec.fun_ms");
    ("selection", "exec.select_ms"); ("duplicate elimination", "exec.distinct_ms");
    ("plumbing", "exec.plumbing_ms") ]

let phys_counts (ph : Algebra.Profile.phys) =
  [ ("exec.kernels", ph.kernels); ("exec.fused_ops", ph.fused_ops);
    ("exec.rows_out", ph.rows_out); ("exec.mat_forced", ph.mat_forced);
    ("exec.sorts_to_merges", ph.sorts_to_merges);
    ("exec.root_sort_elided", ph.root_sort_elided);
    ("exec.code_preds", ph.code_preds); ("exec.bulk_decodes", ph.bulk_decodes);
    ("exec.late_mats", ph.late_materializations) ]

(* The counts a later change may rest a claim on: they must repeat. *)
let exact =
  [ "core.raw_ops"; "algebra.opt_ops"; "algebra.rewrite_fires";
    "algebra.pkernels"; "exec.kernels"; "exec.fused_ops"; "exec.code_preds";
    "exec.bulk_decodes"; "xmldb.frags_appended" ]

type sample = {
  front : front;
  traced : float;     (* Engine.run with the profile on *)
  untraced : float;   (* Engine.run as the workload runs it *)
  hit : float;        (* Engine.run on a plan-cache hit *)
  exec : float;       (* Algebra.Physical.run *)
  serialize : float;  (* Interp.Xdm.serialize *)
  times : (string * float) list;   (* profile buckets, seconds *)
  counts : (string * int) list;    (* per-query counts *)
}

let unwrap q = function
  | Ok r -> r
  | Error (e : Engine.error) -> failwith (q.qname ^ ": " ^ e.message)

let sample tally (p : Local.prepared) ~hit_cache st i q =
  let stats = Engine.stats_of_store st in
  let front = replay ~stats q.text in
  let a = Engine.analyze ~opts ~stats q.text in
  M.invariant tally
    (Algebra.Plan.count_ops a.aoptimized = front.opt_ops)
    (q.qname ^ ": the replayed front end compiled another plan");
  let frags0 = Xmldb.Doc_store.n_frags st in
  let r, traced =
    M.time (fun () -> Local.run ?cache:p.cache ~with_profile:true st q)
  in
  let frags = Xmldb.Doc_store.n_frags st - frags0 in
  Local.check tally p i st r;
  let r = unwrap q r in
  let r', untraced = M.time (fun () -> Local.run ?cache:p.cache st q) in
  Local.check tally p i st r';
  let hit =
    match p.cache with
    | Some _ -> untraced
    | None -> snd (M.time (fun () -> Local.run ~cache:hit_cache st q))
  in
  let pp = Option.get r.physical_plan in
  let _, exec =
    M.time (fun () ->
        Algebra.Physical.run ~step_impl:opts.step_impl ~mode:opts.eval_mode
          ~jobs:opts.jobs ~code_eval:opts.code_eval st pp)
  in
  let _, serialize = M.time (fun () -> Interp.Xdm.serialize st r.items) in
  let prof = Option.get r.profile in
  let times =
    List.map
      (fun (label, s) ->
         match List.assoc_opt label buckets with
         | Some name -> (name, s)
         | None ->
           Printf.eprintf "perfbench: profile bucket %S counted as plumbing\n%!"
             label;
           ("exec.plumbing_ms", s))
      (Algebra.Profile.rows prof)
  in
  { front; traced; untraced; hit; exec; serialize; times;
    counts =
      [ ("core.raw_ops", front.raw_ops); ("algebra.opt_ops", front.opt_ops);
        ("algebra.rewrite_fires", front.fires);
        ("algebra.pkernels", front.pkernels); ("xmldb.frags_appended", frags) ]
      @ phys_counts (Algebra.Profile.phys prof) }

let count_names =
  [ "core.raw_ops"; "algebra.opt_ops"; "algebra.rewrite_fires";
    "algebra.pkernels"; "xmldb.frags_appended" ]
  @ List.map fst (phys_counts (Algebra.Profile.phys (Algebra.Profile.create ())))

let sum_by key samples =
  List.fold_left
    (fun acc (k, v) -> if k = key then acc + v else acc)
    0 samples

(* The counts file of earlier traced runs of this program and seed. *)
let check_counts tally w seed (p : Local.prepared) counts =
  let key =
    Refs.md5
      (String.concat "\n"
         (Digest.to_hex (Digest.file Sys.executable_name)
          :: Array.to_list (Array.map (fun q -> q.text) p.queries)))
  in
  let path =
    Filename.concat cache_dir
      (Printf.sprintf "counts/%s-s%d-%s.txt" (name w) seed key)
  in
  let text =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) counts)
  in
  if Sys.file_exists path then
    M.invariant tally (read_file path = text)
      "exact counts differ from an earlier traced run of this seed"
  else write_file path text

(* A workload without a plan cache misses on every run: ratio 0. *)
let cache_counts (p : Local.prepared) =
  Option.fold ~none:(0, 0)
    ~some:(fun c ->
        let s = Engine.cache_stats c in
        (s.hits, s.misses))
    p.cache

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let measure ~exe w seed seconds =
  let p = Local.prepare w seed in
  let tally = M.tally () in
  let n = Array.length p.queries in
  let hit_cache = Engine.create_cache () in
  (* warm-up: fills the workload's and the hit-timing plan caches *)
  let st = Local.fresh tally p in
  Array.iteri
    (fun i q ->
       Local.check tally p i st (Local.run ?cache:p.cache st q);
       ignore (Local.run ~cache:hit_cache st q))
    p.queries;
  let hits0, misses0 = cache_counts p in
  let samples = Array.make n [] and pass_counts = ref [] in
  (* serve-rw spends its seconds on the server load below *)
  let budget = match w with Serve_rw -> 1 | Compile_cold | Exec_warm -> seconds in
  let deadline = M.now () +. float_of_int budget in
  while List.length !pass_counts < 2 || M.now () < deadline do
    let st = Local.fresh tally p in
    Gc.compact ();
    M.rotate ();
    let pass =
      Array.to_list
        (Array.mapi
           (fun i q ->
              let s = sample tally p ~hit_cache st i q in
              samples.(i) <- s :: samples.(i);
              s.counts)
           p.queries)
      |> List.concat
    in
    pass_counts :=
      List.map (fun k -> (k, sum_by k pass)) count_names :: !pass_counts
  done;
  let counts = List.hd !pass_counts in
  M.invariant tally
    (List.for_all
       (fun c ->
          List.for_all (fun k -> List.assoc k c = List.assoc k counts) exact)
       !pass_counts)
    "exact counts differ between traced passes";
  check_counts tally w seed p
    (List.filter (fun (k, _) -> List.mem k exact) counts);
  (* per query: the best over passes; per corpus: the sum *)
  let total f =
    Array.fold_left (fun acc l -> acc +. M.best (List.map f l)) 0. samples
    *. 1e3
  in
  let geo f =
    M.geomean
      (Array.to_list (Array.map (fun l -> M.best (List.map f l) *. 1e3) samples))
  in
  let bucket name s =
    List.fold_left (fun a (k, v) -> if k = name then a +. v else a) 0. s.times
  in
  let hits1, misses1 = cache_counts p in
  (* the server side: serve-rw's own load, or a short one elsewhere *)
  let ref_of = Serve_load.ref_of p.queries p.refs in
  let _, s = Serve_load.setup ~exe ~k:1 w seed in
  let ingest = ingest_document seed in
  ignore (Serve_load.run ~tally ~ref_of ~ingest ~writes:2 s);
  let writes =
    match w with
    | Serve_rw -> Serve_load.writes_per_second * seconds
    | Compile_cold | Exec_warm -> 40
  in
  let r = Serve_load.run ~tally ~ref_of ~ingest ~writes s in
  Serve_load.close_session s;
  let hit_ratio =
    match w with
    | Serve_rw -> ratio r.cache_hits r.cache_misses
    | Compile_cold | Exec_warm -> ratio (hits1 - hits0) (misses1 - misses0)
  in
  (* the same reads in process, on a plan-cache hit *)
  let in_process_reads =
    Array.to_list p.queries
    |> List.mapi (fun i q ->
        if List.mem q.qname reader_names then
          List.map (fun s -> s.hit *. 1e3) samples.(i)
        else [])
    |> List.concat
  in
  let read_p50 = M.median (r.by_cls Serve_load.Read) in
  let ms name f = (name, total f, "ms") in
  let count name = (name, float_of_int (List.assoc name counts), "count") in
  ( tally,
    [ ms "xquery.parse_ms" (fun s -> s.front.parse);
      ms "xquery.normalize_ms" (fun s -> s.front.normalize);
      ms "core.compile_ms" (fun s -> s.front.compile);
      count "core.raw_ops";
      ms "core.cda_ms" (fun s -> s.front.cda);
      ms "algebra.rewrite_ms" (fun s -> s.front.rewrite);
      count "algebra.rewrite_fires";
      count "algebra.opt_ops";
      ms "core.properties_ms" (fun s -> s.front.properties);
      ms "algebra.lower_ms" (fun s -> s.front.lower);
      count "algebra.pkernels";
      ms "algebra.exec_ms" (fun s -> s.exec) ]
    @ List.map (fun (_, name) -> ms name (bucket name)) buckets
    @ List.map count (List.filter (fun k -> String.starts_with ~prefix:"exec." k) count_names)
    @ [ ms "engine.finish_ms" (fun s -> s.hit -. s.exec);
        ms "interp.serialize_ms" (fun s -> s.serialize);
        ("engine.cache_hit_ratio", hit_ratio, "ratio");
        count "xmldb.frags_appended";
        ("xmldb.ingest_mb_s", r.ingest_mb_s, "MB/s");
        ("server.read_p50_ms", read_p50, "ms");
        ("server.write_p50_ms", M.median (r.by_cls Serve_load.Write), "ms");
        ("server.load_p50_ms", M.median (r.by_cls Serve_load.Load), "ms");
        ("server.overhead_ms", read_p50 -. M.median in_process_reads, "ms");
        ("server.shed_ratio",
         float_of_int r.sheds /. float_of_int r.requests, "ratio");
        ("trace.overhead_ms",
         geo (fun s -> s.traced) -. geo (fun s -> s.untraced), "ms") ] )

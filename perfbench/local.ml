(* The corpus through the public API, in process, one query at a time:
   compile-cold (no plan cache, so every run pays parse → normalize →
   compile → CDA → rewrite → lower) and exec-warm (one plan cache warmed
   by an untimed pass, so every timed run is a hit and execute, root sort
   and serialize dominate). The traced run reuses the set-up and the
   checks. *)

open Corpus
module M = Measure

type prepared = {
  queries : query array;
  refs : Refs.entry array;
  base : base;
  setup_s : float;
  cache : Engine.cache option;
}

(* Ready-to-query time: generate + parse + pack, at least three times and
   for at least a second (at most 200 times); the best (Measure.best). *)
let setup w seed =
  let rec go acc used =
    Gc.compact ();
    M.rotate ();
    let (src, st), dt =
      M.time (fun () ->
          let src = document w seed in
          (src, load_store src))
    in
    let acc = dt :: acc and used = used +. dt in
    if (List.length acc >= 3 && used >= 1.) || List.length acc >= 200 then
      (M.best acc, src, st)
    else go acc used
  in
  go [] 0.

(* exec-warm runs against one warmed plan cache, as does the server the
   serve-rw load talks to; compile-cold has none. *)
let prepare w seed =
  let setup_s, src, st = setup w seed in
  let queries = Array.of_list (queries w) in
  { queries;
    refs = Refs.ensure w seed src (Array.to_list queries);
    base = freeze st;
    setup_s;
    cache =
      (match w with
       | Compile_cold -> None
       | Exec_warm | Serve_rw -> Some (Engine.create_cache ())) }

(* Every timed pass starts from the frozen base store. *)
let fresh tally p =
  let st = thaw p.base in
  M.invariant tally (is_base p.base st) "a pass starts from another store";
  st

let check tally p i st (r : (Engine.result, Engine.error) result) =
  let q = p.queries.(i) in
  let ok, why =
    match r with
    | Ok { degraded = Some d; _ } -> (false, d)
    | Ok r ->
      ( Refs.matches q p.refs.(i) st r.items r.serialized,
        "differs from the interpreter's reference" )
    | Error e -> (false, e.message)
  in
  M.record tally ok (q.qname ^ ": " ^ why)

let run ?cache ?(with_profile = false) st q =
  Engine.run_result ?cache ~opts ~with_profile st q.text

let hits p =
  Option.fold ~none:0 ~some:(fun c -> (Engine.cache_stats c).hits) p.cache

(* The three most expensive plan nodes of a profiled run. *)
let top3 (r : (Engine.result, Engine.error) result) =
  match r with
  | Ok { profile = Some pr; _ } ->
    List.filteri (fun i _ -> i < 3) (Algebra.Profile.node_rows pr)
    |> List.map (fun (id, label, _, s) ->
        Printf.sprintf "#%d %s %.3fms" id label (s *. 1e3))
    |> String.concat "; "
  | _ -> "-"

let measure w seed seconds =
  let p = prepare w seed in
  let tally = M.tally () in
  let n = Array.length p.queries in
  (* warm-up: untimed and profiled; fills exec-warm's plan cache *)
  let st = fresh tally p in
  let tops =
    Array.mapi
      (fun i q ->
         let r = run ?cache:p.cache ~with_profile:true st q in
         check tally p i st r;
         top3 r)
      p.queries
  in
  let hits0 = hits p in
  let lat = Array.make n [] and passes = ref [] in
  let deadline = M.now () +. float_of_int seconds in
  while List.length !passes < 3 || M.now () < deadline do
    let st = fresh tally p in
    Gc.compact ();
    M.rotate ();
    let pass =
      Array.mapi
        (fun i q ->
           let r, dt = M.time (fun () -> run ?cache:p.cache st q) in
           check tally p i st r;
           lat.(i) <- dt :: lat.(i);
           dt)
        p.queries
    in
    passes := Array.fold_left ( +. ) 0. pass :: !passes
  done;
  M.unpin ();
  let runs = n * List.length !passes in
  if p.cache <> None then
    M.invariant tally (hits p - hits0 = runs) "a timed run missed the plan cache";
  let ms l = List.map (fun s -> s *. 1e3) l in
  Printf.printf "%-24s %9s %9s %9s %7s  %s\n" "query" "best_ms" "median_ms"
    "iqr_ms" "items" "top plan nodes (warm-up profile)";
  Array.iteri
    (fun i q ->
       let l = ms lat.(i) in
       Printf.printf "%-24s %9.3f %9.3f %9.3f %7d  %s\n" q.qname (M.best l)
         (M.median l) (M.iqr l) p.refs.(i).Refs.items tops.(i))
    p.queries;
  let per_query = Array.to_list (Array.map (fun l -> M.best (ms l)) lat) in
  let pass_s = M.best !passes in
  ( tally,
    [ ("setup_s", p.setup_s, "s");
      ("geomean_ms", M.geomean per_query, "ms");
      ("pass_s", pass_s, "s");
      ("throughput_rps", float_of_int n /. pass_s, "1/s");
      (* percentiles over the queries' bests: pooled executions cluster
         by query, so a pooled median falls into the gap between two
         clusters and jumps between them from run to run, and a pooled
         p99 measures the host's noise bursts more than the slowest
         query *)
      ("p50_ms", M.median per_query, "ms");
      ("p99_ms", M.quantile 0.99 per_query, "ms");
      ("peak_rss_mb", M.peak_rss_mb "self", "MB") ] )

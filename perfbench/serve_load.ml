(* The server load: bin/serve with two workers, driven by one client
   process over two closed-loop connections (= the host's two cores; the
   wire carries one untagged reply per request, so a connection cannot
   pipeline). The reader connection cycles prepared non-constructing
   XMark queries under the store's read lock. The writer connection
   alternates an L ingest of a small seeded document into its session
   store with a node-constructing query on the shared store, which takes
   the write lock and appends fragments. The writer sends a fixed number
   of requests and the reader runs until the writer is done: only the
   writer changes the server's stores, so their growth is identical from
   run to run. *)

open Corpus
module M = Measure
module P = Server.Protocol

type session = {
  srv : Server_proc.t;
  reader : Server_proc.conn;
  writer : Server_proc.conn;
}

let doc_path w seed =
  Filename.concat cache_dir
    (Printf.sprintf "docs/%s-s%d.xml" (name w) (doc_seed w seed))

(* Ready-to-query: generate the document, start the server on it,
   connect both clients and prepare their statements. *)
let open_session ~exe w seed =
  let path = doc_path w seed in
  write_file path (document w seed);
  let srv = Server_proc.start ~exe ~doc:path in
  let reader = Server_proc.connect srv and writer = Server_proc.connect srv in
  let prepare c qname =
    match
      Server_proc.call c
        (P.Prepare { name = qname; text = Xmark.Xmark_queries.get qname })
    with
    | P.Resp_ok _ -> ()
    | _ -> failwith ("cannot prepare " ^ qname)
  in
  List.iter (prepare reader) reader_names;
  prepare writer writer_name;
  { srv; reader; writer }

let close_session s =
  Server_proc.close s.reader;
  Server_proc.close s.writer;
  Server_proc.stop s.srv

(* [k] timed set-ups, all but the last torn down again: the best set-up
   time and the session to load. *)
let setup ~exe ~k w seed =
  let rec go acc i =
    let s, dt = M.time (fun () -> open_session ~exe w seed) in
    if i + 1 < k then begin
      close_session s;
      go (dt :: acc) (i + 1)
    end
    else (M.best (dt :: acc), s)
  in
  go [] 0

type cls = Read | Write | Load

type req = { cls : cls; qname : string; req : P.request }

type result = {
  lat_ms : float list;                (* every request *)
  by_cls : cls -> float list;         (* per request class, ms *)
  by_query : string -> float list;    (* per statement, ms *)
  wall_s : float;
  requests : int;
  ingest_mb_s : float;
  cache_hits : int;
  cache_misses : int;
  sheds : int;
}

let exec cls qname =
  { cls; qname; req = P.Exec { itemized = false; timeout_s = None; name = qname } }

(* Run the load: [writes] writer requests, the reader cycling meanwhile.
   Every reply is checked against [ref_of]'s reference. *)
let run ~tally ~ref_of ~ingest ~writes s =
  let ingest_req =
    { cls = Load; qname = "L";
      req = P.Load { timeout_s = None; uri = "ingest.xml"; xml = ingest } }
  in
  let reads = Array.of_list (List.map (exec Read) reader_names) in
  let write i = if i mod 2 = 0 then ingest_req else exec Write writer_name in
  let check r line =
    let ok =
      match P.parse_response line, r.cls with
      | Ok (P.Resp_ok (0, _)), Load -> true
      | Ok (P.Resp_ok (n, f)), (Read | Write) ->
        let e : Refs.entry = ref_of r.qname in
        n = e.items && Refs.md5 (P.payload_of f) = e.full
      | _ -> false
    in
    M.record tally ok (Printf.sprintf "serve %s: %s" r.qname line)
  in
  let s0 = Server_proc.stats s.reader in
  let lat = ref [] and samples = Hashtbl.create 16 in
  let load_bytes = ref 0 and load_s = ref 0. in
  let conns = [| s.reader; s.writer |] in
  let inflight = [| None; None |] in
  let issue k r =
    Server_proc.send conns.(k) r.req;
    inflight.(k) <- Some (r, M.now ())
  in
  let next_read = ref 0 and next_write = ref 0 in
  let send_read () =
    issue 0 reads.(!next_read mod Array.length reads);
    incr next_read
  in
  let send_write () =
    issue 1 (write !next_write);
    incr next_write
  in
  let t0 = M.now () in
  send_read ();
  send_write ();
  let t_last = ref t0 in
  while inflight.(0) <> None || inflight.(1) <> None do
    let fds =
      List.filter_map
        (fun k -> Option.map (fun _ -> conns.(k).Server_proc.fd) inflight.(k))
        [ 0; 1 ]
    in
    let ready, _, _ = Unix.select fds [] [] (-1.) in
    List.iteri
      (fun k c ->
         if List.mem c.Server_proc.fd ready then
           match Server_proc.poll c, inflight.(k) with
           | Some line, Some (r, ts) ->
             let now = M.now () in
             t_last := now;
             let ms = (now -. ts) *. 1e3 in
             inflight.(k) <- None;
             check r line;
             lat := ms :: !lat;
             Hashtbl.add samples (`C r.cls) ms;
             Hashtbl.add samples (`Q r.qname) ms;
             if r.cls = Load then begin
               load_bytes := !load_bytes + String.length ingest;
               load_s := !load_s +. (ms /. 1e3)
             end;
             let writing = !next_write < writes in
             if k = 1 && writing then send_write ()
             else if k = 0 && (writing || inflight.(1) <> None) then
               send_read ()
           | _ -> ())
      (Array.to_list conns)
  done;
  let wall_s = !t_last -. t0 in
  let s1 = Server_proc.stats s.reader in
  let delta k = Server_proc.stat_int s1 k - Server_proc.stat_int s0 k in
  { lat_ms = !lat;
    by_cls = (fun c -> Hashtbl.find_all samples (`C c));
    by_query = (fun q -> Hashtbl.find_all samples (`Q q));
    wall_s;
    requests = List.length !lat;
    ingest_mb_s = float_of_int !load_bytes /. 1e6 /. !load_s;
    (* the two STATS requests are not plan-cache lookups *)
    cache_hits = delta "cache_hits";
    cache_misses = delta "cache_misses";
    sheds = delta "shed_full" + delta "shed_cap" + delta "shed_draining" }

(* Writer requests per measured second: about as many as the host
   answers in that time next to the reader, so a run lasts roughly its
   --seconds while the request count stays fixed. *)
let writes_per_second = 500

let ref_of queries refs =
  let tbl = Hashtbl.create 8 in
  Array.iteri (fun i (q : query) -> Hashtbl.replace tbl q.qname refs.(i)) queries;
  Hashtbl.find tbl

let measure ~exe seed seconds =
  let tally = M.tally () in
  let queries = Array.of_list (queries Serve_rw) in
  let refs =
    Refs.ensure Serve_rw seed (document Serve_rw seed) (Array.to_list queries)
  in
  let ref_of = ref_of queries refs in
  let setup_s, s = setup ~exe ~k:5 Serve_rw seed in
  let ingest = ingest_document seed in
  ignore (run ~tally ~ref_of ~ingest ~writes:2 s);  (* warm-up *)
  let r =
    run ~tally ~ref_of ~ingest ~writes:(writes_per_second * seconds) s
  in
  let rss = M.peak_rss_mb (string_of_int s.srv.Server_proc.pid) in
  close_session s;
  let per_query =
    List.map (fun q -> M.median (r.by_query q)) (reader_names @ [ writer_name ])
  in
  List.iter
    (fun (label, c) ->
       let l = r.by_cls c in
       Printf.printf "%-8s %6d requests  p50 %8.3f ms  p99 %8.3f ms\n" label
         (List.length l) (M.median l) (M.quantile 0.99 l))
    [ ("read", Read); ("write", Write); ("load", Load) ];
  ( tally,
    [ ("setup_s", setup_s, "s");
      ("geomean_ms", M.geomean per_query, "ms");
      ("pass_s", r.wall_s, "s");
      ("throughput_rps", float_of_int r.requests /. r.wall_s, "1/s");
      ("p50_ms", M.median r.lat_ms, "ms");
      ("p99_ms", M.quantile 0.99 r.lat_ms, "ms");
      ("peak_rss_mb", rss, "MB") ] )

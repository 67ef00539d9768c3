(* Differential fuzz harness (the paper's Section-5 methodology as a
   correctness oracle): a seeded generator of small core XQuery
   expressions, each evaluated under

       {compiled, interpreted} x {default_opts, ordered_baseline}
                               x {without, with (generous) budgets}

   plus the executor dimensions {DAG, tree evaluation}, the executor
   itself {physical kernels, the boxed reference executor [Algebra.Eval]
   on the same optimized plan}, the logical rewriter {on, off — both
   against each other and against the interpreter}, morsel-parallel
   execution {jobs 4 over tiny forced morsels, with the serial runs as
   oracle}, the prepared-plan cache {cold, warm}, the query server
   {direct Engine, loopback TCP through a lazily started in-process
   server} and the ingest path {monolithic parse, chunked streaming
   ingest}, asserting
   identical results — or identically
   *classified* errors — across the whole matrix. (For the interpreter
   the plan options are vacuous, so its plan variants collapse into one
   run per budget setting.)

   To keep the 300-seed nightly sweep bounded as dimensions accrue, the
   budget overlay rides on only one config per backend (default and
   baseline): budget transparency is already pinned point-wise by
   test_robustness, so budget x every-executor-dimension bought no new
   coverage for 3 extra runs per seed.

   Divergence policy:
     - both sides Ok              -> serialized item lists must match
                                     (multiset-compare when the query
                                     contains order-latitude constructs:
                                     unordered {} / distinct-values)
     - both sides Error           -> the Err.kind classes must match
     - Ok vs dynamic error        -> tolerated: XQuery 2.3.4 grants
                                     latitude over evaluating erroneous
                                     expressions whose value is unneeded
     - Internal or Resource error -> always a failure (budgets here are
                                     generous by construction)
     - any unclassified exception -> always a failure

   Every divergence logs the seed and the query text, so a failure
   reproduces with --start SEED --seeds 1.

   Usage: fuzz_differential [--seeds N] [--start K] [--deadline S] [-v]
   Exit status: 0 = clean, 1 = divergences found. *)

open Basis
module Value = Algebra.Value

(* Force tiny morsels before the engine's first physical execution (the
   engine reads XRQ_MORSEL lazily): fuzz queries produce small tables,
   and without this the parallel configs would never actually fan out. *)
let () = Unix.putenv "XRQ_MORSEL" "4"

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"

(* [chunk > 0] ingests t.xml through the streaming reader in
   [chunk]-byte pieces over a tiny sliding window instead of the
   monolithic string parse: a pure ingest-path choice that must be
   invisible to every query. *)
let mk_store ?(chunk = 0) () =
  let st = Xmldb.Doc_store.create () in
  (if chunk > 0 then begin
     let pos = ref 0 in
     let reader b ofs len =
       let n = min (min len chunk) (String.length doc_xml - !pos) in
       Bytes.blit_string doc_xml !pos b ofs n;
       pos := !pos + n;
       n
     in
     ignore (Xmldb.Xml_parser.load_reader ~window:16 st ~uri:"t.xml" reader)
   end
   else ignore (Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml));
  st

(* ------------------------------------------------------------- generator *)

(* Seeded random expression generator. [lax] is flipped when the emitted
   query contains a construct whose result order is implementation
   latitude (unordered {}, distinct-values): those queries compare as
   multisets. All emitted text parses by construction. *)
let gen_query ~lax prng =
  let var_names = [| "v"; "w"; "x" |] in
  let rec gen depth vars =
    let atom () =
      match Prng.int prng 7 with
      | 0 -> string_of_int (Prng.int prng 10)
      | 1 -> "()"
      | 2 -> Printf.sprintf "\"s%d\"" (Prng.int prng 3)
      | 3 ->
        (match vars with
         | [] -> string_of_int (1 + Prng.int prng 5)
         | _ -> "$" ^ Prng.pick prng (Array.of_list vars))
      | 4 -> Printf.sprintf "%d.5" (Prng.int prng 5)
      | 5 -> Printf.sprintf "(%d to %d)" (1 + Prng.int prng 3) (Prng.int prng 8)
      | _ -> "true()"
    in
    if depth <= 0 then atom ()
    else
      let sub () = gen (depth - 1) vars in
      match Prng.int prng 16 with
      | 0 ->
        let op = Prng.pick prng [| "+"; "-"; "*" |] in
        Printf.sprintf "(%s %s %s)" (sub ()) op (sub ())
      | 1 ->
        (* division: a deliberate dynamic-error source (div by zero) *)
        let op = Prng.pick prng [| "div"; "idiv"; "mod" |] in
        Printf.sprintf "(%s %s %s)" (sub ()) op (sub ())
      | 2 ->
        let op = Prng.pick prng [| "="; "!="; "<"; ">="; "eq"; "lt" |] in
        Printf.sprintf "(%s %s %s)" (sub ()) op (sub ())
      | 3 -> Printf.sprintf "(%s, %s)" (sub ()) (sub ())
      | 4 ->
        let v = Prng.pick prng var_names in
        Printf.sprintf "(for $%s in (%s) return %s)" v (sub ())
          (gen (depth - 1) (v :: vars))
      | 5 ->
        let v = Prng.pick prng var_names in
        Printf.sprintf "(let $%s := (%s) return %s)" v (sub ())
          (gen (depth - 1) (v :: vars))
      | 6 ->
        let v = Prng.pick prng var_names in
        Printf.sprintf
          "(for $%s in (%s) where boolean(($%s, %s)[1] >= 2) return %s)" v
          (sub ()) v
          (gen (depth - 1) (v :: vars))
          (gen (depth - 1) (v :: vars))
      | 7 ->
        Printf.sprintf "(if (boolean((%s, 0)[1] >= 1)) then %s else %s)"
          (sub ()) (sub ()) (sub ())
      | 8 ->
        let f = Prng.pick prng [| "count"; "sum"; "empty"; "exists"; "reverse" |] in
        Printf.sprintf "%s(%s)" f (sub ())
      | 9 ->
        let ax = Prng.pick prng [| "//"; "/a/"; "/a/b/"; "//b/" |] in
        let tag = Prng.pick prng [| "c"; "d"; "e"; "f"; "*"; "zz" |] in
        Printf.sprintf "doc(\"t.xml\")%s%s" ax tag
      | 10 ->
        let tag = Prng.pick prng [| "c"; "*" |] in
        Printf.sprintf "count(doc(\"t.xml\")//%s[boolean((%s, 0)[1] >= 1)])"
          tag (sub ())
      | 11 ->
        let q = Prng.pick prng [| "some"; "every" |] in
        let v = Prng.pick prng var_names in
        Printf.sprintf "(%s $%s in (%s) satisfies boolean(($%s, %s)[1] >= 1))"
          q v (sub ()) v
          (gen (depth - 1) (v :: vars))
      | 12 ->
        let f = Prng.pick prng [| "concat"; "contains"; "starts-with" |] in
        Printf.sprintf "%s(string((%s)[1]), string((%s)[1]))" f (sub ()) (sub ())
      | 13 ->
        lax := true;
        let tag = Prng.pick prng [| "c"; "d"; "*" |] in
        Printf.sprintf "unordered { doc(\"t.xml\")//%s }" tag
      | 14 ->
        lax := true;
        Printf.sprintf "distinct-values((%s, %s))" (sub ()) (sub ())
      | _ -> Printf.sprintf "<r>{%s}</r>" (sub ())
  in
  gen (2 + Prng.int prng 2) []

(* -------------------------------------------------------------- evaluator *)

type outcome =
  | Items of string list          (* per-item serialization *)
  | Failed of Err.kind * string
  | Blew_up of string             (* unclassified exception: always a bug *)

let ser st items =
  List.map
    (fun it ->
       match it with
       | Value.Node n -> Xmldb.Serialize.node_to_string st n
       | v -> Value.to_string v)
    items

let evaluate ?cache ?(mk = fun () -> mk_store ()) ~opts q =
  (* a fresh store per evaluation: constructors mutate the store, and
     isolation keeps node serializations comparable *)
  let st = mk () in
  match Engine.run_result ?cache ~opts st q with
  | Ok r -> Items (ser st r.Engine.items)
  | Error { Engine.kind; message } -> Failed (kind, message)
  | exception e -> Blew_up (Printexc.to_string e)

(* The server side of the differential pair: the same query through a
   loopback TCP connection to an in-process server, itemized (QI), so
   the wire serialization is compared field by field against [ser]. The
   server store persists across seeds — constructors append fragments to
   it — but every generated query navigates from doc("t.xml"), which
   never changes, so results stay comparable. Started lazily: a fuzz
   sweep that never reaches this config pays nothing. *)
let server_conn =
  lazy
    (let st = mk_store () in
     let cfg =
       Server.config ~port:0 ~workers:2 ~queue_capacity:64 ~client_cap:8
         ~ceiling:(Budget.limits ~timeout_s:30. ())
         ~stores:[ ("main", st) ] ()
     in
     let srv = Server.start cfg in
     at_exit (fun () -> Server.stop ~grace_s:5. srv);
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Unix.connect fd Unix.(ADDR_INET (inet_addr_loopback, Server.port srv));
     (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd))

let kind_of_label = function
  | "dynamic" -> Some Err.Dynamic
  | "static" -> Some Err.Static
  | "resource" -> Some Err.Resource
  | "internal" -> Some Err.Internal
  | _ -> None

let evaluate_server q =
  let ic, oc = Lazy.force server_conn in
  match
    output_string oc ("QI " ^ q ^ "\n");
    flush oc;
    input_line ic
  with
  | exception e -> Blew_up ("server connection: " ^ Printexc.to_string e)
  | line ->
    (match Server.Protocol.parse_response line with
     | Ok (Server.Protocol.Resp_ok (n, raw)) ->
       Items (Server.Protocol.items_of ~n raw)
     | Ok (Server.Protocol.Resp_err { class_; message; _ }) ->
       (match kind_of_label class_ with
        | Some k -> Failed (k, message)
        | None -> Blew_up ("unknown wire error class: " ^ class_))
     | Ok _ -> Blew_up ("unexpected response: " ^ line)
     | Error m -> Blew_up ("response did not parse: " ^ m))

(* The executor-level pair: the seed's optimized plan run through the
   boxed reference executor [Algebra.Eval] and through the physical
   kernels, each on a fresh store under the generous budget. The two must
   agree on the schema and on every row in order, or fail with the same
   error kind and message; their guards must have counted the same
   operator boundaries and rows (physical kernels map 1:1 onto logical
   nodes). When the reference run succeeds, every claim the property
   analysis makes about the plan's nodes is checked against their tables
   ([Claims]; cached tables, so no budget is charged). Only then is the
   (pos-sorted) result compared against the interpreter like every other
   config. *)
let evaluate_reference_executor ~budget_spec q =
  let run exec =
    let st = mk_store () in
    let stats = Engine.stats_of_store st in
    let guard = Budget.start budget_spec in
    let result =
      match
        let a = Engine.analyze ~stats q in
        exec ~stats ~guard st a.Engine.aoptimized
      with
      | t -> Ok (st, t)
      | exception e ->
        (match Engine.classify_error e with
         | Some { Engine.kind; message } -> Error (Failed (kind, message))
         | None -> Error (Blew_up (Printexc.to_string e)))
    in
    (result, (Budget.ops guard, Budget.rows guard))
  in
  let rows t =
    Array.to_list (Algebra.Table.schema t)
    :: List.init (Algebra.Table.nrows t) (fun r ->
        Array.to_list
          (Array.map (Format.asprintf "%a" Value.pp) (Algebra.Table.row t r)))
  in
  (* the result sequence: items in (stable) pos order *)
  let items t =
    let pos = Algebra.Table.col t "pos" and item = Algebra.Table.col t "item" in
    List.init (Algebra.Table.nrows t) (fun r -> (Value.int_value pos.(r), item.(r)))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let violations = ref [] in
  let reference =
    run (fun ~stats:_ ~guard st p ->
        let ctx = Algebra.Eval.create ~guard st in
        let t = Algebra.Eval.eval ctx p in
        violations := Claims.violations ctx p;
        t)
  in
  let physical =
    run (fun ~stats ~guard st p ->
        Algebra.Physical.run ~guard st (Engine.lower_physical ~stats p))
  in
  let budgets_differ (o1, r1) (o2, r2) =
    Blew_up
      (Printf.sprintf
         "budget accounting differs: reference %d ops, %d rows; physical \
          %d ops, %d rows"
         o1 r1 o2 r2)
  in
  match (reference, physical) with
  | _ when !violations <> [] ->
    Blew_up ("analysis claim violated: " ^ String.concat "; " !violations)
  | (Ok (_, te), c1), (Ok (st, t), c2) when rows te = rows t ->
    if c1 = c2 then Items (ser st (items t)) else budgets_differ c1 c2
  | (Error (Failed (k1, m1) as f), c1), (Error (Failed (k2, m2)), c2)
    when k1 = k2 && m1 = m2 ->
    (* a deadline may trip at a different boundary on either side *)
    if c1 = c2 || k1 = Err.Resource then f else budgets_differ c1 c2
  | (Error (Blew_up m), _), _ | _, (Error (Blew_up m), _) -> Blew_up m
  | _ -> Blew_up "reference executor and physical kernels disagree"

(* Each config is (name, q -> outcome). Beyond the backend/options/budget
   matrix, two executor dimensions ride along:
     - tree evaluation: the sharing-oblivious Tree mode re-derives every
       shared subplan — same answers, different cost — so it doubles as a
       memoization oracle;
     - the prepared-plan cache: the warm config's first run populates a
       fresh (cold) cache and its second replays the prepared plan
       against a fresh store — both states must be invisible to
       results. *)
let configs ~budget_spec =
  let with_budget o = { o with Engine.budget = Some budget_spec } in
  let interp = { Engine.default_opts with Engine.backend = Engine.Interpreted } in
  let tree = { Engine.default_opts with Engine.eval_mode = Algebra.Eval.Tree } in
  let parallel = { Engine.default_opts with Engine.jobs = 4 } in
  let norewrite = { Engine.default_opts with Engine.rewrite = false } in
  let noorder = { Engine.default_opts with Engine.order_props = false } in
  let nojg = { Engine.default_opts with Engine.join_isolation = false } in
  let plain opts q = evaluate ~opts q in
  let warm_cache opts q =
    let cache = Engine.create_cache () in
    ignore (evaluate ~cache ~opts q);
    evaluate ~cache ~opts q
  in
  [ ("interp", plain interp);
    ("compiled/default", plain Engine.default_opts);
    ("compiled/default+budget", plain (with_budget Engine.default_opts));
    (* the boxed reference executor vs the physical kernels on one
       optimized plan: the central differential pair of the physical
       layer, row for row *)
    ("compiled/reference-executor", evaluate_reference_executor ~budget_spec);
    (* the logical rewriter off: default (rewrite on) vs this and vs the
       interpreter reference triangulates every rewrite rule against an
       unrewritten plan *)
    ("compiled/no-rewrite", plain norewrite);
    (* morsel-parallel execution at width 4 over forced-tiny morsels:
       the serial runs above are the oracle — the parity contract says
       identical rows, identical error choice, identical accounting *)
    ("compiled/parallel", plain parallel);
    ("compiled/baseline", plain Engine.ordered_baseline);
    ("compiled/baseline+budget", plain (with_budget Engine.ordered_baseline));
    (* tree mode is budgeted unconditionally: re-deriving shared subplans
       can inflate work by orders of magnitude (that is what it is for),
       and an unbudgeted tree walk of an adversarial seed could run
       essentially forever. The flip side: tree mode may exhaust a budget
       the DAG run sails under, so Resource errors from this config are
       tolerated (see the main loop), not divergences. *)
    ("compiled/tree", plain (with_budget tree));
    (* ordering-property reasoning off: every elided
       sort, skipped root sort and merge-degraded % in the default runs
       is differentially checked against these sort-preserving plans.
       (These replaced cold-cache: the warm-cache config's first run IS
       a cold-cache run, so that pair already covers both states.) *)
    ("compiled/no-order-props", plain noorder);
    (* join-graph isolation off: every scaffold the
       jg-* rules collapse (and every where that slid past a let at
       compile time) is differentially checked against the
       count-then-filter plan it replaced *)
    ("compiled/no-join-isolation", plain nojg);
    ("compiled/warm-cache", warm_cache Engine.default_opts);
    (* compressed execution off, on the serial and morsel-parallel
       executors: the default runs carry code-carrying columns, batched
       steps and code-translated predicates; these materialized
       reference runs differentially check every one of them *)
    ("compiled/no-code-eval",
     plain { Engine.default_opts with Engine.code_eval = false });
    ("compiled/no-code-eval/parallel",
     plain { parallel with Engine.code_eval = false });
    (* the ingest dimension: a store ingested through the streaming reader
       in 3-byte chunks over a 16-byte window must be invisible to every
       query *)
    ("store/chunked",
     fun q -> evaluate ~mk:(fun () -> mk_store ~chunk:3 ())
         ~opts:Engine.default_opts q);
    (* the query served over loopback TCP: wire framing, session budget
       clamping and per-item response serialization must all be
       invisible — same items, same error classes as the direct run *)
    ("server/loopback", evaluate_server) ]

(* ------------------------------------------------------------ comparison *)

let canon ~lax items = if lax then List.sort compare items else items

let divergence ~lax reference got =
  match (reference, got) with
  | Items a, Items b ->
    if canon ~lax a = canon ~lax b then None
    else
      Some
        (Printf.sprintf "results differ:\n    ref: %s\n    got: %s"
           (String.concat " | " a) (String.concat " | " b))
  | Failed (k1, _), Failed (k2, _) ->
    if k1 = k2 then None
    else if k1 = Err.Dynamic && k2 = Err.Dynamic then None
    else
      Some
        (Printf.sprintf "error classes differ: %s vs %s" (Err.kind_label k1)
           (Err.kind_label k2))
  (* XQuery 2.3.4 latitude: one side may skip an erroneous subexpression
     whose value the plan never demands *)
  | Items _, Failed (Err.Dynamic, _) | Failed (Err.Dynamic, _), Items _ -> None
  | Items _, Failed (k, m) | Failed (k, m), Items _ ->
    Some (Printf.sprintf "%s error on one side only: %s" (Err.kind_label k) m)
  | Blew_up m, _ | _, Blew_up m ->
    Some (Printf.sprintf "uncaught exception: %s" m)

(* ------------------------------------------------------------------ main *)

let () =
  let seeds = ref 200 in
  let start = ref 0 in
  let deadline = ref 2.0 in
  let verbose = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--seeds" :: n :: rest -> seeds := int_of_string n; parse_args rest
    | "--start" :: n :: rest -> start := int_of_string n; parse_args rest
    | "--deadline" :: s :: rest -> deadline := float_of_string s; parse_args rest
    | "-v" :: rest | "--verbose" :: rest -> verbose := true; parse_args rest
    | a :: _ -> Printf.eprintf "fuzz_differential: unknown argument %s\n" a; exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* generous per-query budgets: a safety net, never a semantic actor —
     any Resource_error under these limits is reported as a divergence *)
  let budget_spec =
    Budget.limits ~timeout_s:!deadline ~max_rows:2_000_000
      ~max_bytes:200_000_000 ~max_ops:2_000_000 ()
  in
  let failures = ref 0 in
  let tolerated = ref 0 in
  for seed = !start to !start + !seeds - 1 do
    let prng = Prng.create seed in
    let lax = ref false in
    let q = gen_query ~lax prng in
    if !verbose then Printf.printf "seed %d: %s\n%!" seed q;
    let reference =
      evaluate ~opts:{ Engine.default_opts with Engine.backend = Engine.Interpreted } q
    in
    (match reference with
     | Blew_up m ->
       incr failures;
       Printf.printf "DIVERGENCE seed=%d [interp reference] query=%s\n  %s\n%!"
         seed q m
     | _ -> ());
    List.iter
      (fun (cname, run) ->
         let got = run q in
         (match (reference, got) with
          | Items _, Failed (Err.Dynamic, _) | Failed (Err.Dynamic, _), Items _ ->
            incr tolerated
          | _ -> ());
         match (cname, got) with
         | "compiled/tree", Failed (Err.Resource, _) ->
           (* cost inflation, not a semantic disagreement *)
           incr tolerated
         | _ ->
         match divergence ~lax:!lax reference got with
         | None -> ()
         | Some why ->
           incr failures;
           Printf.printf "DIVERGENCE seed=%d [%s] query=%s\n  %s\n%!" seed
             cname q why)
      (configs ~budget_spec)
  done;
  Printf.printf
    "fuzz_differential: %d seeds (%d..%d), %d configs each: %d divergences, \
     %d tolerated error-latitude disagreements\n%!"
    !seeds !start
    (!start + !seeds - 1)
    (List.length (configs ~budget_spec))
    !failures !tolerated;
  exit (if !failures > 0 then 1 else 0)

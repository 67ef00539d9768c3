(* Tests for morsel-driven parallel execution: the Pool scheduler's
   determinism contract, the domain-safety of the shared Budget and
   Profile instruments, and — the point of the whole layer — exact
   serial/parallel parity of the physical executor: identical rows in
   identical order, the identical error when several morsels could
   raise, and identical budget accounting, at every jobs width.

   Parallel runs force tiny morsels (the [?morsel] parameter) so that
   even toy tables split into many tasks and genuinely exercise the
   fan-out/merge machinery. *)

(* The engine reads XRQ_MORSEL lazily at its first physical execution;
   set it before anything runs so engine-level parity tests (which have
   no morsel knob) also split their small corpora into many morsels. *)
let () = Unix.putenv "XRQ_MORSEL" "4"

open Algebra
module Pool = Basis.Pool
module Budget = Basis.Budget
module Err = Basis.Err

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_dbl f = Value.Dbl f
let v_bool b = Value.Bool b

let store () = Xmldb.Doc_store.create ()

let table_strings t =
  List.init (Table.nrows t) (fun r ->
      String.concat "|"
        (Array.to_list
           (Array.map (Format.asprintf "%a" Value.pp) (Table.row t r))))

(* ------------------------------------------------------------ the pool *)

let test_pool_exactly_once () =
  let n = 200 in
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  Pool.run (Pool.get ()) ~jobs:4 n (fun i -> Atomic.incr ran.(i));
  Array.iteri
    (fun i c ->
       Alcotest.(check int) (Printf.sprintf "task %d ran exactly once" i) 1
         (Atomic.get c))
    ran

let test_pool_lowest_failure_wins () =
  let n = 50 in
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  let outcome =
    match
      Pool.run (Pool.get ()) ~jobs:4 n (fun i ->
          Atomic.incr ran.(i);
          if i = 3 || i = 17 then failwith (Printf.sprintf "task %d" i))
    with
    | () -> "ok"
    | exception Failure m -> m
  in
  (* both failures were recorded; the lowest task index is re-raised *)
  Alcotest.(check string) "lowest-indexed failure re-raised" "task 3" outcome;
  Array.iteri
    (fun i c ->
       Alcotest.(check int)
         (Printf.sprintf "task %d still ran despite failures" i) 1
         (Atomic.get c))
    ran

let test_pool_pretripped_stop () =
  let ran = Atomic.make 0 in
  Pool.run (Pool.get ()) ~jobs:4 ~stop:(fun () -> true) 100 (fun _ ->
      Atomic.incr ran);
  Alcotest.(check int) "a pre-tripped stop claims no tasks" 0 (Atomic.get ran)

let test_pool_serial_inline () =
  let me = Domain.self () in
  let order = ref [] in
  Pool.run (Pool.get ()) ~jobs:1 10 (fun i ->
      Alcotest.(check bool) "jobs=1 stays on the calling domain" true
        (Domain.self () = me);
      order := i :: !order);
  Alcotest.(check (list int)) "jobs=1 runs tasks in index order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_pool_nested_degrades () =
  let inner = Array.init 10 (fun _ -> Atomic.make 0) in
  let pool = Pool.get () in
  Pool.run pool ~jobs:4 4 (fun _ ->
      (* the board is occupied by the outer job: the nested run must
         degrade to inline serial execution, not deadlock or clobber *)
      Pool.run pool ~jobs:4 10 (fun i -> Atomic.incr inner.(i)));
  Array.iteri
    (fun i c ->
       Alcotest.(check int) (Printf.sprintf "inner task %d ran 4x" i) 4
         (Atomic.get c))
    inner

let test_pool_cancel_mid_job () =
  let c = Budget.cancel_switch () in
  let g = Budget.start (Budget.limits ~cancel:c ()) in
  let n = 64 in
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  Pool.run (Pool.get ()) ~jobs:4 ~stop:(fun () -> Budget.interrupted g) n
    (fun i ->
       Atomic.incr ran.(i);
       if i = 0 then Budget.cancel c);
  (* task 0 always runs (stop is still false when it is claimed); every
     other task runs at most once; the guard now reports interruption and
     converts it into the canonical cancellation error *)
  Alcotest.(check int) "task 0 ran" 1 (Atomic.get ran.(0));
  Array.iteri
    (fun i cnt ->
       Alcotest.(check bool)
         (Printf.sprintf "task %d at most once" i) true
         (Atomic.get cnt <= 1))
    ran;
  Alcotest.(check bool) "guard observes the cancellation" true
    (Budget.interrupted g);
  let msg =
    match Budget.check_interrupted g with
    | () -> "no error"
    | exception Err.Resource_error m -> m
  in
  Alcotest.(check string) "canonical cancellation error" "query cancelled" msg

(* ------------------------------------- budget counters across domains *)

let test_budget_atomic_counters () =
  let g = Budget.start Budget.unlimited in
  let per_task = 10_000 in
  Pool.run (Pool.get ()) ~jobs:4 4 (fun _ ->
      for _ = 1 to per_task do
        Budget.check g;
        Budget.add_rows g 1;
        Budget.add_bytes g 2
      done);
  Alcotest.(check int) "no op evaluation lost" (4 * per_task) (Budget.ops g);
  Alcotest.(check int) "no row lost" (4 * per_task) (Budget.rows g);
  Alcotest.(check int) "no byte lost" (2 * 4 * per_task) (Budget.bytes g)

let test_budget_cancel_from_other_domain () =
  let c = Budget.cancel_switch () in
  let g = Budget.start (Budget.limits ~cancel:c ()) in
  Alcotest.(check bool) "not yet interrupted" false (Budget.interrupted g);
  let d = Domain.spawn (fun () -> Budget.cancel c) in
  Domain.join d;
  Alcotest.(check bool) "cancellation visible across domains" true
    (Budget.interrupted g)

(* ------------------------------------ profile counters across domains *)

let test_profile_hammer () =
  let p = Profile.create () in
  let per_task = 10_000 in
  Pool.run (Pool.get ()) ~jobs:4 4 (fun d ->
      for k = 1 to per_task do
        Profile.add p "bucket" 0.001;
        Profile.add_node p ((d * per_task) + k) "lbl" 0.0005;
        Profile.add_kernel p ~rows_in:3 ~rows_out:1;
        if k mod 2 = 0 then Profile.count_retype p
      done);
  let n = 4 * per_task in
  Alcotest.(check int) "node evals exact" n (Profile.node_evals p);
  Alcotest.(check int) "unique nodes exact" n (Profile.unique_nodes p);
  let ph = Profile.phys p in
  Alcotest.(check int) "kernels exact" n ph.Profile.kernels;
  Alcotest.(check int) "fused ops = kernels" n ph.Profile.fused_ops;
  Alcotest.(check int) "rows in exact" (3 * n) ph.Profile.rows_in;
  Alcotest.(check int) "rows out exact" n ph.Profile.rows_out;
  Alcotest.(check int) "retypes exact" (n / 2) ph.Profile.retypes;
  let total = Profile.total p in
  Alcotest.(check bool) "bucket time within float tolerance" true
    (Float.abs (total -. (float_of_int n *. 0.001)) < 1e-6)

(* ------------------------------------- physical-level result parity *)

let jobs_widths = [ 2; 3; 4; 8 ]

let run_phys ?guard ?jobs ?morsel plan =
  Physical.run ?guard ?jobs ?morsel (store ()) (Lower.lower plan)

let check_par_parity ?(morsel = 2) msg plan =
  let serial = run_phys plan in
  List.iter
    (fun jobs ->
       let par = run_phys ~jobs ~morsel plan in
       Alcotest.(check (list string))
         (Printf.sprintf "%s: schema (jobs=%d)" msg jobs)
         (Array.to_list (Table.schema serial))
         (Array.to_list (Table.schema par));
       Alcotest.(check (list string))
         (Printf.sprintf "%s: rows (jobs=%d)" msg jobs)
         (table_strings serial) (table_strings par))
    jobs_widths

let phys_outcome ?guard ?jobs ?morsel plan =
  match run_phys ?guard ?jobs ?morsel plan with
  | t -> "ok: " ^ String.concat " ; " (table_strings t)
  | exception Err.Dynamic_error m -> "dynamic: " ^ m
  | exception Err.Resource_error m -> "resource: " ^ m
  | exception Err.Internal_error m -> "internal: " ^ m

let test_pipe_parity () =
  let b = Plan.builder () in
  let base =
    Plan.lit b [| "iter"; "item" |]
      (List.init 500 (fun i -> [| v_int (i mod 11); v_int (i * 13 mod 101) |]))
  in
  check_par_parity ~morsel:16 "fused select chain"
    (Plan.select b
       (Plan.fun2 b
          (Plan.attach b base "seven" (v_int 7))
          "keep" Plan.P_lt "iter" "seven")
       "keep");
  check_par_parity ~morsel:16 "arithmetic chain"
    (Plan.fun2 b
       (Plan.fun2 b base "s" Plan.P_add "item" "iter")
       "p" Plan.P_mul "s" "item");
  (* stacked selections: the composed selection vector must concatenate
     per-morsel fragments back into the serial order *)
  check_par_parity ~morsel:8 "stacked selects"
    (Plan.select b
       (Plan.select b
          (Plan.fun2 b
             (Plan.fun2 b base "p" Plan.P_ge "item" "iter")
             "q" Plan.P_lt "iter" "item")
          "p")
       "q")

let test_join_parity () =
  let b = Plan.builder () in
  let left =
    Plan.lit b [| "iter"; "k" |]
      (List.init 200 (fun i -> [| v_int i; v_int (i mod 10) |]))
  in
  let right =
    Plan.lit b [| "j"; "k2" |]
      (List.init 50 (fun i -> [| v_int (100 + i); v_int (i mod 10) |]))
  in
  check_par_parity ~morsel:8 "int equi-join with duplicate keys"
    (Plan.join b left right "k" "k2");
  let strs =
    Plan.lit b [| "i"; "inc" |]
      (List.init 60 (fun i ->
           [| v_int i; v_str (string_of_int (i * 37 mod 500)) |]))
  in
  let nums =
    Plan.lit b [| "j"; "price" |]
      (List.init 40 (fun j -> [| v_int j; v_dbl (float_of_int (j * 11)) |]))
  in
  (* the coerced nested loop — XMark Q11/Q12's hot shape *)
  check_par_parity ~morsel:4 "theta float coercion"
    (Plan.thetajoin b strs nums "inc" Plan.P_gt "price");
  check_par_parity ~morsel:4 "theta flipped"
    (Plan.thetajoin b nums strs "price" Plan.P_le "inc")

let test_aggregate_parity () =
  let b = Plan.builder () in
  let base =
    Plan.lit b [| "iter"; "item" |]
      (List.init 300 (fun i ->
           (* group keys appear in a scattered first-seen order *)
           [| v_int (i * 7 mod 13); v_int (i * 13 mod 101) |]))
  in
  check_par_parity ~morsel:8 "grouped count"
    (Plan.aggr b base "n" Plan.A_count None (Some "iter") None);
  check_par_parity ~morsel:8 "grouped sum"
    (Plan.aggr b base "s" Plan.A_sum (Some "item") (Some "iter") None);
  check_par_parity ~morsel:8 "grouped min"
    (Plan.aggr b base "m" Plan.A_min (Some "item") (Some "iter") None);
  check_par_parity ~morsel:8 "grouped max"
    (Plan.aggr b base "x" Plan.A_max (Some "item") (Some "iter") None);
  check_par_parity ~morsel:8 "ungrouped sum"
    (Plan.aggr b base "s" Plan.A_sum (Some "item") None None);
  check_par_parity ~morsel:8 "counted predicate"
    (Plan.aggr b
       (Plan.select b (Plan.fun2 b base "c" Plan.P_gt "item" "iter") "c")
       "n" Plan.A_count None (Some "iter") None)

let test_serial_gated_kernels_under_jobs () =
  let b = Plan.builder () in
  let base =
    Plan.lit b [| "iter"; "item" |]
      (List.init 120 (fun i -> [| v_int (i mod 5); v_int (i * 13 mod 17) |]))
  in
  (* rownum ([%]), distinct, rowid: gated serial, but they sit above and
     below parallel kernels and must compose with them under any width *)
  check_par_parity ~morsel:8 "rownum over a parallel selection"
    (Plan.rownum b
       (Plan.select b (Plan.fun2 b base "c" Plan.P_ge "item" "iter") "c")
       "pos"
       [ ("item", Plan.Desc) ]
       (Some "iter"));
  check_par_parity ~morsel:8 "distinct over a parallel chain"
    (Plan.distinct b
       (Plan.project b
          (Plan.fun2 b base "s" Plan.P_add "item" "iter")
          [ ("s", "s") ]));
  check_par_parity ~morsel:8 "rowid over a parallel selection"
    (Plan.rowid b
       (Plan.select b (Plan.fun2 b base "c" Plan.P_lt "item" "iter") "c")
       "id")

let test_mixed_columns_under_jobs () =
  let b = Plan.builder () in
  let mixed =
    Plan.lit b [| "iter"; "item" |]
      (List.init 40 (fun i ->
           let v =
             match i mod 4 with
             | 0 -> v_int i
             | 1 -> v_str (string_of_int (i mod 3))
             | 2 -> v_dbl (float_of_int i /. 2.0)
             | _ -> v_bool (i mod 8 < 4)
           in
           [| v_int i; v |]))
  in
  check_par_parity ~morsel:4 "boxed fallback under jobs"
    (Plan.rownum b mixed "pos" [ ("item", Plan.Asc) ] None);
  check_par_parity ~morsel:4 "distinct over mixed under jobs"
    (Plan.distinct b (Plan.project b mixed [ ("item", "item") ]))

(* ---------------------------------------------- error-choice parity *)

(* Two rows raise, in different morsels, with *distinguishable* messages
   (the non-boolean's type name is in the text). Whatever morsel a worker
   happens to finish first, the committed error must be the one serial
   execution meets first — the lowest row index. *)
let test_error_choice_across_morsels () =
  let b = Plan.builder () in
  let rows =
    List.init 200 (fun i ->
        let c =
          if i = 7 then v_str "s"
          else if i = 190 then v_int 3
          else v_bool true
        in
        [| v_int i; c |])
  in
  let plan = Plan.select b (Plan.lit b [| "iter"; "c" |] rows) "c" in
  let serial = phys_outcome plan in
  Alcotest.(check bool) "serial raises on the first bad row (a string)" true
    (serial = "dynamic: selection on non-boolean value xs:string");
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "error choice (jobs=%d)" jobs)
         serial
         (phys_outcome ~jobs ~morsel:8 plan))
    jobs_widths;
  (* same row, different kinds of error: arithmetic in a fused chain *)
  let div_rows =
    List.init 100 (fun i ->
        [| v_int i; v_int (if i = 23 || i = 77 then 0 else 1 + (i mod 5)) |])
  in
  let div_plan =
    Plan.fun2 b (Plan.lit b [| "x"; "y" |] div_rows) "r" Plan.P_idiv "x" "y"
  in
  let serial_div = phys_outcome div_plan in
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "division error parity (jobs=%d)" jobs)
         serial_div
         (phys_outcome ~jobs ~morsel:8 div_plan))
    jobs_widths

(* --------------------------------------------- budget / cancel parity *)

let big_plan b =
  let base =
    Plan.lit b [| "iter"; "item" |]
      (List.init 400 (fun i -> [| v_int (i mod 7); v_int (i * 13 mod 101) |]))
  in
  Plan.distinct b (Plan.fun2 b base "r" Plan.P_mul "item" "iter")

let test_budget_trip_parity () =
  let b = Plan.builder () in
  let plan = big_plan b in
  let with_spec spec jobs =
    let guard = Budget.start spec in
    if jobs = 1 then phys_outcome ~guard plan
    else phys_outcome ~guard ~jobs ~morsel:8 plan
  in
  List.iter
    (fun spec ->
       let serial = with_spec spec 1 in
       Alcotest.(check bool) "the budget actually trips" true
         (String.length serial > 9 && String.sub serial 0 9 = "resource:");
       List.iter
         (fun jobs ->
            Alcotest.(check string)
              (Printf.sprintf "budget message parity (jobs=%d)" jobs)
              serial (with_spec spec jobs))
         jobs_widths)
    [ Budget.limits ~max_rows:100 ();
      Budget.limits ~max_ops:2 ();
      Budget.limits ~timeout_s:0.0 () ];
  (* deterministic fault injection: op counting stays on the coordinator,
     so the n-th boundary is the same boundary at every width *)
  let fault = Budget.limits ~fault_at:2 () in
  let serial = with_spec fault 1 in
  Alcotest.(check bool) "the fault fires" true
    (String.length serial > 9 && String.sub serial 0 9 = "internal:");
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "fault-injection parity (jobs=%d)" jobs)
         serial (with_spec fault jobs))
    jobs_widths

let test_cancelled_before_run_parity () =
  let b = Plan.builder () in
  let plan = big_plan b in
  let outcome jobs =
    let c = Budget.cancel_switch () in
    Budget.cancel c;
    let guard = Budget.start (Budget.limits ~cancel:c ()) in
    if jobs = 1 then phys_outcome ~guard plan
    else phys_outcome ~guard ~jobs ~morsel:8 plan
  in
  let serial = outcome 1 in
  Alcotest.(check string) "serial sees the cancellation"
    "resource: query cancelled" serial;
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "cancellation parity (jobs=%d)" jobs)
         serial (outcome jobs))
    jobs_widths

(* A cancellation raced from a foreign domain mid-query may land before
   or after the query finishes — but the outcome must be one of exactly
   two canonical results: the full answer or the cancellation error. *)
let test_cancel_race_canonical_outcomes () =
  let b = Plan.builder () in
  let plan = big_plan b in
  let expected_ok = phys_outcome plan in
  for _ = 1 to 5 do
    let c = Budget.cancel_switch () in
    let guard = Budget.start (Budget.limits ~cancel:c ()) in
    let killer =
      Domain.spawn (fun () ->
          Unix.sleepf 0.0005;
          Budget.cancel c)
    in
    let got = phys_outcome ~guard ~jobs:4 ~morsel:2 plan in
    Domain.join killer;
    Alcotest.(check bool)
      "mid-run cancel yields the answer or the canonical error" true
      (got = expected_ok || got = "resource: query cancelled")
  done

(* -------------------------------------------- engine corpus parity *)

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"
let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let corpus_store () =
  let st = Xmldb.Doc_store.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
      (Lazy.force auction_xml)
  in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

let ser st items =
  List.map
    (fun it ->
       match it with
       | Value.Node n -> Xmldb.Serialize.node_to_string st n
       | v -> Value.to_string v)
    items

(* A fresh store per run: constructors mutate the store, and isolation
   keeps node serializations comparable across runs. *)
let engine_outcome ~opts q =
  let st = corpus_store () in
  match Engine.run_result ~opts st q with
  | Ok r -> "ok: " ^ String.concat " | " (ser st r.Engine.items)
  | Error { Engine.kind; message } -> Err.kind_label kind ^ ": " ^ message

let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let paper_queries () =
  Sys.readdir queries_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xq")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat queries_dir f)))

let check_corpus_parity (name, q) =
  let serial = engine_outcome ~opts:Engine.default_opts q in
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "%s (jobs=%d)" name jobs)
         serial
         (engine_outcome ~opts:{ Engine.default_opts with Engine.jobs } q))
    [ 2; 4; 8 ]

let test_paper_corpus_parity () = List.iter check_corpus_parity (paper_queries ())

let test_xmark_corpus_parity () =
  List.iter check_corpus_parity Xmark.Xmark_queries.all

let test_engine_budget_parity () =
  (* a budget that trips mid-query: the parallel run must report the
     identical resource error, not a different counter reading *)
  let spec = Basis.Budget.limits ~max_rows:200 () in
  let opts jobs = { Engine.default_opts with Engine.budget = Some spec; jobs } in
  let q = Xmark.Xmark_queries.q11 in
  let serial = engine_outcome ~opts:(opts 1) q in
  Alcotest.(check bool) "the engine budget actually trips" true
    (String.length serial > 9 && String.sub serial 0 9 = "resource:");
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "engine budget parity (jobs=%d)" jobs)
         serial
         (engine_outcome ~opts:(opts jobs) q))
    [ 2; 4 ]

(* Bulk-decode counts belong to the run that decoded the rows: two
   domains running the same profiled descendant scan at the same time
   must each report exactly the count of a solo run. *)
let test_bulk_decodes_per_run () =
  let st = corpus_store () in
  let q = {|count(doc("auction.xml")//item)|} in
  let opts = { Engine.default_opts with Engine.jobs = 1 } in
  let decodes () =
    match (Engine.run ~opts ~with_profile:true st q).Engine.profile with
    | Some p -> (Profile.phys p).Profile.bulk_decodes
    | None -> Alcotest.fail "profile requested but absent"
  in
  let solo = decodes () in
  Alcotest.(check bool) "the scan bulk-decodes" true (solo > 0);
  let go = Atomic.make false in
  let worker () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    List.init 50 (fun _ -> decodes ())
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Atomic.set go true;
  let counts = Domain.join d1 @ Domain.join d2 in
  List.iter
    (fun n -> Alcotest.(check int) "each profile counts its own run" solo n)
    counts

let test_engine_cancel_parity () =
  let outcome jobs =
    let c = Basis.Budget.cancel_switch () in
    Basis.Budget.cancel c;
    let spec = Basis.Budget.limits ~cancel:c () in
    engine_outcome
      ~opts:{ Engine.default_opts with Engine.budget = Some spec; jobs }
      Xmark.Xmark_queries.q1
  in
  let serial = outcome 1 in
  Alcotest.(check string) "cancelled before run" "resource: query cancelled"
    serial;
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "engine cancel parity (jobs=%d)" jobs)
         serial (outcome jobs))
    [ 2; 4 ]

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "every task exactly once" `Quick
           test_pool_exactly_once;
         Alcotest.test_case "lowest-indexed failure wins" `Quick
           test_pool_lowest_failure_wins;
         Alcotest.test_case "pre-tripped stop" `Quick test_pool_pretripped_stop;
         Alcotest.test_case "jobs=1 runs inline in order" `Quick
           test_pool_serial_inline;
         Alcotest.test_case "nested run degrades to serial" `Quick
           test_pool_nested_degrades;
         Alcotest.test_case "cancellation mid-job" `Quick
           test_pool_cancel_mid_job ]);
      ("shared instruments",
       [ Alcotest.test_case "budget counters are atomic" `Quick
           test_budget_atomic_counters;
         Alcotest.test_case "cancel crosses domains" `Quick
           test_budget_cancel_from_other_domain;
         Alcotest.test_case "profile survives a 4-domain hammer" `Quick
           test_profile_hammer;
         Alcotest.test_case "bulk decodes count per run" `Quick
           test_bulk_decodes_per_run ]);
      ("physical parity",
       [ Alcotest.test_case "pipes" `Quick test_pipe_parity;
         Alcotest.test_case "joins" `Quick test_join_parity;
         Alcotest.test_case "aggregates" `Quick test_aggregate_parity;
         Alcotest.test_case "serial-gated kernels" `Quick
           test_serial_gated_kernels_under_jobs;
         Alcotest.test_case "mixed columns" `Quick
           test_mixed_columns_under_jobs ]);
      ("error determinism",
       [ Alcotest.test_case "error choice across morsels" `Quick
           test_error_choice_across_morsels;
         Alcotest.test_case "budget trips" `Quick test_budget_trip_parity;
         Alcotest.test_case "cancelled before run" `Quick
           test_cancelled_before_run_parity;
         Alcotest.test_case "mid-run cancel race" `Quick
           test_cancel_race_canonical_outcomes ]);
      ("engine corpus",
       [ Alcotest.test_case "paper queries" `Slow test_paper_corpus_parity;
         Alcotest.test_case "XMark Q1-Q20" `Slow test_xmark_corpus_parity;
         Alcotest.test_case "budget parity" `Quick test_engine_budget_parity;
         Alcotest.test_case "cancel parity" `Quick test_engine_cancel_parity ])
    ]

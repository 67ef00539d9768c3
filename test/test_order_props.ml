(* The ordering-property framework, pinned from both ends.

   Part 1 — unit guards. Every order rule in [Algebra.Props] gets
   a fire case AND a no-fire case, built directly on the plan builder so
   the rule under test is isolated from the compiler: the staircase step
   emits document order only when its input is iter-sorted; [#] stamps a
   sorted key regardless of carrier order; [@] is order-neutral; joins
   pass the OUTER side's order and never the inner's (unless the outer
   is one row); Union kills facts but its sides become countable runs.
   The no-fire cases are the point: a rule that fires too eagerly is a
   wrong answer waiting for a query to expose it.

   Part 2 — the elision oracle. For every corpus query, under a FORCED
   [ordering mode ordered] prolog, the engine with ordering-property
   reasoning on (sorts elided, root sort skipped, merges) must produce
   byte-identical output to the serial engine with it off, at
   {serial, jobs = 4}. Order props prove facts about
   physical row order, never about the query's mode — so elision must be
   invisible even where order is fully observable.

   Part 3 — the claims check. Every claim the analysis makes about a
   node of a corpus plan (raw and optimized, XMark Q1–Q20 included,
   default and ordered-baseline options) holds on the table the
   reference executor produced for that node ([Claims]). *)

let () = Unix.putenv "XRQ_MORSEL" "4"

module P = Algebra.Plan
module O = Algebra.Props
module V = Algebra.Value

(* ------------------------------------------------------- unit helpers *)

let sat root req =
  let a = O.make () in
  O.satisfies a root req

let runs root req =
  let a = O.make () in
  O.sorted_runs a root req

let check_sat name expected root req =
  Alcotest.(check bool)
    (Printf.sprintf "%s [%s]" name (O.req_to_string req))
    expected (sat root req)

let ints b col xs = P.lit b [| col |] (List.map (fun i -> [| V.Int i |]) xs)

(* iter|item tables: [pairs] are (iter, item) rows *)
let ii b pairs =
  P.lit b [| "iter"; "item" |]
    (List.map (fun (i, v) -> [| V.Int i; V.Int v |]) pairs)

(* ------------------------------------------------------------- Part 1 *)

let test_lit () =
  let b = P.builder () in
  let asc = ints b "c" [ 1; 2; 2; 5 ] in
  check_sat "sorted lit proves asc" true asc [ ("c", P.Asc) ];
  check_sat "sorted lit does not prove desc" false asc [ ("c", P.Desc) ];
  let desc = ints b "c" [ 5; 3; 1 ] in
  check_sat "desc lit proves desc" true desc [ ("c", P.Desc) ];
  check_sat "desc lit does not prove asc" false desc [ ("c", P.Asc) ];
  (* literal inspection is clipped: a 65-row sorted table proves nothing *)
  let big = ints b "c" (List.init 65 Fun.id) in
  check_sat "oversized lit proves nothing" false big [ ("c", P.Asc) ];
  (* a one-row table satisfies every requirement (all columns const) *)
  let one = P.lit b [| "a"; "z" |] [ [| V.Int 7; V.Str "x" |] ] in
  check_sat "one-row lit satisfies anything" true one
    [ ("a", P.Desc); ("z", P.Asc) ]

(* At most one row (zero included) makes every column a key, which a join
   against the one-row side then passes on. *)
let keys n = (O.props (O.make ()) n).O.keys

let test_one_row_keys () =
  let b = P.builder () in
  let left =
    P.lit b [| "k"; "v" |]
      [ [| V.Int 1; V.Int 7 |]; [| V.Int 2; V.Int 7 |] ]
  in
  let empty = P.lit b [| "r" |] [] in
  Alcotest.(check (list string)) "empty lit: every column a key" [ "r" ]
    (O.SSet.elements (keys empty));
  Alcotest.(check (list string)) "join against an empty lit keeps the key"
    [ "k" ] (O.SSet.elements (keys (P.join b left empty "v" "r")));
  (* no-fire: two rows with a duplicate value are not a key *)
  let dup = ints b "r" [ 7; 7 ] in
  Alcotest.(check (list string)) "duplicate two-row lit: no key" []
    (O.SSet.elements (keys dup));
  Alcotest.(check (list string)) "join against it keeps no key" []
    (O.SSet.elements (keys (P.join b left dup "v" "r")))

let test_rowid () =
  let b = P.builder () in
  let unsorted = ints b "c" [ 3; 1; 2 ] in
  let rid = P.rowid b unsorted "rid" in
  (* # stamps 1..n in row order: a sorted key, whatever the carrier *)
  check_sat "# result is ascending" true rid [ ("rid", P.Asc) ];
  check_sat "# does not sort the carrier" false rid [ ("c", P.Asc) ];
  (* ...and being a key, a matched rid prefix pins any suffix *)
  check_sat "# key pins the suffix" true rid [ ("rid", P.Asc); ("c", P.Desc) ];
  check_sat "# result is not descending" false rid [ ("rid", P.Desc) ]

let test_attach () =
  let b = P.builder () in
  let sorted = ints b "c" [ 1; 2; 3 ] in
  let att = P.attach b sorted "k" (V.Str "x") in
  (* a const column is order-neutral: both directions hold *)
  check_sat "@ const asc" true att [ ("k", P.Asc) ];
  check_sat "@ const desc" true att [ ("k", P.Desc) ];
  (* the carrier's order survives, alone and under the const *)
  check_sat "@ keeps carrier order" true att [ ("c", P.Asc) ];
  check_sat "@ const + carrier" true att [ ("k", P.Desc); ("c", P.Asc) ];
  let unsorted = ints b "c" [ 3; 1; 2 ] in
  let att2 = P.attach b unsorted "k" (V.Str "x") in
  check_sat "@ invents no carrier order" false att2 [ ("c", P.Asc) ]

let test_step_staircase () =
  let b = P.builder () in
  (* iter sorted, item deliberately NOT sorted: the step's document-order
     output must come from the staircase contract, not the input *)
  let inp = ii b [ (1, 9); (1, 3); (2, 7) ] in
  let st = P.step b inp Xmldb.Axis.Child P.N_any in
  check_sat "staircase emits iter-major document order" true st
    [ ("iter", P.Asc); ("item", P.Asc) ];
  check_sat "staircase output iter-sorted" true st [ ("iter", P.Asc) ];
  (* item alone is NOT globally sorted across iteration groups *)
  check_sat "doc order is per-group, not global" false st
    [ ("item", P.Asc) ];
  (* no-fire: an iter-unsorted input voids the contract *)
  let shuffled = ii b [ (2, 1); (1, 2) ] in
  let st2 = P.step b shuffled Xmldb.Axis.Child P.N_any in
  check_sat "unsorted iter: no document-order fact" false st2
    [ ("iter", P.Asc); ("item", P.Asc) ];
  (* single iteration group: const iter strips away; item becomes a
     duplicate-free sorted key and pins any suffix *)
  let one_group = ii b [ (1, 9); (1, 3); (1, 7) ] in
  let st3 = P.step b one_group Xmldb.Axis.Descendant P.N_wild in
  check_sat "const iter: item globally sorted" true st3 [ ("item", P.Asc) ];
  check_sat "const iter: item key pins suffix" true st3
    [ ("item", P.Asc); ("iter", P.Desc) ]

let test_join_outer_order () =
  let b = P.builder () in
  let left =
    P.lit b [| "l"; "a" |]
      [ [| V.Int 1; V.Int 10 |]; [| V.Int 2; V.Int 20 |];
        [| V.Int 3; V.Int 30 |] ]
  in
  let right =
    P.lit b [| "r"; "z" |]
      [ [| V.Int 1; V.Int 5 |]; [| V.Int 2; V.Int 6 |] ]
  in
  let j = P.join b left right "l" "r" in
  (* probes run left-major: the outer's order survives... *)
  check_sat "join keeps outer order" true j [ ("a", P.Asc) ];
  (* ...the inner's does NOT (bucket hits interleave across probes) *)
  check_sat "join drops inner order" false j [ ("z", P.Asc) ];
  (* unless the outer is a single row — then output IS the inner subset *)
  let left1 = P.lit b [| "l"; "a" |] [ [| V.Int 1; V.Int 10 |] ] in
  let j1 = P.join b left1 right "l" "r" in
  check_sat "one-row outer: inner order passes" true j1 [ ("z", P.Asc) ];
  (* Cross has the same outer-major discipline *)
  let c = P.cross b left right in
  check_sat "cross keeps outer order" true c [ ("a", P.Asc) ];
  check_sat "cross drops inner order" false c [ ("z", P.Asc) ];
  (* Thetajoin's sort-based path may reorder matches: inner order never
     passes, not even under a one-row outer *)
  let tj = P.thetajoin b left1 right "l" P.P_lt "r" in
  check_sat "thetajoin keeps outer order" true tj [ ("a", P.Asc) ];
  check_sat "thetajoin never passes inner order" false tj [ ("z", P.Asc) ]

let test_select_subsequence () =
  let b = P.builder () in
  let t =
    P.lit b [| "c"; "flag" |]
      [ [| V.Int 1; V.Bool true |]; [| V.Int 2; V.Bool false |];
        [| V.Int 3; V.Bool true |] ]
  in
  let sel = P.select b t "flag" in
  (* a subsequence of a sorted sequence is sorted *)
  check_sat "select keeps order" true sel [ ("c", P.Asc) ];
  (* the selection column is const true afterwards: order-neutral *)
  check_sat "select col is const" true sel [ ("flag", P.Desc) ];
  let u =
    P.lit b [| "c"; "flag" |]
      [ [| V.Int 3; V.Bool true |]; [| V.Int 1; V.Bool true |] ]
  in
  check_sat "select invents no order" false (P.select b u "flag")
    [ ("c", P.Asc) ]

let test_rownum_props () =
  let b = P.builder () in
  let sorted = ints b "c" [ 1; 2; 3 ] in
  let rn = P.rownum b sorted "rk" [ ("c", P.Asc) ] None in
  (* ranks over an already-ordered input are 1..n in row order *)
  check_sat "% over sorted input: ranks ascend" true rn [ ("rk", P.Asc) ];
  let unsorted = ints b "c" [ 3; 1; 2 ] in
  let rn2 = P.rownum b unsorted "rk" [ ("c", P.Asc) ] None in
  (* the rank VALUES are a permutation here, not the row order *)
  check_sat "% over unsorted input: no rank fact" false rn2
    [ ("rk", P.Asc) ]

let test_union_runs () =
  let b = P.builder () in
  let s1 = ints b "c" [ 1; 3; 5 ] in
  let s2 = ints b "c" [ 2; 4 ] in
  let s3 = ints b "c" [ 0; 6 ] in
  let u = P.union b s1 s2 in
  (* append kills global facts... *)
  check_sat "union kills facts" false u [ ("c", P.Asc) ];
  (* ...but each side is one run: a 2-way merge suffices *)
  Alcotest.(check (option int)) "union = 2 runs" (Some 2)
    (runs u [ ("c", P.Asc) ]);
  Alcotest.(check (option int)) "nested union sums runs" (Some 3)
    (runs (P.union b u s3) [ ("c", P.Asc) ]);
  Alcotest.(check (option int)) "sorted input = 1 run" (Some 1)
    (runs s1 [ ("c", P.Asc) ]);
  Alcotest.(check (option int)) "unsorted side proves nothing" None
    (runs (P.union b s1 (ints b "c" [ 9; 2 ])) [ ("c", P.Asc) ]);
  (* column-appending operators pass the run count through *)
  Alcotest.(check (option int)) "runs pass through #" (Some 2)
    (runs (P.rowid b u "rid") [ ("c", P.Asc) ])

(* The rewrite rule itself: % over a provably-ordered input becomes #,
   exactly once, and only when the analysis is enabled. *)
let test_sort_elision_rewrite () =
  let b = P.builder () in
  let base = ints b "c" [ 3; 1; 2 ] in
  let rid = P.rowid b base "rid" in
  let root = P.rownum b rid "rk" [ ("rid", P.Asc) ] None in
  let elided, st = Algebra.Rewrite.optimize ~order_props:true b root in
  Alcotest.(check (option int)) "sort-elision fires once" (Some 1)
    (List.assoc_opt "sort-elision" st.Algebra.Rewrite.fires);
  Alcotest.(check int) "no % remains" 0 (P.count_kind elided "%");
  let kept, st_off = Algebra.Rewrite.optimize ~order_props:false b root in
  Alcotest.(check (option int)) "disabled: rule never fires" None
    (List.assoc_opt "sort-elision" st_off.Algebra.Rewrite.fires);
  Alcotest.(check int) "disabled: % survives" 1 (P.count_kind kept "%");
  (* no-fire: a % whose order is NOT proved must survive even enabled *)
  let needy = P.rownum b base "rk" [ ("c", P.Asc) ] None in
  let kept2, _ = Algebra.Rewrite.optimize ~order_props:true b needy in
  Alcotest.(check int) "unproved order: % survives" 1
    (P.count_kind kept2 "%")

(* ------------------------------------------------------------- Part 2 *)

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"
let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let mk_store () =
  let st = Xmldb.Doc_store.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
      (Lazy.force auction_xml)
  in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus () =
  Sys.readdir queries_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xq")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat queries_dir f)))

let run_exact ~order_props ~jobs text =
  let opts =
    { Engine.default_opts with
      Engine.mode = Some Xquery.Ast.Ordered;
      jobs;
      order_props }
  in
  let st = mk_store () in
  match Engine.run_result ~opts st text with
  | Ok r ->
    "ok: "
    ^ String.concat " | "
        (List.map
           (fun it ->
              match it with
              | V.Node n -> Xmldb.Serialize.node_to_string st n
              | v -> V.to_string v)
           r.Engine.items)
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

(* THE oracle: forced ordered mode, elision on vs off, serial and
   parallel — byte-for-byte. *)
let test_forced_ordered_oracle () =
  List.iter
    (fun (file, text) ->
       let reference = run_exact ~order_props:false ~jobs:1 text in
       List.iter
         (fun (cname, jobs) ->
            Alcotest.(check string)
              (Printf.sprintf "%s ordered-mode [%s]" file cname)
              reference
              (run_exact ~order_props:true ~jobs text))
         [ ("serial/on", 1); ("jobs4/on", 4) ])
    (corpus ())

(* Fire/no-fire guards at the engine level: where the rule must act on
   the real corpus, and where it must stay silent. *)
let fires_of ~order_props text =
  let opts = { Engine.default_opts with Engine.order_props } in
  (Engine.analyze ~opts text).Engine.arewrite.Algebra.Rewrite.fires

let test_corpus_fire_guards () =
  let q6 = read_file (Filename.concat queries_dir "paper_q6.xq") in
  let gold = read_file (Filename.concat queries_dir "gold_items.xq") in
  (match List.assoc_opt "sort-elision" (fires_of ~order_props:true q6) with
   | Some n when n > 0 -> ()
   | _ -> Alcotest.fail "paper_q6: sort-elision must fire");
  Alcotest.(check (option int)) "gold_items: no elidable sort" None
    (List.assoc_opt "sort-elision" (fires_of ~order_props:true gold));
  (* the flag really gates the rule, corpus-wide *)
  List.iter
    (fun (file, text) ->
       Alcotest.(check (option int))
         (file ^ ": order_props=false silences the rule") None
         (List.assoc_opt "sort-elision" (fires_of ~order_props:false text)))
    (corpus ())

(* Root-sort elision, observed through the profile counters: fires where
   the plan proves pos-order, stays silent where it cannot. *)
let root_elided file =
  let st = mk_store () in
  let text = read_file (Filename.concat queries_dir file) in
  let r = Engine.run ~with_profile:true st text in
  match r.Engine.profile with
  | None -> Alcotest.fail "profile requested but absent"
  | Some p -> (Algebra.Profile.phys p).Algebra.Profile.root_sort_elided

let test_root_sort_counters () =
  Alcotest.(check int) "paper_q6: root sort elided" 1
    (root_elided "paper_q6.xq");
  (* top_sellers ends in a descending order-by: pos-order is unprovable
     and the root sort MUST stay *)
  Alcotest.(check int) "top_sellers: root sort kept" 0
    (root_elided "top_sellers.xq")

(* ------------------------------------------------------------- Part 3 *)

let test_corpus_claims () =
  List.iter
    (fun (name, text) ->
       let st = mk_store () in
       let stats = Engine.stats_of_store st in
       List.iter
         (fun (oname, opts) ->
            let a = Engine.analyze ~opts ~stats text in
            List.iter
              (fun (pname, plan) ->
                 let ctx = Algebra.Eval.create st in
                 ignore (Algebra.Eval.eval ctx plan);
                 Alcotest.(check (list string))
                   (Printf.sprintf "%s %s %s" name oname pname)
                   [] (Claims.violations ctx plan))
              [ ("raw", a.Engine.araw); ("optimized", a.Engine.aoptimized) ])
         [ ("default", Engine.default_opts);
           ("baseline", Engine.ordered_baseline) ])
    (corpus () @ Xmark.Xmark_queries.all)

let () =
  Alcotest.run "order-props"
    [ ("rule guards: sources",
       [ Alcotest.test_case "literal tables" `Quick test_lit;
         Alcotest.test_case "rowid (#)" `Quick test_rowid;
         Alcotest.test_case "attach (@)" `Quick test_attach;
         Alcotest.test_case "staircase step" `Quick test_step_staircase;
         Alcotest.test_case "one row: every column a key" `Quick
           test_one_row_keys ]);
      ("rule guards: combinators",
       [ Alcotest.test_case "join/cross/thetajoin outer order" `Quick
           test_join_outer_order;
         Alcotest.test_case "select subsequence" `Quick
           test_select_subsequence;
         Alcotest.test_case "rownum (%)" `Quick test_rownum_props;
         Alcotest.test_case "union runs" `Quick test_union_runs ]);
      ("sort-elision rewrite",
       [ Alcotest.test_case "fire and no-fire" `Quick
           test_sort_elision_rewrite ]);
      ("elision oracle",
       [ Alcotest.test_case "corpus fire guards" `Quick
           test_corpus_fire_guards;
         Alcotest.test_case "root-sort counters" `Quick
           test_root_sort_counters;
         Alcotest.test_case "forced ordered mode, on = off, all executors"
           `Slow test_forced_ordered_oracle ]);
      ("claims",
       [ Alcotest.test_case "corpus: every claim holds on its node's table"
           `Quick test_corpus_claims ]) ]

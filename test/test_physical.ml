(* Tests for the physical-plan layer: lowering (one kernel per logical
   node, sharing preservation) and the typed kernels, checked
   differentially against
   [Eval], the boxed logical executor the tests keep as the reference.

   The physical executor promises *exact* parity with the reference —
   including row order (rownum's stability tie-break makes row order
   observable) — so tables are compared row-for-row, not as multisets,
   on hand-built plans and on the optimized plans of the whole query
   corpus. *)

open Algebra

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

(* Run a plan through both executors against fresh stores and demand
   identical schemas and identical rows in identical order. *)
let check_parity msg plan =
  let boxed = Eval.run (store ()) plan in
  let physical = Physical.run (store ()) (Lower.lower plan) in
  Alcotest.(check (list string))
    (msg ^ ": schema")
    (Array.to_list (Table.schema boxed))
    (Array.to_list (Table.schema physical));
  Alcotest.(check (list string))
    (msg ^ ": rows")
    (table_strings boxed) (table_strings physical)

(* Both executors must fail identically: same exception constructor and
   same message. *)
let check_error_parity msg plan =
  let outcome run =
    match run () with
    | (_ : Table.t) -> "ok"
    | exception Basis.Err.Dynamic_error m -> "dynamic: " ^ m
    | exception Basis.Err.Internal_error m -> "internal: " ^ m
  in
  Alcotest.(check string) msg
    (outcome (fun () -> Eval.run (store ()) plan))
    (outcome (fun () -> Physical.run (store ()) (Lower.lower plan)))

(* ------------------------------------------------------------ lowering *)

let test_one_kernel_per_node () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; v_int 4 |]; [| v_int 2; v_int 7 |]; [| v_int 3; v_int 1 |] ]
  in
  (* attach · fun2 · select: every logical node gets its own kernel *)
  let p =
    Plan.select b
      (Plan.fun2 b
         (Plan.attach b base "five" (v_int 5))
         "keep" Plan.P_lt "item" "five")
      "keep"
  in
  let pp = Lower.lower p in
  Alcotest.(check int) "kernels = logical ops" (Plan.count_ops p)
    (Lower.count_kernels pp);
  check_parity "attach · fun2 · select" p;
  (* the profile counts one kernel (and one covered op) per node, with
     the rows every kernel read and produced *)
  let prof = Profile.create () in
  ignore (Physical.run ~profile:prof (store ()) pp);
  let ph = Profile.phys prof in
  Alcotest.(check (pair int int)) "profiled kernels, covered ops" (4, 4)
    (ph.Profile.kernels, ph.Profile.fused_ops);
  let line = "physical: 4 kernels, 9 rows in, 11 rows out" in
  Alcotest.(check bool) ("profile prints: " ^ line) true
    (Astring.String.is_infix ~affix:line (Profile.to_string prof))

let test_sharing_preserved () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "item" |] [ [| v_int 1 |]; [| v_int 2 |] ] in
  (* [shared] feeds two parents: both must reach the same kernel *)
  let shared = Plan.attach b base "k" (v_int 1) in
  let left = Plan.fun2 b shared "s" Plan.P_add "item" "k" in
  let p = Plan.union b (Plan.project b left [ ("item", "s") ])
      (Plan.project b shared [ ("item", "item") ]) in
  let pp = Lower.lower p in
  let rec find_shared (n : Physical.pnode) seen =
    if List.memq n.Physical.pid !seen then true
    else begin
      seen := n.Physical.pid :: !seen;
      List.exists (fun c -> find_shared c seen) n.Physical.pinputs
    end
  in
  Alcotest.(check bool) "shared node kept its own kernel" true
    (find_shared pp (ref []));
  check_parity "sharing preserved" p

(* -------------------------------------------------------- empty tables *)

let test_empty_tables () =
  let b = Plan.builder () in
  let empty = Plan.lit b [| "iter"; "item" |] [] in
  check_parity "select over empty"
    (Plan.select b (Plan.fun2 b empty "c" Plan.P_lt "item" "iter") "c");
  check_parity "distinct over empty" (Plan.distinct b empty);
  check_parity "rownum over empty"
    (Plan.rownum b empty "pos" [ ("item", Plan.Asc) ] None);
  check_parity "rowid over empty" (Plan.rowid b empty "id");
  check_parity "join over empty"
    (Plan.join b empty
       (Plan.project b empty [ ("iter2", "iter"); ("item2", "item") ])
       "item" "item2");
  check_parity "union of empties"
    (Plan.union b empty (Plan.project b empty [ ("iter", "iter"); ("item", "item") ]));
  (* A_count with no grouping emits one row even on empty input *)
  check_parity "count over empty" (Plan.aggr b empty "n" Plan.A_count None None None);
  check_parity "grouped sum over empty"
    (Plan.aggr b empty "s" Plan.A_sum (Some "item") (Some "iter") None)

(* --------------------------------------------------- all-Mixed columns *)

let test_all_mixed_columns () =
  let b = Plan.builder () in
  (* one column mixing every atomic kind: no typed representation fits,
     every kernel must take its Mixed/boxed path *)
  let mixed = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; v_int 3 |];
        [| v_int 2; v_str "s" |];
        [| v_int 3; v_dbl 2.5 |];
        [| v_int 4; v_bool true |];
        [| v_int 5; v_str "s" |];
        [| v_int 6; v_int 3 |] ]
  in
  check_parity "distinct over mixed"
    (Plan.distinct b (Plan.project b mixed [ ("item", "item") ]));
  check_parity "rownum orders mixed by the total order"
    (Plan.rownum b mixed "pos" [ ("item", Plan.Asc) ] None);
  check_parity "join on mixed keys"
    (Plan.join b mixed
       (Plan.project b mixed [ ("iter2", "iter"); ("item2", "item") ])
       "item" "item2");
  check_parity "semijoin on mixed keys"
    (Plan.semijoin b mixed
       (Plan.project b mixed [ ("k", "item") ]) [ ("item", "k") ]);
  check_parity "grouped count partitioned on mixed"
    (Plan.aggr b mixed "n" Plan.A_count None (Some "item") None)

(* ---------------------------------------------------- select-of-select *)

let test_select_of_select () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      (List.init 20 (fun i -> [| v_int (i mod 4); v_int i |]))
  in
  let sel1 =
    Plan.select b (Plan.fun2 b base "a" Plan.P_gt "item" "iter") "a"
  in
  let sel2 =
    Plan.select b
      (Plan.attach b
         (Plan.fun2 b sel1 "bnd" Plan.P_lt "item" "iter") "t" (v_bool true))
      "bnd"
  in
  let pp = Lower.lower sel2 in
  Alcotest.(check int) "one kernel per logical node" (Plan.count_ops sel2)
    (Lower.count_kernels pp);
  check_parity "select of select" sel2;
  (* a selection stacked directly on a selection (no recompute between) *)
  check_parity "directly stacked selects"
    (Plan.select b (Plan.select b
         (Plan.fun2 b
            (Plan.fun2 b base "p" Plan.P_ge "item" "iter")
            "q" Plan.P_lt "iter" "item")
         "p") "q")

(* ---------------------------------------- distinct over a selection *)

let test_distinct_over_selection () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      (List.init 30 (fun i -> [| v_int (i mod 3); v_int (i mod 5) |]))
  in
  let selected =
    Plan.select b (Plan.fun2 b base "c" Plan.P_ge "item" "iter") "c"
  in
  check_parity "distinct over a selection"
    (Plan.distinct b (Plan.project b selected [ ("item", "item") ]));
  check_parity "rowid over a selection (scattered numbering)"
    (Plan.rowid b selected "id");
  check_parity "rownum over a selection"
    (Plan.rownum b selected "pos" [ ("item", Plan.Desc) ] (Some "iter"));
  check_parity "aggr over a selection"
    (Plan.aggr b selected "s" Plan.A_sum (Some "item") (Some "iter") None)

(* ------------------------------------------------- typed-path parity *)

let test_float_comparison_parity () =
  let b = Plan.builder () in
  (* NaN and the two zeros: the boxed comparator is Float.compare behind
     a NaN guard, which separates -0.0 from 0.0 — the typed kernels must
     reproduce that, not IEEE equality *)
  let base = Plan.lit b [| "x"; "y" |]
      [ [| v_dbl 0.0; v_dbl (-0.0) |];
        [| v_dbl (-0.0); v_dbl 0.0 |];
        [| v_dbl Float.nan; v_dbl 1.0 |];
        [| v_dbl 1.0; v_dbl Float.nan |];
        [| v_dbl 2.5; v_dbl 2.5 |] ]
  in
  List.iter
    (fun (name, f) ->
       check_parity name (Plan.fun2 b base "r" f "x" "y"))
    [ ("float eq", Plan.P_eq); ("float ne", Plan.P_ne);
      ("float lt", Plan.P_lt); ("float le", Plan.P_le);
      ("float gt", Plan.P_gt); ("float ge", Plan.P_ge) ];
  check_parity "rownum sorts -0.0 before 0.0"
    (Plan.rownum b base "pos" [ ("x", Plan.Asc) ] None)

let test_int_arithmetic_parity () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "x"; "y" |]
      [ [| v_int 7; v_int 2 |]; [| v_int (-7); v_int 2 |];
        [| v_int 7; v_int (-2) |]; [| v_int 0; v_int 5 |] ]
  in
  List.iter
    (fun (name, f) -> check_parity name (Plan.fun2 b base "r" f "x" "y"))
    [ ("int add", Plan.P_add); ("int sub", Plan.P_sub);
      ("int mul", Plan.P_mul); ("int idiv", Plan.P_idiv);
      ("int mod", Plan.P_mod); ("int div", Plan.P_div) ]

let test_theta_coercion_parity () =
  let b = Plan.builder () in
  (* untyped strings vs numerics: the coercion shape Q11/Q12 hit, where
     the typed path pre-coerces each row to its double key once *)
  let strs =
    Plan.lit b [| "i"; "inc" |]
      [ [| v_int 1; v_str "4000.50" |]; [| v_int 2; v_str "120" |];
        [| v_int 3; v_str "99000" |]; [| v_int 4; v_str "NaN" |] ]
  in
  let nums =
    Plan.lit b [| "j"; "price" |]
      [ [| v_int 10; v_dbl 150.0 |]; [| v_int 11; v_int 4000 |];
        [| v_int 12; v_dbl Float.nan |]; [| v_int 13; v_dbl 120.0 |] ]
  in
  List.iter
    (fun (name, f) ->
       check_parity name (Plan.thetajoin b strs nums "inc" f "price");
       check_parity (name ^ " flipped")
         (Plan.thetajoin b nums strs "price" f "inc"))
    [ ("theta gt", Plan.P_gt); ("theta lt", Plan.P_lt);
      ("theta ge", Plan.P_ge); ("theta le", Plan.P_le) ];
  (* an uncoercible string raises the same error from the same pair
     position as the boxed nested loop *)
  let bad =
    Plan.lit b [| "i"; "k" |]
      [ [| v_int 1; v_str "12" |]; [| v_int 2; v_str "pear" |] ]
  in
  check_error_parity "uncoercible string in theta"
    (Plan.thetajoin b bad nums "k" Plan.P_lt "price");
  (* empty sides never touch the other side's values *)
  let empty_nums = Plan.lit b [| "j"; "price" |] [] in
  check_parity "theta with empty right"
    (Plan.thetajoin b bad empty_nums "k" Plan.P_lt "price")

let test_error_parity () =
  let b = Plan.builder () in
  let bad = Plan.lit b [| "x"; "y" |] [ [| v_int 1; v_int 0 |] ] in
  check_error_parity "idiv by zero" (Plan.fun2 b bad "r" Plan.P_idiv "x" "y");
  check_error_parity "mod by zero" (Plan.fun2 b bad "r" Plan.P_mod "x" "y");
  check_error_parity "selection on non-boolean"
    (Plan.select b (Plan.lit b [| "c" |] [ [| v_int 3 |] ]) "c");
  (* dead rows: a selection upstream removes the erroneous row before the
     arithmetic sees it — both sides must succeed *)
  let guarded =
    let base = Plan.lit b [| "x"; "y" |]
        [ [| v_int 10; v_int 2 |]; [| v_int 1; v_int 0 |] ]
    in
    let keep = Plan.fun2 b base "k" Plan.P_ne "y" "y" in
    Plan.select b keep "k"
  in
  check_parity "selection removes all rows" guarded

(* ------------------------------------------------------ corpus parity *)

(* The optimized plan of every corpus query — queries/*.xq and XMark
   Q1-Q20 at scale 0.002 — run through the reference executor and the
   physical kernels, serially and at jobs 4 over forced-tiny morsels:
   same schema, same rows, same order (or the same error). Each run arms
   an unlimited budget, and both executors must also cross the same
   number of operator boundaries and charge the same rows. *)
let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let corpus_store () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
       (Lazy.force auction_xml));
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"t.xml"
       "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>");
  st

let test_corpus_parity () =
  let files =
    Sys.readdir queries_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat queries_dir f)))
  in
  List.iter
    (fun (name, q) ->
       let stats = Engine.stats_of_store (corpus_store ()) in
       let plan = (Engine.analyze ~stats q).Engine.aoptimized in
       let pp = Engine.lower_physical ~stats plan in
       let outcome run =
         let guard = Basis.Budget.start Basis.Budget.unlimited in
         let rows =
           match run ~guard (corpus_store ()) with
           | t -> Array.to_list (Table.schema t) @ table_strings t
           | exception e -> [ Printexc.to_string e ]
         in
         Printf.sprintf "budget: %d ops, %d rows" (Basis.Budget.ops guard)
           (Basis.Budget.rows guard)
         :: rows
       in
       let reference = outcome (fun ~guard st -> Eval.run ~guard st plan) in
       List.iter
         (fun jobs ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s (jobs=%d)" name jobs)
              reference
              (outcome (fun ~guard st ->
                   Physical.run ~guard ~jobs ~morsel:4 st pp)))
         [ 1; 4 ])
    (files @ Xmark.Xmark_queries.all)

(* -------------------------------------------------- budget integration *)

let test_budget_through_physical () =
  let b = Plan.builder () in
  let big = Plan.lit b [| "item" |] (List.init 100 (fun i -> [| v_int i |])) in
  let p = Plan.distinct b (Plan.fun2 b big "r" Plan.P_mul "item" "item") in
  let spec = Basis.Budget.limits ~max_rows:50 () in
  let outcome () =
    match Physical.run ~guard:(Basis.Budget.start spec) (store ())
            (Lower.lower p)
    with
    | (_ : Table.t) -> "ok"
    | exception Basis.Err.Resource_error _ -> "resource"
  in
  Alcotest.(check string) "row budget trips through physical kernels"
    "resource" (outcome ())

let () =
  Alcotest.run "physical"
    [ ("lowering",
       [ Alcotest.test_case "one kernel per node" `Quick
           test_one_kernel_per_node;
         Alcotest.test_case "sharing preserved" `Quick test_sharing_preserved ]);
      ("kernels",
       [ Alcotest.test_case "empty tables" `Quick test_empty_tables;
         Alcotest.test_case "all-Mixed columns" `Quick test_all_mixed_columns;
         Alcotest.test_case "select of select" `Quick test_select_of_select;
         Alcotest.test_case "distinct over selection" `Quick
           test_distinct_over_selection ]);
      ("typed parity",
       [ Alcotest.test_case "float comparisons" `Quick
           test_float_comparison_parity;
         Alcotest.test_case "int arithmetic" `Quick
           test_int_arithmetic_parity;
         Alcotest.test_case "theta-join coercion" `Quick
           test_theta_coercion_parity;
         Alcotest.test_case "errors" `Quick test_error_parity ]);
      ("budgets",
       [ Alcotest.test_case "budget trips" `Quick
           test_budget_through_physical ]);
      ("corpus",
       [ Alcotest.test_case "reference = physical, row for row" `Slow
           test_corpus_parity ]) ]

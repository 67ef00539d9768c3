(* Plan-shape golden tests.

   Every query of the benchmark corpus — queries/*.xq plus XMark
   Q1–Q20 — is compiled under the two canonical option
   sets — default_opts (order indifference on) and ordered_baseline
   (Figure-7 rules and CDA off) — and the shape of the optimized plan is
   pinned exactly: total operator count, rownum (%) count, rowid (#)
   count, join count, and the tree-node count (the plan unfolded without
   sharing). Any compiler, optimizer, or hash-consing change that moves a
   plan shape shows up here as a one-line diff.

   Regenerating after an intentional change:

     PLAN_SHAPES_DUMP=1 dune exec test/test_plan_shapes.exe

   prints the golden table in source form; paste it over [golden] below
   and eyeball the delta. *)

module P = Algebra.Plan

(* dune runtest runs in _build/default/test; dune exec runs at the root *)
let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let query_files =
  [ "existential_join.xq"; "gold_items.xq"; "income_histogram.xq";
    "paper_expression3.xq"; "paper_fig10.xq"; "paper_q11.xq"; "paper_q6.xq";
    "quantifier_semijoin.xq"; "top_sellers.xq"; "xpath_existentials.xq" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let xmark_names = List.map fst Xmark.Xmark_queries.all

(* a corpus entry is a file under queries/ or an XMark query name *)
let query_text name =
  if Filename.check_suffix name ".xq" then
    read_file (Filename.concat queries_dir name)
  else Xmark.Xmark_queries.get name

type shape = {
  ops : int;        (* unique operators (DAG nodes) *)
  rownums : int;    (* % — the order bookkeeping the paper removes *)
  rowids : int;     (* # *)
  joins : int;      (* ⋈, ⋈θ, semi/anti, × *)
  tree_nodes : int; (* the plan unfolded without sharing *)
  ord_nodes : int;  (* nodes with a provable ordering fact (Algebra.Props) *)
  root_ord : string;
      (* the root's ordering annotation; "ord:pos↑" (or a const pos /
         one-row proof folded into it) is what licenses root-sort
         elision *)
}

let shape_of root =
  let rownums = ref 0 and rowids = ref 0 and joins = ref 0 in
  let a = Algebra.Props.make () in
  let ord_nodes = ref 0 in
  List.iter
    (fun (n : P.node) ->
       (match n.P.op with
        | P.Rownum _ -> incr rownums
        | P.Rowid _ -> incr rowids
        | P.Join _ | P.Thetajoin _ | P.Semijoin _ | P.Antijoin _
        | P.Cross _ -> incr joins
        | _ -> ());
       if Algebra.Props.annotate a n <> "" then incr ord_nodes)
    (P.topo_order root);
  let root_ord =
    if Algebra.Props.satisfies a root [ ("pos", P.Asc) ] then "pos-sorted"
    else
      match Algebra.Props.annotate a root with "" -> "unordered" | s -> s
  in
  { ops = P.count_ops root;
    rownums = !rownums;
    rowids = !rowids;
    joins = !joins;
    tree_nodes = P.count_tree_nodes root;
    ord_nodes = !ord_nodes;
    root_ord }

let compile opts text =
  let _, _, optimized = Engine.plans_of ~opts text in
  shape_of optimized

(* The rewriter's per-rule fire counts under default_opts. A rule
   missing from a query's list must NOT fire on it: each rule has at
   least one query where it fires and several where it must not. *)
let rule_fires text =
  (Engine.analyze ~opts:Engine.default_opts text).Engine.arewrite
    .Algebra.Rewrite.fires

(* (file, shape under default_opts, shape under ordered_baseline);
   regenerate with PLAN_SHAPES_DUMP=1 (see header). *)
let golden : (string * shape * shape) list =
  [ ("existential_join.xq",
     { ops = 57; rownums = 0; rowids = 2; joins = 8; tree_nodes = 350;
       ord_nodes = 50; root_ord = "pos-sorted" },
     { ops = 115; rownums = 14; rowids = 0; joins = 9; tree_nodes = 1384;
       ord_nodes = 104; root_ord = "pos-sorted" });
    ("gold_items.xq",
     { ops = 129; rownums = 1; rowids = 3; joins = 19; tree_nodes = 4086;
       ord_nodes = 93; root_ord = "pos-sorted" },
     { ops = 201; rownums = 12; rowids = 0; joins = 19; tree_nodes = 8830;
       ord_nodes = 151; root_ord = "pos-sorted" });
    ("income_histogram.xq",
     { ops = 215; rownums = 1; rowids = 2; joins = 30; tree_nodes = 2040;
       ord_nodes = 183; root_ord = "pos-sorted" },
     { ops = 356; rownums = 20; rowids = 0; joins = 32; tree_nodes = 5647;
       ord_nodes = 288; root_ord = "pos-sorted" });
    ("paper_expression3.xq",
     { ops = 86; rownums = 2; rowids = 2; joins = 10; tree_nodes = 329;
       ord_nodes = 58; root_ord = "unordered" },
     { ops = 122; rownums = 7; rowids = 0; joins = 10; tree_nodes = 588;
       ord_nodes = 98; root_ord = "unordered" });
    ("paper_fig10.xq",
     { ops = 26; rownums = 0; rowids = 2; joins = 2; tree_nodes = 54;
       ord_nodes = 23; root_ord = "pos-sorted" },
     { ops = 49; rownums = 7; rowids = 0; joins = 2; tree_nodes = 104;
       ord_nodes = 43; root_ord = "ord:iter\226\134\145; iter\226\134\147" });
    ("paper_q11.xq",
     { ops = 98; rownums = 2; rowids = 4; joins = 13; tree_nodes = 666;
       ord_nodes = 88; root_ord = "pos-sorted" },
     { ops = 163; rownums = 16; rowids = 0; joins = 13; tree_nodes = 1326;
       ord_nodes = 143; root_ord = "pos-sorted" });
    ("paper_q6.xq",
     { ops = 27; rownums = 0; rowids = 2; joins = 3; tree_nodes = 76;
       ord_nodes = 24; root_ord = "pos-sorted" },
     { ops = 54; rownums = 7; rowids = 0; joins = 3; tree_nodes = 168;
       ord_nodes = 49; root_ord = "pos-sorted" });
    ("quantifier_semijoin.xq",
     { ops = 80; rownums = 1; rowids = 3; joins = 11; tree_nodes = 534;
       ord_nodes = 75; root_ord = "pos-sorted" },
     { ops = 149; rownums = 11; rowids = 0; joins = 13; tree_nodes = 4086;
       ord_nodes = 125; root_ord = "pos-sorted" });
    ("top_sellers.xq",
     { ops = 125; rownums = 2; rowids = 3; joins = 19; tree_nodes = 3692;
       ord_nodes = 101; root_ord = "unordered" },
     { ops = 210; rownums = 17; rowids = 1; joins = 20; tree_nodes = 13656;
       ord_nodes = 124; root_ord = "ord:iter\226\134\145; iter\226\134\147" });
    ("xpath_existentials.xq",
     { ops = 63; rownums = 1; rowids = 4; joins = 10; tree_nodes = 615;
       ord_nodes = 61; root_ord = "pos-sorted" },
     { ops = 126; rownums = 15; rowids = 0; joins = 10; tree_nodes = 2346;
       ord_nodes = 104; root_ord = "pos-sorted" });
    ("Q1",
     { ops = 62; rownums = 4; rowids = 2; joins = 9; tree_nodes = 480;
       ord_nodes = 48; root_ord = "unordered" },
     { ops = 116; rownums = 14; rowids = 0; joins = 10; tree_nodes = 1761;
       ord_nodes = 96; root_ord = "ord:iter\226\134\145; iter\226\134\147" });
    ("Q2",
     { ops = 69; rownums = 3; rowids = 4; joins = 10; tree_nodes = 250;
       ord_nodes = 68; root_ord = "pos-sorted" },
     { ops = 122; rownums = 14; rowids = 0; joins = 10; tree_nodes = 487;
       ord_nodes = 122; root_ord = "pos-sorted" });
    ("Q3",
     { ops = 230; rownums = 7; rowids = 6; joins = 41; tree_nodes = 49067;
       ord_nodes = 214; root_ord = "pos-sorted" },
     { ops = 388; rownums = 34; rowids = 0; joins = 42; tree_nodes = 190329;
       ord_nodes = 328; root_ord = "pos-sorted" });
    ("Q4",
     { ops = 123; rownums = 1; rowids = 6; joins = 22; tree_nodes = 4821;
       ord_nodes = 122; root_ord = "pos-sorted" },
     { ops = 246; rownums = 21; rowids = 0; joins = 26; tree_nodes = 73890;
       ord_nodes = 179; root_ord = "pos-sorted" });
    ("Q5",
     { ops = 47; rownums = 0; rowids = 2; joins = 6; tree_nodes = 298;
       ord_nodes = 37; root_ord = "pos-sorted" },
     { ops = 78; rownums = 9; rowids = 0; joins = 6; tree_nodes = 562;
       ord_nodes = 50; root_ord = "pos-sorted" });
    ("Q6",
     { ops = 27; rownums = 0; rowids = 2; joins = 3; tree_nodes = 76;
       ord_nodes = 24; root_ord = "pos-sorted" },
     { ops = 54; rownums = 7; rowids = 0; joins = 3; tree_nodes = 168;
       ord_nodes = 49; root_ord = "pos-sorted" });
    ("Q7",
     { ops = 56; rownums = 0; rowids = 2; joins = 7; tree_nodes = 173;
       ord_nodes = 35; root_ord = "pos-sorted" },
     { ops = 90; rownums = 7; rowids = 0; joins = 7; tree_nodes = 318;
       ord_nodes = 57; root_ord = "pos-sorted" });
    ("Q8",
     { ops = 87; rownums = 2; rowids = 4; joins = 11; tree_nodes = 508;
       ord_nodes = 77; root_ord = "pos-sorted" },
     { ops = 146; rownums = 16; rowids = 0; joins = 11; tree_nodes = 1006;
       ord_nodes = 126; root_ord = "pos-sorted" });
    ("Q9",
     { ops = 121; rownums = 4; rowids = 6; joins = 16; tree_nodes = 654;
       ord_nodes = 113; root_ord = "pos-sorted" },
     { ops = 214; rownums = 27; rowids = 0; joins = 16; tree_nodes = 1315;
       ord_nodes = 153; root_ord = "pos-sorted" });
    ("Q10",
     { ops = 180; rownums = 11; rowids = 4; joins = 18; tree_nodes = 1355;
       ord_nodes = 164; root_ord = "pos-sorted" },
     { ops = 324; rownums = 30; rowids = 1; joins = 18; tree_nodes = 2788;
       ord_nodes = 168; root_ord = "pos-sorted" });
    ("Q11",
     { ops = 98; rownums = 2; rowids = 4; joins = 13; tree_nodes = 666;
       ord_nodes = 88; root_ord = "pos-sorted" },
     { ops = 163; rownums = 16; rowids = 0; joins = 13; tree_nodes = 1326;
       ord_nodes = 143; root_ord = "pos-sorted" });
    ("Q12",
     { ops = 115; rownums = 2; rowids = 5; joins = 16; tree_nodes = 1190;
       ord_nodes = 101; root_ord = "pos-sorted" },
     { ops = 184; rownums = 17; rowids = 0; joins = 16; tree_nodes = 2278;
       ord_nodes = 95; root_ord = "unordered" });
    ("Q13",
     { ops = 56; rownums = 3; rowids = 2; joins = 5; tree_nodes = 161;
       ord_nodes = 50; root_ord = "pos-sorted" },
     { ops = 95; rownums = 10; rowids = 0; joins = 5; tree_nodes = 324;
       ord_nodes = 87; root_ord = "pos-sorted" });
    ("Q14",
     { ops = 70; rownums = 2; rowids = 1; joins = 10; tree_nodes = 819;
       ord_nodes = 51; root_ord = "unordered" },
     { ops = 109; rownums = 8; rowids = 0; joins = 10; tree_nodes = 1664;
       ord_nodes = 85; root_ord = "ord:iter\226\134\145; iter\226\134\147" });
    ("Q15",
     { ops = 39; rownums = 0; rowids = 2; joins = 3; tree_nodes = 107;
       ord_nodes = 38; root_ord = "pos-sorted" },
     { ops = 91; rownums = 15; rowids = 0; joins = 3; tree_nodes = 289;
       ord_nodes = 91; root_ord = "pos-sorted" });
    ("Q16",
     { ops = 72; rownums = 1; rowids = 2; joins = 8; tree_nodes = 1040;
       ord_nodes = 52; root_ord = "pos-sorted" },
     { ops = 142; rownums = 17; rowids = 0; joins = 8; tree_nodes = 2506;
       ord_nodes = 107; root_ord = "pos-sorted" });
    ("Q17",
     { ops = 50; rownums = 1; rowids = 2; joins = 7; tree_nodes = 266;
       ord_nodes = 47; root_ord = "pos-sorted" },
     { ops = 100; rownums = 9; rowids = 0; joins = 7; tree_nodes = 838;
       ord_nodes = 72; root_ord = "pos-sorted" });
    ("Q18",
     { ops = 42; rownums = 0; rowids = 2; joins = 6; tree_nodes = 123;
       ord_nodes = 37; root_ord = "pos-sorted" },
     { ops = 71; rownums = 6; rowids = 0; joins = 6; tree_nodes = 243;
       ord_nodes = 67; root_ord = "pos-sorted" });
    ("Q19",
     { ops = 75; rownums = 4; rowids = 1; joins = 9; tree_nodes = 296;
       ord_nodes = 64; root_ord = "unordered" },
     { ops = 121; rownums = 11; rowids = 0; joins = 9; tree_nodes = 678;
       ord_nodes = 108; root_ord = "ord:iter\226\134\145; iter\226\134\147" });
    ("Q20",
     { ops = 193; rownums = 1; rowids = 2; joins = 28; tree_nodes = 1959;
       ord_nodes = 168; root_ord = "pos-sorted" },
     { ops = 327; rownums = 20; rowids = 0; joins = 30; tree_nodes = 5505;
       ord_nodes = 269; root_ord = "pos-sorted" });
  ]

let golden_fires : (string * (string * int) list) list =
  [ ("existential_join.xq",
     [ ("fun-pushdown", 1);
       ("jg-empty-prune", 1);
       ("jg-select-const", 2);
       ("jg-semijoin-dedup", 1);
       ("jg-union-empty", 1);
       ("join-cross-elim", 1);
       ("join-synthesis", 1);
       ("project-fuse", 5);
       ("project-split", 2);
       ("select-pushdown", 4);
       ("sort-elision", 1) ]);
    ("gold_items.xq",
     [ ("project-fuse", 7);
       ("project-split", 4);
       ("select-pushdown", 1) ]);
    ("income_histogram.xq",
     [ ("fun-pushdown", 2);
       ("jg-empty-prune", 3);
       ("jg-select-const", 6);
       ("jg-semijoin-dedup", 5);
       ("jg-union-empty", 3);
       ("project-fuse", 11);
       ("project-split", 4);
       ("select-pushdown", 13) ]);
    ("paper_expression3.xq",
     [ ("sort-elision", 2) ]);
    ("paper_fig10.xq",
     [  ]);
    ("paper_q11.xq",
     [ ("fun-pushdown", 1);
       ("project-fuse", 6);
       ("project-split", 4);
       ("sort-elision", 5) ]);
    ("paper_q6.xq",
     [ ("sort-elision", 3) ]);
    ("quantifier_semijoin.xq",
     [ ("fun-pushdown", 1);
       ("jg-empty-prune", 2);
       ("jg-select-const", 4);
       ("jg-semijoin-dedup", 2);
       ("jg-semijoin-synthesis", 1);
       ("jg-union-empty", 2);
       ("join-cross-elim", 1);
       ("project-fuse", 9);
       ("project-split", 3);
       ("select-pushdown", 8);
       ("sort-elision", 3) ]);
    ("top_sellers.xq",
     [ ("jg-empty-prune", 1);
       ("jg-select-const", 2);
       ("jg-semijoin-dedup", 1);
       ("jg-union-empty", 1);
       ("project-fuse", 7);
       ("project-split", 4);
       ("select-pushdown", 4);
       ("sort-elision", 1) ]);
    ("xpath_existentials.xq",
     [ ("jg-empty-prune", 1);
       ("jg-select-const", 2);
       ("jg-semijoin-dedup", 1);
       ("jg-semijoin-synthesis", 1);
       ("jg-union-empty", 1);
       ("project-fuse", 4);
       ("project-split", 1);
       ("select-pushdown", 4);
       ("sort-elision", 5) ]);
  ]

let measure file =
  let text = query_text file in
  (compile Engine.default_opts text, compile Engine.ordered_baseline text)

let measure_fires file = rule_fires (query_text file)

let dump () =
  print_string "let golden : (string * shape * shape) list =\n  [ ";
  List.iteri
    (fun i file ->
       let d, b = measure file in
       let pp { ops; rownums; rowids; joins; tree_nodes; ord_nodes; root_ord }
         =
         Printf.sprintf
           "{ ops = %d; rownums = %d; rowids = %d; joins = %d; \
            tree_nodes = %d;\n       ord_nodes = %d; root_ord = %S }"
           ops rownums rowids joins tree_nodes ord_nodes root_ord
       in
       Printf.printf "%s(%S,\n     %s,\n     %s);\n"
         (if i = 0 then "" else "    ")
         file (pp d) (pp b))
    (query_files @ xmark_names);
  print_string "  ]\n";
  print_string "\nlet golden_fires : (string * (string * int) list) list =\n  [ ";
  List.iteri
    (fun i file ->
       let fires = measure_fires file in
       Printf.printf "%s(%S,\n     [ %s ]);\n"
         (if i = 0 then "" else "    ")
         file
         (String.concat ";\n       "
            (List.map (fun (r, k) -> Printf.sprintf "(%S, %d)" r k) fires)))
    query_files;
  print_string "  ]\n"

let check_shape name expected actual =
  let pp { ops; rownums; rowids; joins; tree_nodes; ord_nodes; root_ord } =
    Printf.sprintf
      "ops=%d rownums=%d rowids=%d joins=%d tree=%d ord_nodes=%d root=%s"
      ops rownums rowids joins tree_nodes ord_nodes root_ord
  in
  Alcotest.(check string) name (pp expected) (pp actual)

let test_golden (file, exp_default, exp_baseline) () =
  let d, b = measure file in
  check_shape (file ^ " (default_opts)") exp_default d;
  check_shape (file ^ " (ordered_baseline)") exp_baseline b

let pp_fires fires =
  String.concat " "
    (List.map (fun (r, k) -> Printf.sprintf "%s=%d" r k) fires)

let test_fires (file, expected) () =
  Alcotest.(check string)
    (file ^ " (rule fires)") (pp_fires expected) (pp_fires (measure_fires file))

(* The paper's point, as an invariant over the whole corpus: order
   indifference never adds order bookkeeping, and plans never grow. *)
let test_invariants () =
  List.iter
    (fun file ->
       let d, b = measure file in
       if d.rownums > b.rownums then
         Alcotest.failf "%s: default has MORE rownums than baseline (%d > %d)"
           file d.rownums b.rownums;
       if d.ops > b.ops then
         Alcotest.failf "%s: default plan is LARGER than baseline (%d > %d)"
           file d.ops b.ops)
    query_files

let () =
  if Sys.getenv_opt "PLAN_SHAPES_DUMP" <> None then dump ()
  else begin
    (* every file on disk must be pinned, and vice versa *)
    let pinned = List.map (fun (f, _, _) -> f) golden in
    assert (List.sort compare pinned
            = List.sort compare (query_files @ xmark_names));
    Alcotest.run "plan_shapes"
      [ ("golden",
         List.map
           (fun ((file, _, _) as g) ->
              Alcotest.test_case file `Quick (test_golden g))
           golden);
        ("rewrite rule fires",
         List.map
           (fun ((file, _) as g) ->
              Alcotest.test_case file `Quick (test_fires g))
           golden_fires);
        ("invariants",
         [ Alcotest.test_case "default ≤ baseline" `Quick test_invariants ]) ]
  end

(* Plan-shape golden tests.

   Every query of the benchmark corpus — queries/*.xq plus XMark
   Q1–Q20 — is compiled under the two canonical option
   sets — default_opts (order indifference on) and ordered_baseline
   (Figure-7 rules and CDA off) — and the shape of the optimized plan is
   pinned exactly: total operator count, rownum (%) count, rowid (#)
   count, join count, and the tree-node count (the plan unfolded without
   sharing). Any compiler, optimizer, or hash-consing change that moves a
   plan shape shows up here as a one-line diff.

   A second table pins each whole optimized plan, by digest, under every
   plan-shaping flag of the CLI (the CI plan smoke's flag list): a change
   meant to leave plans alone (deleting a rewrite that never fires, say)
   must leave all of them equal.

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
     { ops = 106; rownums = 2; rowids = 3; joins = 15; tree_nodes = 1892;
       ord_nodes = 85; root_ord = "unordered" },
     { ops = 168; rownums = 13; rowids = 1; joins = 15; tree_nodes = 3776;
       ord_nodes = 136; root_ord = "ord:iter\226\134\145; iter\226\134\147" });
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
     [ ("project-fuse", 4);
       ("project-split", 3);
       ("sort-elision", 2) ]);
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

(* (file, optimized-plan digest under each of [flag_opts], in order);
   regenerate with PLAN_SHAPES_DUMP=1 (see header). *)
let golden_digests : (string * string list) list =
  [ ("existential_join.xq",
     [ "393e42415ec1cf8e54cc5641e79861cf"; "393e42415ec1cf8e54cc5641e79861cf";
       "0bd7f16008b34d40072bf174792bafcb"; "76153db7e0da5d9cb650efa7581e3492";
       "393e42415ec1cf8e54cc5641e79861cf"; "9c29fb55767bdf8726e548a69908322c";
       "e78605848819ba627281ef5456f05af1"; "5a25621f704229528e838c2802ea32ce" ]);
    ("gold_items.xq",
     [ "c611bd4e0557b17e833f38a10e9ecb62"; "6c0172f527ca5296cd6a7de1a7bd8455";
       "2d403276faf808643f2b218a1524eff4"; "8cc23dee956a2cad996ed02da12ee287";
       "c611bd4e0557b17e833f38a10e9ecb62"; "c611bd4e0557b17e833f38a10e9ecb62";
       "15d0733de18874e1b94df1f9d4f6d401"; "c611bd4e0557b17e833f38a10e9ecb62" ]);
    ("income_histogram.xq",
     [ "3a1dc8a0b5e00ce8ea99a0f8e243347c"; "3a1dc8a0b5e00ce8ea99a0f8e243347c";
       "0a1dbc8998a05375ee5064d84b0b236a"; "8632ddff76074fc3b54e6dd2473cf32b";
       "3a1dc8a0b5e00ce8ea99a0f8e243347c"; "b571dc4f7175572632a7d661d8e5700f";
       "20b05871c88c7310a10e680c67e702ed"; "3a1dc8a0b5e00ce8ea99a0f8e243347c" ]);
    ("paper_expression3.xq",
     [ "3ba04dcdf0f0cbf91cf20a8dcfdc2549"; "02e47920c52522ddae820012cc19e7a9";
       "cbf1cad0038ab9bf49702ff6824535b9"; "3ba04dcdf0f0cbf91cf20a8dcfdc2549";
       "3ba04dcdf0f0cbf91cf20a8dcfdc2549"; "3ba04dcdf0f0cbf91cf20a8dcfdc2549";
       "41a59644150e023c9b21310aacd70193"; "41a59644150e023c9b21310aacd70193" ]);
    ("paper_fig10.xq",
     [ "6243cb559ed2f45a4cd2f02407f6b1e3"; "682462eba1d3469f183a9352c4f2ce02";
       "044f71924ba880c15757168f34cd95c3"; "6243cb559ed2f45a4cd2f02407f6b1e3";
       "6243cb559ed2f45a4cd2f02407f6b1e3"; "6243cb559ed2f45a4cd2f02407f6b1e3";
       "6243cb559ed2f45a4cd2f02407f6b1e3"; "6243cb559ed2f45a4cd2f02407f6b1e3" ]);
    ("paper_q11.xq",
     [ "0b0d60dbba7edabca10c8b9aed6e0f4f"; "0b0d60dbba7edabca10c8b9aed6e0f4f";
       "c7fe6b82334453a67483b9bb329027b5"; "19f01e2204d5d2017788c5b56af76c72";
       "5ef39c8ae170303529e7f6e805c5158a"; "0b0d60dbba7edabca10c8b9aed6e0f4f";
       "d898a8e194c505d9e73c8ab6fd48dbf6"; "3a39280182e3a23ce8a562d94866ed47" ]);
    ("paper_q6.xq",
     [ "dfb7b268cf33c7c7e8d684a33580e2f0"; "dfb7b268cf33c7c7e8d684a33580e2f0";
       "3b8d4b23d5824f4aafa08bd6560b2c85"; "dfb7b268cf33c7c7e8d684a33580e2f0";
       "dfb7b268cf33c7c7e8d684a33580e2f0"; "dfb7b268cf33c7c7e8d684a33580e2f0";
       "e163595e77640f0de89ca191fb6428aa"; "e163595e77640f0de89ca191fb6428aa" ]);
    ("quantifier_semijoin.xq",
     [ "ca0f6ac50e32202edf03ccf6dfda742a"; "ca0f6ac50e32202edf03ccf6dfda742a";
       "e83e6315d736b5eafbae5f0515d9b056"; "c986e5f883d55a93a9b80db89644c88a";
       "ca0f6ac50e32202edf03ccf6dfda742a"; "79ab7008b635909378239632588469a5";
       "e64e55755feaa87a74e63953c4fbed96"; "ccf81b5e70aa96a583675050b68aa276" ]);
    ("top_sellers.xq",
     [ "8266ebbefd0220431bb156e16811c1bb"; "8266ebbefd0220431bb156e16811c1bb";
       "8d7f8f7e15eed15030a6674cbaef615d"; "535bf5f9fd4ce25598e1e902024f23d2";
       "fe4cf556b81750c6534094b8f984cfa7"; "8266ebbefd0220431bb156e16811c1bb";
       "696269f14f448c7af4858c472afcd52a"; "22516fca097f667acb8e69905bb356b2" ]);
    ("xpath_existentials.xq",
     [ "7bc456401183b126fa298ac1ca267404"; "7bc456401183b126fa298ac1ca267404";
       "5c278f8d8bbcf004ebae708d4ea8c845"; "543cf5f695588f83d58db83725b9de19";
       "1476b4189f455740ca28e498c759fd54"; "6261a6e082e746eed96c4691ca356159";
       "973352f4d58bc132ba3d007072084eac"; "87e6984fd572da2e9c8372b7c0227c92" ]);
    ("Q1",
     [ "b8507a05ff03130415feb9f5b3959e22"; "b8507a05ff03130415feb9f5b3959e22";
       "d5968c1c6f216848eadc59413c550829"; "02aaffcf29c9a3ca0c7571fd5ba761ae";
       "b8507a05ff03130415feb9f5b3959e22"; "ec7a094b55dc0983b70b7ebb5e62941d";
       "ab0f5cdbb8995aa550e4ede973bc16e3"; "3cf70d032e63abc6ef0e5c8a5c89f139" ]);
    ("Q2",
     [ "d39ec7c8fee370d4f0ca3485a65cbe3d"; "d39ec7c8fee370d4f0ca3485a65cbe3d";
       "5aca142c8928d098d5a878beee71f6f6"; "bc2d4b53f9460961def9a64185c88392";
       "d39ec7c8fee370d4f0ca3485a65cbe3d"; "d39ec7c8fee370d4f0ca3485a65cbe3d";
       "cdb8a5e1856857a0fc9f9a5df9beb341"; "a27beef40f2e98efd629e780d0128da6" ]);
    ("Q3",
     [ "530efab798d2046ed798a69332266de1"; "530efab798d2046ed798a69332266de1";
       "9ccbdd567d527a589ed256d52fc76d8d"; "0809d8e96bed41977f3f6815022a6b29";
       "530efab798d2046ed798a69332266de1"; "8e9c31c3c11928e4ec73fad2bdbb5edc";
       "02be06cfbde1162644df05d5f293ac44"; "5a5e6be821b36cc0fa35d16187affcae" ]);
    ("Q4",
     [ "8707516065820f1c9a1df447d77c2fbf"; "c4533373f3d48afb835c7010b3fee606";
       "33c1775ee2c1687220499b517b2253b2"; "ca6c53ff62a37e06320ccb09eb3a25ed";
       "8707516065820f1c9a1df447d77c2fbf"; "7673a9958367ca9c7c1d0f472e6f52d3";
       "f44257911e5db5e69dcd3fdf9bd59f86"; "a74d59440cdd03ab81949295e7c2149f" ]);
    ("Q5",
     [ "2718efdfd8371e999e09b924d878274b"; "2718efdfd8371e999e09b924d878274b";
       "e013f6905bcc65dbd6ed92bc268b0fc5"; "2718efdfd8371e999e09b924d878274b";
       "b63784132f4f1beae9a8bad576f3af59"; "2718efdfd8371e999e09b924d878274b";
       "66b7af7da60c1c338e27ef8650c19a95"; "66b7af7da60c1c338e27ef8650c19a95" ]);
    ("Q6",
     [ "dfb7b268cf33c7c7e8d684a33580e2f0"; "dfb7b268cf33c7c7e8d684a33580e2f0";
       "3b8d4b23d5824f4aafa08bd6560b2c85"; "dfb7b268cf33c7c7e8d684a33580e2f0";
       "dfb7b268cf33c7c7e8d684a33580e2f0"; "dfb7b268cf33c7c7e8d684a33580e2f0";
       "e163595e77640f0de89ca191fb6428aa"; "e163595e77640f0de89ca191fb6428aa" ]);
    ("Q7",
     [ "66a7a445925fc73da723d83a737870c4"; "66a7a445925fc73da723d83a737870c4";
       "25bf391ea743290cb52155a8302d8fd5"; "66a7a445925fc73da723d83a737870c4";
       "66a7a445925fc73da723d83a737870c4"; "66a7a445925fc73da723d83a737870c4";
       "1dfcb55b75c5097c9b39719b0d5cd4ab"; "1dfcb55b75c5097c9b39719b0d5cd4ab" ]);
    ("Q8",
     [ "c4af5ea6096de9fe94cb77c38ad3e7db"; "c4af5ea6096de9fe94cb77c38ad3e7db";
       "c7ec99f20756a72f887405fef81f3525"; "0e02352cbd915fe14f07adafb6e4022f";
       "5fcd225ffea9d39b2d822c9a0e197fa0"; "c4af5ea6096de9fe94cb77c38ad3e7db";
       "bc2ea164695c603fd50548e10ca3e8b2"; "77d4910da8f3f5663badcb0e9f649156" ]);
    ("Q9",
     [ "d6c07d60f13dabe43c64f2035d8128fe"; "d6c07d60f13dabe43c64f2035d8128fe";
       "a9b1662d8d588216072fb40ac064c5de"; "f3b1f0064ecd786099e6fe11e5d62483";
       "91a6d3a0586908fa307e9548bc6086de"; "962482ac04312d38838d6acfdd5d00f6";
       "ff74d0061739b46e0ddac200641bc844"; "844bf8b6303c346bef6e5408156fea83" ]);
    ("Q10",
     [ "27f6211734526dbb105de8e573ba9bf6"; "27f6211734526dbb105de8e573ba9bf6";
       "ad65959bff7aaaf4262d9d13b5728f41"; "f14c80f909ee6135f06d004eb8542b2c";
       "f9dfb4990cd2280a134c4b676f10fb35"; "27f6211734526dbb105de8e573ba9bf6";
       "93308dc701e3dbb8645b4be5c30998ed"; "66bbe06f8008f2d5b3080d495cc1e9b1" ]);
    ("Q11",
     [ "0b0d60dbba7edabca10c8b9aed6e0f4f"; "0b0d60dbba7edabca10c8b9aed6e0f4f";
       "c7fe6b82334453a67483b9bb329027b5"; "19f01e2204d5d2017788c5b56af76c72";
       "5ef39c8ae170303529e7f6e805c5158a"; "0b0d60dbba7edabca10c8b9aed6e0f4f";
       "d898a8e194c505d9e73c8ab6fd48dbf6"; "3a39280182e3a23ce8a562d94866ed47" ]);
    ("Q12",
     [ "d2bc82db5e056e1eaf79bbe373fc30fe"; "d2bc82db5e056e1eaf79bbe373fc30fe";
       "b6cc72f74fe9ae13f938d40d816ca023"; "8fe0a482e713ad9b4a96eb71cfb6a242";
       "0882626b48cb4719252f27d1441f07e7"; "7ee6d7f111bcf6bc27cae6c1a160de26";
       "de9434b6f33244d0206bcf7097ff8bb5"; "2bc5b72bf0aeb879bbb520706e2580fd" ]);
    ("Q13",
     [ "1577ca6b961d3f5a5909a75fc72815aa"; "1577ca6b961d3f5a5909a75fc72815aa";
       "179399b99d65debca0855c6f823dd942"; "05ffff0720c23cd8b13f0ba91edd2728";
       "1577ca6b961d3f5a5909a75fc72815aa"; "1577ca6b961d3f5a5909a75fc72815aa";
       "4653b14162e020e847b15442de3b421c"; "66a0a057a27b0bf553d9b2927af24f85" ]);
    ("Q14",
     [ "c08570bbdf238f96e66ac36db47ce332"; "c08570bbdf238f96e66ac36db47ce332";
       "bcdd84f9d69125235bfff936abf7c777"; "5133e5eab9782b33bc450f120808511e";
       "c08570bbdf238f96e66ac36db47ce332"; "c08570bbdf238f96e66ac36db47ce332";
       "f74450ea6a95237acce39194e69f4d3a"; "f52dbacabaa3fd3ad036b64a484c3c78" ]);
    ("Q15",
     [ "e1c8ff9b348cdc8ed6695223ea134f1c"; "e1c8ff9b348cdc8ed6695223ea134f1c";
       "5572838b557d8bd0e3599f50abb1ecb5"; "5309f0b10766900a2aac1229750dfab5";
       "e1c8ff9b348cdc8ed6695223ea134f1c"; "e1c8ff9b348cdc8ed6695223ea134f1c";
       "540bb0292f78def8231971fe5ce59978"; "536a6ef125042b5550134a491bb5a9c3" ]);
    ("Q16",
     [ "7406fce0043d307ac9c125e24d91222a"; "7406fce0043d307ac9c125e24d91222a";
       "98a2ced701596dc9b3451e2487bf1165"; "77739b91a0e209dec31a2160a9f130a6";
       "7406fce0043d307ac9c125e24d91222a"; "dc4c34c4c9d68b05071752b5a7a14876";
       "acbf29bdbbd4bb1145e6283bf861aeb6"; "c78a7368e2b748abbdb396855645fd9b" ]);
    ("Q17",
     [ "a13a0c7b858bc2b8a39bd289daddc461"; "a13a0c7b858bc2b8a39bd289daddc461";
       "7462e6e40327c7b23df3ed44a8655e91"; "b61b7f0282bb2894a0243d326941b049";
       "a13a0c7b858bc2b8a39bd289daddc461"; "1edaec99501e61270d5af4ac91d24fe1";
       "04c418a35c53e0aab2654331619518df"; "9f4ac31aade5aa91b4f4de7f7e831f68" ]);
    ("Q18",
     [ "f347e8d0eeb47a42d4cf42a9562d9e9e"; "f347e8d0eeb47a42d4cf42a9562d9e9e";
       "686c9a1aef1523c433be81399be9bbb2"; "eb924d05f48560b4f907d1102b8a7e70";
       "f347e8d0eeb47a42d4cf42a9562d9e9e"; "f347e8d0eeb47a42d4cf42a9562d9e9e";
       "83df5fef96f389e9e17cbc064bbf3242"; "8c4c46809c1c3a6910fccf11bc3fc6a5" ]);
    ("Q19",
     [ "de400ec502c21fa4b5a55a0412684445"; "6d1301cd817db058548fb4af8cce9d23";
       "930b5011cbbf02d22992dcb9461742f7"; "5121fce1b3dbea98f5a3caf13dca255f";
       "de400ec502c21fa4b5a55a0412684445"; "de400ec502c21fa4b5a55a0412684445";
       "ec5b2e0178cf7aa4ca9107456554ca95"; "de400ec502c21fa4b5a55a0412684445" ]);
    ("Q20",
     [ "0bd26921ecf302012557924ce0de8752"; "0bd26921ecf302012557924ce0de8752";
       "ad05fd1a0fd69821090035f8f1789138"; "9d43c349ed52cbe3720511535d0d15df";
       "0bd26921ecf302012557924ce0de8752"; "1d0a127de0ea9303741642b367f15002";
       "63c53c280830e40ae4caa4b47869b615"; "f4977ea96c3771e5fce11e157f40389e" ]);
  ]

(* The CI plan smoke's flag list, each as the options the CLI builds
   from it. *)
let flag_opts : (string * Engine.opts) list =
  let d = Engine.default_opts in
  [ ("", d);
    ("--no-rules", { d with Engine.unordered_rules = false });
    ("--no-cda", { d with Engine.cda = false });
    ("--no-hoist", { d with Engine.hoist = false });
    ("--no-joinrec", { d with Engine.join_rec = false });
    ("--no-join-isolation", { d with Engine.join_isolation = false });
    ("--no-rewrite", { d with Engine.rewrite = false });
    ("--no-order-props", { d with Engine.order_props = false }) ]

(* Operator fields the plan dump's text leaves out. *)
let elided : P.op -> string = function
  | P.Lit { rows; _ } ->
    let cell v =
      Algebra.Value.type_name v ^ " "
      ^ String.escaped (Format.asprintf "%a" Algebra.Value.pp v)
    in
    " rows "
    ^ String.concat ";"
        (List.map
           (fun r -> String.concat "|" (Array.to_list (Array.map cell r)))
           rows)
  | P.Aggr { order = Some c; _ } -> " order " ^ c
  | P.Fun1
      { f = (P.P_cast_as _ | P.P_castable _ | P.P_instance_item _) as f; _ }
    ->
    " "
    ^ Digest.to_hex
        (Digest.string (Marshal.to_string f [ Marshal.No_sharing ]))
  | _ -> ""

(* The MD5 of a canonical plan dump: nodes numbered by first visit from
   the root (builder ids depend on compile history, not on the plan), one
   line per node with its operator, the elided fields and its children's
   numbers. *)
let plan_digest root =
  let num = Hashtbl.create 64 and buf = Buffer.create 4096 in
  let rec visit (n : P.node) =
    match Hashtbl.find_opt num n.P.id with
    | Some k -> k
    | None ->
      let k = Hashtbl.length num in
      Hashtbl.add num n.P.id k;
      let kids = List.map visit (P.children n.P.op) in
      Printf.bprintf buf "%d %s%s <%s>\n" k (Algebra.Plan_pp.describe n)
        (elided n.P.op)
        (String.concat "," (List.map string_of_int kids));
      k
  in
  ignore (visit root);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digests file =
  let text = query_text file in
  List.map
    (fun (_, opts) ->
       let _, _, optimized = Engine.plans_of ~opts text in
       plan_digest optimized)
    flag_opts

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
  print_string "  ]\n";
  print_string
    "\nlet golden_digests : (string * string list) list =\n  [ ";
  List.iteri
    (fun i file ->
       let rec pairs = function
         | a :: b :: rest -> Printf.sprintf "%S; %S" a b :: pairs rest
         | [ a ] -> [ Printf.sprintf "%S" a ]
         | [] -> []
       in
       Printf.printf "%s(%S,\n     [ %s ]);\n"
         (if i = 0 then "" else "    ")
         file
         (String.concat ";\n       " (pairs (digests file))))
    (query_files @ xmark_names);
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

let test_digests (file, expected) () =
  List.iter2
    (fun (flag, _) (exp, got) ->
       Alcotest.(check string)
         (Printf.sprintf "%s (plan digest%s)" file
            (if flag = "" then "" else ", " ^ flag))
         exp got)
    flag_opts
    (List.combine expected (digests file))

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
        ("plan digests",
         List.map
           (fun ((file, _) as g) ->
              Alcotest.test_case file `Quick (test_digests g))
           golden_digests);
        ("invariants",
         [ Alcotest.test_case "default ≤ baseline" `Quick test_invariants ]) ]
  end

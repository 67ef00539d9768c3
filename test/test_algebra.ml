(* Tests for the relational algebra: value semantics, every operator of the
   Table-1 dialect through the executor, DAG hash-consing/sharing, and
   qcheck properties (rownum denseness, join/cross-select equivalence). *)

open Algebra

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_dbl f = Value.Dbl f
let v_bool b = Value.Bool b

let store () = Xmldb.Doc_store.create ()

let run ?st plan =
  let st = match st with Some s -> s | None -> store () in
  Eval.run st plan

(* Compare a table against expected rows *disregarding row order* (the
   engine promises none): rows are multisets. *)
let check_table msg expected t =
  let to_sorted_strings rows =
    List.sort String.compare
      (List.map
         (fun row ->
            String.concat "|"
              (Array.to_list (Array.map (Format.asprintf "%a" Value.pp) row)))
         rows)
  in
  let actual = List.init (Table.nrows t) (Table.row t) in
  Alcotest.(check (list string)) msg
    (to_sorted_strings expected)
    (to_sorted_strings actual)

let schema_of t = Array.to_list (Table.schema t)

(* ------------------------------------------------------------- values *)

let test_value_arith () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.add (v_int 2) (v_int 3)) (v_int 5));
  Alcotest.(check bool) "mixed add" true
    (Value.equal (Value.add (v_int 2) (v_dbl 0.5)) (v_dbl 2.5));
  Alcotest.(check bool) "untyped mul" true
    (Value.equal (Value.mul (v_str "5000") (v_int 2)) (v_dbl 10000.0));
  Alcotest.(check bool) "int div exact" true
    (Value.equal (Value.div (v_int 6) (v_int 3)) (v_int 2));
  Alcotest.(check bool) "int div inexact" true
    (Value.equal (Value.div (v_int 1) (v_int 2)) (v_dbl 0.5));
  (match Value.div (v_int 1) (v_int 0) with
   | exception Basis.Err.Dynamic_error _ -> ()
   | _ -> Alcotest.fail "div by zero must raise");
  Alcotest.(check bool) "idiv" true
    (Value.equal (Value.idiv (v_int 7) (v_int 2)) (v_int 3));
  Alcotest.(check bool) "mod" true
    (Value.equal (Value.modulo (v_int 7) (v_int 2)) (v_int 1))

let test_value_compare () =
  Alcotest.(check bool) "untyped vs numeric" true (Value.cmp_gt (v_str "6000") (v_int 5000));
  Alcotest.(check bool) "string compare" true (Value.cmp_lt (v_str "abc") (v_str "abd"));
  Alcotest.(check bool) "NaN eq false" false (Value.cmp_eq (v_dbl Float.nan) (v_dbl Float.nan));
  Alcotest.(check bool) "NaN ne true" true (Value.cmp_ne (v_dbl Float.nan) (v_dbl 1.0));
  Alcotest.(check bool) "NaN le false" false (Value.cmp_le (v_dbl Float.nan) (v_dbl 1.0));
  Alcotest.(check bool) "int=dbl" true (Value.cmp_eq (v_int 1) (v_dbl 1.0));
  (match Value.cmp_eq (v_bool true) (v_int 1) with
   | exception Basis.Err.Dynamic_error _ -> ()
   | _ -> Alcotest.fail "bool vs int must raise")

let test_value_serialize () =
  Alcotest.(check string) "int" "42" (Value.to_string (v_int 42));
  Alcotest.(check string) "double integral" "5" (Value.to_string (v_dbl 5.0));
  Alcotest.(check string) "double frac" "5.5" (Value.to_string (v_dbl 5.5));
  Alcotest.(check string) "NaN" "NaN" (Value.to_string (v_dbl Float.nan));
  Alcotest.(check string) "INF" "INF" (Value.to_string (v_dbl infinity));
  Alcotest.(check string) "bool" "true" (Value.to_string (v_bool true))

(* -------------------------------------------------------- basic operators *)

let test_lit_project () =
  let b = Plan.builder () in
  let t =
    Plan.lit b [| "a"; "b" |] [ [| v_int 1; v_str "x" |]; [| v_int 2; v_str "y" |] ]
  in
  let p = Plan.project b t [ ("b2", "b"); ("a", "a"); ("a2", "a") ] in
  let r = run p in
  Alcotest.(check (list string)) "schema" [ "b2"; "a"; "a2" ] (schema_of r);
  check_table "rows" [ [| v_str "x"; v_int 1; v_int 1 |]; [| v_str "y"; v_int 2; v_int 2 |] ] r

let test_select () =
  let b = Plan.builder () in
  let t =
    Plan.lit b [| "a"; "keep" |]
      [ [| v_int 1; v_bool true |]; [| v_int 2; v_bool false |];
        [| v_int 3; v_bool true |] ]
  in
  let r = run (Plan.select b t "keep") in
  check_table "selected" [ [| v_int 1; v_bool true |]; [| v_int 3; v_bool true |] ] r

let test_join () =
  let b = Plan.builder () in
  let l = Plan.lit b [| "iter"; "x" |]
      [ [| v_int 1; v_str "a" |]; [| v_int 2; v_str "b" |]; [| v_int 2; v_str "c" |] ] in
  let r = Plan.lit b [| "bind"; "y" |]
      [ [| v_int 2; v_int 20 |]; [| v_int 3; v_int 30 |]; [| v_int 2; v_int 21 |] ] in
  let j = run (Plan.join b l r "iter" "bind") in
  check_table "equi join"
    [ [| v_int 2; v_str "b"; v_int 2; v_int 20 |];
      [| v_int 2; v_str "b"; v_int 2; v_int 21 |];
      [| v_int 2; v_str "c"; v_int 2; v_int 20 |];
      [| v_int 2; v_str "c"; v_int 2; v_int 21 |] ]
    j

let test_thetajoin_inequality () =
  let b = Plan.builder () in
  let l = Plan.lit b [| "a" |] [ [| v_int 1 |]; [| v_int 5 |]; [| v_int 9 |] ] in
  let r = Plan.lit b [| "b" |] [ [| v_int 2 |]; [| v_int 5 |]; [| v_int 8 |] ] in
  let j = run (Plan.thetajoin b l r "a" Plan.P_lt "b") in
  check_table "a < b"
    [ [| v_int 1; v_int 2 |]; [| v_int 1; v_int 5 |]; [| v_int 1; v_int 8 |];
      [| v_int 5; v_int 8 |] ]
    j;
  let j = run (Plan.thetajoin b l r "a" Plan.P_ge "b") in
  check_table "a >= b"
    [ [| v_int 5; v_int 2 |]; [| v_int 5; v_int 5 |];
      [| v_int 9; v_int 2 |]; [| v_int 9; v_int 5 |]; [| v_int 9; v_int 8 |] ]
    j

let test_thetajoin_untyped () =
  (* untyped (string) values against numerics — the Q11 income join shape *)
  let b = Plan.builder () in
  let l = Plan.lit b [| "income" |] [ [| v_str "6000" |]; [| v_str "100" |] ] in
  let r = Plan.lit b [| "bid" |] [ [| v_dbl 5000.0 |] ] in
  let j = run (Plan.thetajoin b l r "income" Plan.P_gt "bid") in
  check_table "income > bid" [ [| v_str "6000"; v_dbl 5000.0 |] ] j

(* Ints just above 2^53, where doubles lose the last bit, compare
   exactly, and the pairs come out in the nested loop's order: left rows
   ascending, each left row's right rows ascending. *)
let test_thetajoin_exact_ints () =
  let big = 1 lsl 53 in
  let b = Plan.builder () in
  let side key vs = Plan.lit b [| key |] (List.map (fun v -> [| v_int v |]) vs) in
  List.iter
    (fun (name, f, l, r, want) ->
       let t = run (Plan.thetajoin b (side "a" l) (side "b" r) "a" f "b") in
       Alcotest.(check (list (pair int int))) name want
         (List.init (Table.nrows t) (fun i ->
              match Table.row t i with
              | [| Value.Int x; Value.Int y |] -> (x, y)
              | _ -> Alcotest.fail "two int columns expected")))
    [ ("a > b", Plan.P_gt, [ big + 1; 1 ], [ big; 0 ],
       [ (big + 1, big); (big + 1, 0); (1, 0) ]);
      ("a >= b", Plan.P_ge, [ big; 1 ], [ big + 1; 0 ], [ (big, 0); (1, 0) ]);
      ("a < b", Plan.P_lt, [ big; 1 ], [ big + 1; 0 ],
       [ (big, big + 1); (1, big + 1) ]);
      ("a <= b", Plan.P_le, [ big + 1; 1 ], [ big; 0 ], [ (1, big) ]) ]

let test_semijoin_antijoin () =
  let b = Plan.builder () in
  let l = Plan.lit b [| "iter" |] [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 3 |] ] in
  let r = Plan.lit b [| "k" |] [ [| v_int 2 |]; [| v_int 2 |] ] in
  check_table "semijoin" [ [| v_int 2 |] ] (run (Plan.semijoin b l r [ ("iter", "k") ]));
  check_table "antijoin" [ [| v_int 1 |]; [| v_int 3 |] ]
    (run (Plan.antijoin b l r [ ("iter", "k") ]))

let test_cross_union_distinct () =
  let b = Plan.builder () in
  let l = Plan.lit b [| "a" |] [ [| v_int 1 |]; [| v_int 2 |] ] in
  let r = Plan.lit b [| "b" |] [ [| v_str "x" |] ] in
  check_table "cross" [ [| v_int 1; v_str "x" |]; [| v_int 2; v_str "x" |] ]
    (run (Plan.cross b l r));
  let u = Plan.union b l (Plan.project b l [ ("a", "a") ]) in
  check_table "union keeps duplicates"
    [ [| v_int 1 |]; [| v_int 2 |]; [| v_int 1 |]; [| v_int 2 |] ]
    (run u);
  check_table "distinct" [ [| v_int 1 |]; [| v_int 2 |] ]
    (run (Plan.distinct b u))

let test_rownum () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "iter"; "v" |]
      [ [| v_int 2; v_int 30 |]; [| v_int 1; v_int 9 |];
        [| v_int 2; v_int 10 |]; [| v_int 1; v_int 5 |] ] in
  (* global numbering ordered by v *)
  let r = run (Plan.rownum b t "n" [ ("v", Plan.Asc) ] None) in
  check_table "global rownum"
    [ [| v_int 2; v_int 30; v_int 4 |]; [| v_int 1; v_int 9; v_int 2 |];
      [| v_int 2; v_int 10; v_int 3 |]; [| v_int 1; v_int 5; v_int 1 |] ]
    r;
  (* grouped by iter, descending *)
  let r = run (Plan.rownum b t "n" [ ("v", Plan.Desc) ] (Some "iter")) in
  check_table "grouped desc rownum"
    [ [| v_int 2; v_int 30; v_int 1 |]; [| v_int 1; v_int 9; v_int 1 |];
      [| v_int 2; v_int 10; v_int 2 |]; [| v_int 1; v_int 5; v_int 2 |] ]
    r

let test_rowid_attach () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "a" |] [ [| v_str "x" |]; [| v_str "y" |] ] in
  let r = run (Plan.rowid b t "id") in
  check_table "rowid dense" [ [| v_str "x"; v_int 1 |]; [| v_str "y"; v_int 2 |] ] r;
  let r = run (Plan.attach b t "pos" (v_int 1)) in
  check_table "attach" [ [| v_str "x"; v_int 1 |]; [| v_str "y"; v_int 1 |] ] r

let test_fun2 () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "x"; "y" |]
      [ [| v_int 7; v_int 2 |]; [| v_str "3"; v_int 4 |] ] in
  let r = run (Plan.fun2 b t "s" Plan.P_add "x" "y") in
  check_table "add with coercion"
    [ [| v_int 7; v_int 2; v_int 9 |]; [| v_str "3"; v_int 4; v_dbl 7.0 |] ]
    r;
  let r = run (Plan.fun2 b t "c" Plan.P_gt "x" "y") in
  check_table "gt"
    [ [| v_int 7; v_int 2; v_bool true |]; [| v_str "3"; v_int 4; v_bool false |] ]
    r

let test_aggr () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "iter"; "v" |]
      [ [| v_int 1; v_int 4 |]; [| v_int 1; v_int 6 |]; [| v_int 2; v_int 10 |] ] in
  check_table "grouped count"
    [ [| v_int 1; v_int 2 |]; [| v_int 2; v_int 1 |] ]
    (run (Plan.aggr b t "n" Plan.A_count None (Some "iter") None));
  check_table "grouped sum"
    [ [| v_int 1; v_int 10 |]; [| v_int 2; v_int 10 |] ]
    (run (Plan.aggr b t "s" Plan.A_sum (Some "v") (Some "iter") None));
  check_table "global max" [ [| v_int 10 |] ]
    (run (Plan.aggr b t "m" Plan.A_max (Some "v") None None));
  check_table "global min" [ [| v_int 4 |] ]
    (run (Plan.aggr b t "m" Plan.A_min (Some "v") None None));
  check_table "global avg" [ [| v_dbl (20.0 /. 3.0) |] ]
    (run (Plan.aggr b t "m" Plan.A_avg (Some "v") None None));
  (* count over empty input, global: one row of 0 *)
  let empty = Plan.lit b [| "iter"; "v" |] [] in
  check_table "count of empty" [ [| v_int 0 |] ]
    (run (Plan.aggr b empty "n" Plan.A_count None None None));
  (* max over empty: no rows *)
  check_table "max of empty" []
    (run (Plan.aggr b empty "m" Plan.A_max (Some "v") None None))

let test_aggr_ebv () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "iter"; "v" |] [ [| v_int 1; v_bool false |] ] in
  check_table "singleton bool" [ [| v_int 1; v_bool false |] ]
    (run (Plan.aggr b t "e" Plan.A_ebv (Some "v") (Some "iter") None));
  let empty = Plan.lit b [| "iter"; "v" |] [] in
  check_table "ebv of empty (global)" [ [| v_bool false |] ]
    (run (Plan.aggr b empty "e" Plan.A_ebv (Some "v") None None))

let test_aggr_str_join () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "iter"; "pos"; "v" |]
      [ [| v_int 1; v_int 2; v_str "b" |];
        [| v_int 1; v_int 1; v_str "a" |];
        [| v_int 1; v_int 3; v_str "c" |] ] in
  check_table "string-join respects order column"
    [ [| v_int 1; v_str "a-b-c" |] ]
    (run (Plan.aggr b t "s" (Plan.A_str_join "-") (Some "v") (Some "iter") (Some "pos")))

let test_range () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "iter"; "lo"; "hi" |]
      [ [| v_int 1; v_int 2; v_int 4 |]; [| v_int 2; v_int 5; v_int 3 |] ] in
  check_table "range expansion (empty when lo>hi)"
    [ [| v_int 1; v_int 1; v_int 2 |]; [| v_int 1; v_int 2; v_int 3 |];
      [| v_int 1; v_int 3; v_int 4 |] ]
    (run (Plan.range b t "lo" "hi"))

(* ------------------------------------------------------- store operators *)

let test_step_doc () =
  let st = store () in
  let _root = Xmldb.Xml_parser.load_document st ~uri:"t.xml"
      "<a><b><c/><d/></b><c/></a>" in
  let b = Plan.builder () in
  let loop = Plan.lit_loop b in
  let uri = Plan.attach b loop "item" (v_str "t.xml") in
  let d = Plan.doc b uri in
  let site = Plan.step b d Xmldb.Axis.Descendant (Plan.N_name (Xmldb.Qname.make "c")) in
  let r = run ~st site in
  Alcotest.(check int) "two c elements" 2 (Table.nrows r);
  (* doc of unknown uri raises *)
  let bad = Plan.doc b (Plan.attach b loop "item" (v_str "nope.xml")) in
  (match run ~st bad with
   | exception Basis.Err.Dynamic_error _ -> ()
   | _ -> Alcotest.fail "expected dynamic error")

let test_step_dedup_per_iter () =
  let st = store () in
  let root = Xmldb.Xml_parser.load_document st ~uri:"t.xml" "<a><b/><b/></a>" in
  let b = Plan.builder () in
  (* two iterations, both with context = document root: results per iter *)
  let ctx = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; Value.Node root |]; [| v_int 2; Value.Node root |];
        [| v_int 1; Value.Node root |] ] in
  let s = Plan.step b ctx Xmldb.Axis.Descendant (Plan.N_name (Xmldb.Qname.make "b")) in
  let r = run ~st s in
  (* duplicate context in iter 1 must not duplicate results *)
  Alcotest.(check int) "2 iters x 2 nodes" 4 (Table.nrows r)

let test_elem_construction () =
  let st = store () in
  let b = Plan.builder () in
  let qn = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; Value.Qname_v (Xmldb.Qname.make "e") |];
        [| v_int 2; Value.Qname_v (Xmldb.Qname.make "f") |] ] in
  let content = Plan.lit b [| "iter"; "pos"; "item" |]
      [ [| v_int 1; v_int 2; v_str "world" |];
        [| v_int 1; v_int 1; v_str "hello" |] ] in
  let r = run ~st (Plan.elem b qn content) in
  Alcotest.(check int) "two elements" 2 (Table.nrows r);
  let serialized =
    List.init (Table.nrows r) (fun i ->
        match Table.get r "item" i with
        | Value.Node n -> Xmldb.Serialize.node_to_string st n
        | _ -> "?")
    |> List.sort String.compare
  in
  (* adjacent atomics are joined with a space *)
  Alcotest.(check (list string)) "constructed"
    [ "<e>hello world</e>"; "<f/>" ] serialized

let test_elem_copies_nodes () =
  let st = store () in
  let root = Xmldb.Xml_parser.load_document st ~uri:"t.xml" "<a><b>x</b></a>" in
  let a = Xmldb.Staircase.step st Xmldb.Axis.Child Xmldb.Node_test.Any_node [| root |] in
  let b_node = (Xmldb.Staircase.step st Xmldb.Axis.Child Xmldb.Node_test.Any_node a).(0) in
  let b = Plan.builder () in
  let qn = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; Value.Qname_v (Xmldb.Qname.make "wrap") |] ] in
  let content = Plan.lit b [| "iter"; "pos"; "item" |]
      [ [| v_int 1; v_int 1; Value.Node b_node |];
        [| v_int 1; v_int 2; Value.Node b_node |] ] in
  let r = run ~st (Plan.elem b qn content) in
  (match Table.get r "item" 0 with
   | Value.Node n ->
     Alcotest.(check string) "deep copied twice"
       "<wrap><b>x</b><b>x</b></wrap>" (Xmldb.Serialize.node_to_string st n)
   | _ -> Alcotest.fail "expected node")

let test_attr_text_construction () =
  let st = store () in
  let b = Plan.builder () in
  let qn = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; Value.Qname_v (Xmldb.Qname.make "pos") |] ] in
  let vals = Plan.lit b [| "iter"; "item" |] [ [| v_int 1; v_int 3 |] ] in
  let r = run ~st (Plan.attr b qn vals) in
  (match Table.get r "item" 0 with
   | Value.Node n ->
     Alcotest.(check string) "attr" "pos=\"3\"" (Xmldb.Serialize.node_to_string st n);
     Alcotest.(check bool) "kind" true
       (Xmldb.Doc_store.kind st n = Xmldb.Node_kind.Attribute)
   | _ -> Alcotest.fail "node expected");
  let txt = Plan.lit b [| "iter"; "item" |] [ [| v_int 1; v_str "hi" |] ] in
  let r = run ~st (Plan.textnode b txt) in
  (match Table.get r "item" 0 with
   | Value.Node n ->
     Alcotest.(check string) "text node" "hi" (Xmldb.Doc_store.string_value st n)
   | _ -> Alcotest.fail "node expected")

(* ------------------------------------------------------------ DAG/sharing *)

let test_hash_consing () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "a" |] [ [| v_int 1 |] ] in
  let p1 = Plan.project b t [ ("a", "a") ] in
  let p2 = Plan.project b t [ ("a", "a") ] in
  Alcotest.(check bool) "structurally equal plans are shared" true (p1 == p2);
  let u = Plan.union b p1 p2 in
  Alcotest.(check int) "count_ops counts shared nodes once" 3 (Plan.count_ops u)

let test_eval_memoizes () =
  (* a shared sub-plan under a union is evaluated once: evaluation of the
     whole DAG with a Rowid over it must produce identical ids on both
     branches *)
  let st = store () in
  let b = Plan.builder () in
  let t = Plan.lit b [| "a" |] [ [| v_int 7 |] ] in
  let withid = Plan.rowid b t "id" in
  let u = Plan.union b withid withid in
  let r = run ~st u in
  Alcotest.(check int) "rows" 2 (Table.nrows r)

let test_plan_pp () =
  let b = Plan.builder () in
  let t = Plan.lit b [| "iter"; "item" |] [] in
  let s = Plan.step b t Xmldb.Axis.Child (Plan.N_name (Xmldb.Qname.make "c")) in
  let r = Plan.rownum b s "pos" [ ("item", Plan.Asc) ] (Some "iter") in
  let txt = Plan_pp.to_tree r in
  Alcotest.(check bool) "mentions rownum" true
    (Astring.String.is_infix ~affix:"%_{pos:" txt);
  Alcotest.(check bool) "mentions step" true
    (Astring.String.is_infix ~affix:"child::c" txt);
  let dot = Plan_pp.to_dot r in
  Alcotest.(check bool) "dot has edges" true
    (Astring.String.is_infix ~affix:"->" dot)

(* ------------------------------------------------------------ properties *)

let gen_small_table =
  let open QCheck2.Gen in
  let* n = int_range 0 30 in
  let* rows =
    list_repeat n
      (let* iter = int_range 1 4 in
       let* v = int_range 0 20 in
       return [| v_int iter; v_int v |])
  in
  return rows

let prop_rownum_dense =
  QCheck2.Test.make ~count:200 ~name:"rownum: dense 1..k per group"
    gen_small_table
    (fun rows ->
       let b = Plan.builder () in
       let t = Plan.lit b [| "iter"; "v" |] rows in
       let r = Eval.run (store ()) (Plan.rownum b t "n" [ ("v", Plan.Asc) ] (Some "iter")) in
       (* per iter group, the n values must be exactly 1..k *)
       let groups = Hashtbl.create 8 in
       for i = 0 to Table.nrows r - 1 do
         let iter = Table.get r "iter" i and n = Table.get r "n" i in
         let l = Option.value ~default:[] (Hashtbl.find_opt groups iter) in
         Hashtbl.replace groups iter (Value.int_value n :: l)
       done;
       Hashtbl.fold
         (fun _ ns acc ->
            acc && List.sort compare ns = List.init (List.length ns) (fun i -> i + 1))
         groups true)

let prop_rowid_unique =
  QCheck2.Test.make ~count:100 ~name:"rowid: unique dense values"
    gen_small_table
    (fun rows ->
       let b = Plan.builder () in
       let t = Plan.lit b [| "iter"; "v" |] rows in
       let r = Eval.run (store ()) (Plan.rowid b t "id") in
       let ids = List.init (Table.nrows r) (fun i -> Value.int_value (Table.get r "id" i)) in
       List.sort compare ids = List.init (List.length ids) (fun i -> i + 1))

let prop_join_cross_select =
  QCheck2.Test.make ~count:100 ~name:"equi-join = select over cross"
    QCheck2.Gen.(tup2 gen_small_table gen_small_table)
    (fun (rows1, rows2) ->
       let b = Plan.builder () in
       let l = Plan.lit b [| "iter"; "v" |] rows1 in
       let r = Plan.lit b [| "iter2"; "w" |] rows2 in
       let join = Plan.join b l r "iter" "iter2" in
       let cross_sel =
         let c = Plan.cross b l r in
         let cmp = Plan.fun2 b c "eq" Plan.P_eq "iter" "iter2" in
         let s = Plan.select b cmp "eq" in
         Plan.project b s [ ("iter", "iter"); ("v", "v"); ("iter2", "iter2"); ("w", "w") ]
       in
       let t1 = Eval.run (store ()) join in
       let t2 = Eval.run (store ()) cross_sel in
       let dump t =
         List.sort compare
           (List.init (Table.nrows t) (fun i ->
                Array.to_list (Array.map (Format.asprintf "%a" Value.pp) (Table.row t i))))
       in
       dump t1 = dump t2)

let prop_distinct_idempotent =
  QCheck2.Test.make ~count:100 ~name:"distinct is idempotent"
    gen_small_table
    (fun rows ->
       let b = Plan.builder () in
       let t = Plan.lit b [| "iter"; "v" |] rows in
       let d1 = Eval.run (store ()) (Plan.distinct b t) in
       let d2 = Eval.run (store ()) (Plan.distinct b (Plan.distinct b t)) in
       Table.nrows d1 = Table.nrows d2)

(* -------------------------------------------------------- flat int index *)

module Int_index = Basis.Int_index

(* [Int_index] against a [Hashtbl] model: the groups are the distinct
   keys in first-seen order, [find] names each key's group (and -1 for
   keys not indexed), and each group lists exactly its key's rows,
   ascending. *)
let index_agrees keys =
  let idx = Int_index.build keys in
  let rows = Hashtbl.create 16 and order = ref [] in
  Array.iteri
    (fun r k ->
       match Hashtbl.find_opt rows k with
       | Some l -> Hashtbl.replace rows k (r :: l)
       | None ->
         Hashtbl.add rows k [ r ];
         order := k :: !order)
    keys;
  let order = List.rev !order in
  let group_rows g =
    List.init
      (idx.Int_index.start.(g + 1) - idx.Int_index.start.(g))
      (fun p -> idx.Int_index.rows.(idx.Int_index.start.(g) + p))
  in
  idx.Int_index.groups = List.length order
  && List.for_all2
       (fun g k ->
          idx.Int_index.keys.(g) = k
          && Int_index.find idx k = g
          && group_rows g = List.rev (Hashtbl.find rows k)
          && List.for_all (fun r -> idx.Int_index.group_of_row.(r) = g)
               (group_rows g))
       (List.init (List.length order) Fun.id)
       order
  && List.for_all
       (fun k -> Hashtbl.mem rows k || Int_index.find idx k = -1)
       (List.concat_map (fun k -> [ k - 1; k + 1; k lxor min_int ]) order)

(* Keys whose probes all start at the last slot of the table an index of
   [n] rows gets, so their chain wraps around the table's end. *)
let wrapping_keys n =
  let probe = Int_index.build (Array.make n 0) in
  let last = Array.length probe.Int_index.slots - 1 in
  Seq.ints 0
  |> Seq.filter (fun k -> Int_index.home probe k = last)
  |> Seq.take (n + 1) |> List.of_seq

let gen_index_keys =
  let open QCheck2.Gen in
  let* n = int_range 0 40 in
  let key =
    oneof
      [ int_range (-3) 3;                                   (* duplicates *)
        map (fun m -> m lsl 40) (int_range (-4) 4);    (* multiples of 2^40 *)
        map (fun m -> m lsl 58) (int_range (-2) 2);
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0 ];
        oneofl (wrapping_keys (max n 1));             (* one probe chain *)
        int ]
  in
  array_repeat n key

let prop_int_index =
  QCheck2.Test.make ~count:500 ~name:"flat index = Hashtbl model"
    ~print:QCheck2.Print.(array int) gen_index_keys index_agrees

(* A chain that wraps: every key starts probing at the last slot. *)
let test_index_wraps () =
  let n = 8 in
  let keys = wrapping_keys n in
  let stored = Array.of_list (List.filteri (fun i _ -> i < n) keys) in
  let idx = Int_index.build stored in
  Alcotest.(check bool) "the chain reaches slot 0" true
    (idx.Int_index.slots.(0) <> 0);
  Alcotest.(check bool) "model agrees" true (index_agrees stored);
  Alcotest.(check bool) "model agrees with duplicates" true
    (index_agrees (Array.append stored (Array.of_list (List.rev keys))));
  Alcotest.(check int) "absent key on the same chain" (-1)
    (Int_index.find idx (List.nth keys n))

(* [first_rows] is first-occurrence duplicate elimination of tuples. *)
let prop_first_rows =
  QCheck2.Test.make ~count:300 ~name:"first_rows = first occurrences"
    QCheck2.Gen.(
      let* ncols = int_range 0 3 and* n = int_range 0 40 in
      array_repeat ncols
        (array_repeat n (oneof [ int_range 0 2; oneofl [ min_int; max_int ] ])))
    (fun cols ->
       let n = if Array.length cols = 0 then 3 else Array.length cols.(0) in
       let seen = Hashtbl.create 16 and expect = ref [] in
       for r = 0 to n - 1 do
         let t = Array.map (fun c -> c.(r)) cols in
         if not (Hashtbl.mem seen t) then begin
           Hashtbl.add seen t ();
           expect := r :: !expect
         end
       done;
       Array.to_list (Int_index.first_rows cols n) = List.rev !expect)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "algebra"
    [ ( "values",
        [ Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "comparison" `Quick test_value_compare;
          Alcotest.test_case "serialization" `Quick test_value_serialize ] );
      ( "operators",
        [ Alcotest.test_case "lit+project" `Quick test_lit_project;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "thetajoin inequality" `Quick test_thetajoin_inequality;
          Alcotest.test_case "thetajoin untyped" `Quick test_thetajoin_untyped;
          Alcotest.test_case "thetajoin exact integers" `Quick
            test_thetajoin_exact_ints;
          Alcotest.test_case "semi/anti join" `Quick test_semijoin_antijoin;
          Alcotest.test_case "cross+union+distinct" `Quick test_cross_union_distinct;
          Alcotest.test_case "rownum" `Quick test_rownum;
          Alcotest.test_case "rowid+attach" `Quick test_rowid_attach;
          Alcotest.test_case "fun2" `Quick test_fun2;
          Alcotest.test_case "aggregates" `Quick test_aggr;
          Alcotest.test_case "ebv aggregate" `Quick test_aggr_ebv;
          Alcotest.test_case "string-join" `Quick test_aggr_str_join;
          Alcotest.test_case "range" `Quick test_range ] );
      ( "store-ops",
        [ Alcotest.test_case "step+doc" `Quick test_step_doc;
          Alcotest.test_case "step dedup per iter" `Quick test_step_dedup_per_iter;
          Alcotest.test_case "elem construction" `Quick test_elem_construction;
          Alcotest.test_case "elem copies nodes" `Quick test_elem_copies_nodes;
          Alcotest.test_case "attr+text construction" `Quick test_attr_text_construction ] );
      ( "dag",
        [ Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "memoized eval" `Quick test_eval_memoizes;
          Alcotest.test_case "plan printing" `Quick test_plan_pp ] );
      qsuite "properties"
        [ prop_rownum_dense; prop_rowid_unique; prop_join_cross_select;
          prop_distinct_idempotent ];
      ( "flat index",
        Alcotest.test_case "probe chain wraps" `Quick test_index_wraps
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_int_index; prop_first_rows ] );
    ]

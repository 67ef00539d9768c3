(* The logical rewriter (Algebra.Rewrite) and its property-driven
   companions in Icols, tested at three grains:

     1. per-rule unit fixtures over hand-built plans — each rule has a
        case where it fires (and the plan shape changes as advertised)
        and a case where it provably must not (its guard would be
        violated: result column selected on, order-sensitive consumer);

     2. executable soundness — for the order-changing rules, the
        original and rewritten plans are evaluated and compared as
        multisets (order-preserving rules compare exactly);

     3. end-to-end result identity over the query corpus — every file
        under queries/ answers identically (serialization and error
        message alike) with the rewriter on and off, under the native
        prolog AND under a forced ordered mode. This is the acceptance
        bar: rewriting is invisible except in time. *)

module P = Algebra.Plan
module R = Algebra.Rewrite
module V = Algebra.Value

let fire rule (s : R.stats) =
  Option.value ~default:0 (List.assoc_opt rule s.R.fires)

let has_op pred root =
  List.exists (fun (n : P.node) -> pred n.P.op) (P.topo_order root)

let is_cross = function P.Cross _ -> true | _ -> false
let is_theta = function P.Thetajoin _ -> true | _ -> false
let is_distinct = function P.Distinct _ -> true | _ -> false
let is_rownum = function P.Rownum _ -> true | _ -> false

let lit b schema rows =
  P.mk b (P.Lit { schema = Array.of_list schema; rows })

let ints l = List.map (fun xs -> Array.of_list (List.map (fun i -> V.Int i) xs)) l

(* Evaluate a plan over an empty store and flatten to a sorted list of
   stringified rows (multiset comparison) or an in-order list (exact). *)
let rows_of ?(sort = false) root =
  let st = Xmldb.Doc_store.create () in
  let t = Algebra.Eval.run st root in
  let cols = List.sort compare (Array.to_list (Algebra.Table.schema t)) in
  let rows =
    List.init (Algebra.Table.nrows t) (fun i ->
        String.concat "|"
          (List.map
             (fun c -> V.to_string (Algebra.Table.get t c i))
             cols))
  in
  if sort then List.sort compare rows else rows

let check_rows ~sort name a b =
  Alcotest.(check (list string)) name (rows_of ~sort a) (rows_of ~sort b)

(* ------------------------------------------------------- unit fixtures *)

let test_select_pushdown () =
  let b = P.builder () in
  let base = lit b [ "c"; "x" ]
      (List.map (fun (c, x) -> [| V.Bool c; V.Int x |])
         [ (true, 1); (false, 2); (true, 3) ]) in
  let attach = P.mk b (P.Attach { input = base; res = "f"; value = V.Int 9 }) in
  let sel = P.mk b (P.Select { input = attach; col = "c" }) in
  let root, s = R.optimize b sel in
  Alcotest.(check int) "fires through Attach" 1 (fire "select-pushdown" s);
  (match root.P.op with
   | P.Attach _ -> ()
   | _ -> Alcotest.fail "Attach should now be the root");
  check_rows ~sort:false "rows unchanged" sel root;
  (* guard: selecting on the attached column itself must not move *)
  let b2 = P.builder () in
  let base2 = lit b2 [ "x" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let attach2 = P.mk b2 (P.Attach { input = base2; res = "c"; value = V.Bool true }) in
  let sel2 = P.mk b2 (P.Select { input = attach2; col = "c" }) in
  let _, s2 = R.optimize b2 sel2 in
  Alcotest.(check int) "no fire on own result" 0 (fire "select-pushdown" s2)

let test_join_synthesis () =
  let b = P.builder () in
  let a = lit b [ "x" ] (ints [ [ 1 ]; [ 2 ]; [ 3 ] ]) in
  let c = lit b [ "y" ] (ints [ [ 2 ]; [ 3 ]; [ 4 ] ]) in
  let cross = P.mk b (P.Cross { left = a; right = c }) in
  let f2 =
    P.mk b
      (P.Fun2 { input = cross; res = "c"; f = P.P_eq; arg1 = "x"; arg2 = "y" })
  in
  let sel = P.mk b (P.Select { input = f2; col = "c" }) in
  let root, s = R.optimize b sel in
  Alcotest.(check int) "fires" 1 (fire "join-synthesis" s);
  Alcotest.(check bool) "cross gone" false (has_op is_cross root);
  Alcotest.(check bool) "theta join present" true (has_op is_theta root);
  check_rows ~sort:false "pair order preserved" sel root;
  (* guard: a comparison that is kept as a value (not selected on) must
     stay a Fun2 over the cross *)
  let b2 = P.builder () in
  let a2 = lit b2 [ "x" ] (ints [ [ 1 ] ]) in
  let c2 = lit b2 [ "y" ] (ints [ [ 1 ] ]) in
  let cross2 = P.mk b2 (P.Cross { left = a2; right = c2 }) in
  let f2' =
    P.mk b2
      (P.Fun2 { input = cross2; res = "c"; f = P.P_eq; arg1 = "x"; arg2 = "y" })
  in
  let _, s2 = R.optimize b2 f2' in
  Alcotest.(check int) "no fire without a sigma" 0 (fire "join-synthesis" s2)

(* The selection's column lives on one side of a Join: it descends into
   that side, and the rows stay the same. *)
let test_select_below_join () =
  let b = P.builder () in
  let l = lit b [ "iter"; "flag" ]
      [ [| V.Int 1; V.Bool true |]; [| V.Int 2; V.Bool false |] ] in
  let r = lit b [ "iter2"; "v" ] (ints [ [ 1; 10 ]; [ 2; 20 ] ]) in
  let j =
    P.mk b (P.Join { left = l; right = r; lcol = "iter"; rcol = "iter2" })
  in
  let sel = P.mk b (P.Select { input = j; col = "flag" }) in
  let root, s = R.optimize b sel in
  Alcotest.(check int) "fires into the left side" 1 (fire "select-pushdown" s);
  Alcotest.(check bool) "select below join" true
    (has_op
       (function
         | P.Join { left; _ } ->
           (match left.P.op with P.Select _ -> true | _ -> false)
         | _ -> false)
       root);
  check_rows ~sort:false "rows unchanged" sel root

(* An inequality over a cross product becomes a theta join too. *)
let test_thetajoin_recognition () =
  let b = P.builder () in
  let l = lit b [ "a" ] (ints [ [ 1 ]; [ 9 ] ]) in
  let r = lit b [ "c" ] (ints [ [ 5 ] ]) in
  let cross = P.mk b (P.Cross { left = l; right = r }) in
  let f2 =
    P.mk b
      (P.Fun2
         { input = cross; res = "keep"; f = P.P_gt; arg1 = "a"; arg2 = "c" })
  in
  let sel = P.mk b (P.Select { input = f2; col = "keep" }) in
  let root, s = R.optimize b sel in
  Alcotest.(check int) "fires" 1 (fire "join-synthesis" s);
  Alcotest.(check bool) "cross+select fused" true (has_op is_theta root);
  check_rows ~sort:false "pair order preserved" sel root

let test_join_cross_elim () =
  let mk_shape b =
    let a = lit b [ "a" ] (ints [ [ 1 ]; [ 2 ] ]) in
    let f1 = lit b [ "b" ] (ints [ [ 1 ]; [ 2 ]; [ 3 ] ]) in
    let f2 = lit b [ "c" ] (ints [ [ 7 ]; [ 8 ] ]) in
    let cross = P.mk b (P.Cross { left = f1; right = f2 }) in
    P.mk b (P.Join { left = a; right = cross; lcol = "a"; rcol = "b" })
  in
  (* at the root every executor extracts by pos, so the join is
     order-insensitive and may commute with the cross *)
  let b = P.builder () in
  let join = mk_shape b in
  let root, s = R.optimize b join in
  Alcotest.(check int) "fires at insensitive root" 1 (fire "join-cross-elim" s);
  (match root.P.op with
   | P.Cross _ -> ()
   | _ -> Alcotest.fail "Cross should now be the root");
  check_rows ~sort:true "same multiset" join root;
  (* guard: under a rowid the join's row order is observed — no fire *)
  let b2 = P.builder () in
  let guarded = P.mk b2 (P.Rowid { input = mk_shape b2; res = "r" }) in
  let _, s2 = R.optimize b2 guarded in
  Alcotest.(check int) "no fire under rowid" 0 (fire "join-cross-elim" s2)

(* --------------------- property-driven rules: CDA's and sort elision *)

let pos_item b n =
  P.mk b (P.Project { input = n; cols = [ ("pos", "pos"); ("item", "item") ] })

let test_keyed_distinct_elision () =
  (* CDA keeps only pos|item at the root, so the key must BE pos for the
     elision to stay sound after narrowing — a rowid named anything else
     is pruned, and the delta then sees the duplicate items for real *)
  let b = P.builder () in
  let base = lit b [ "iter"; "item" ] (ints [ [ 1; 5 ]; [ 1; 5 ]; [ 2; 6 ] ]) in
  let rid = P.mk b (P.Rowid { input = base; res = "pos" }) in
  let d = P.mk b (P.Distinct { input = rid }) in
  let root = Exrquy.Icols.optimize b (pos_item b d) in
  Alcotest.(check bool) "distinct elided (surviving rowid key)" false
    (has_op is_distinct root);
  check_rows ~sort:false "rows unchanged" (pos_item b d) root;
  (* guard 1: a key that does not survive narrowing must not license the
     elision — same plan, rowid under a different (dead) name *)
  let b2 = P.builder () in
  let base2 = lit b2 [ "iter"; "item" ] (ints [ [ 1; 5 ]; [ 1; 5 ]; [ 2; 6 ] ]) in
  let rid2 = P.mk b2 (P.Rowid { input = base2; res = "k" }) in
  let at = P.mk b2 (P.Attach { input = rid2; res = "pos"; value = V.Int 1 }) in
  let d2 = P.mk b2 (P.Distinct { input = at }) in
  let root2 = Exrquy.Icols.optimize b2 (pos_item b2 d2) in
  Alcotest.(check bool) "distinct kept when the key is pruned" true
    (has_op is_distinct root2);
  (* guard 2: no key at all *)
  let b3 = P.builder () in
  let base3 = lit b3 [ "pos"; "item" ] (ints [ [ 1; 5 ]; [ 1; 5 ] ]) in
  let d3 = P.mk b3 (P.Distinct { input = base3 }) in
  let root3 = Exrquy.Icols.optimize b3 d3 in
  Alcotest.(check bool) "distinct kept without keys" true
    (has_op is_distinct root3)

let test_dense_rownum_degrade () =
  (* the order criterion is a dense Lit column (strictly increasing, NOT
     rowid-born, so CDA's all-arbitrary degradation does not apply): a
     key with an ascending order fact, so the sort is the identity and
     sort elision degrades the % to # *)
  let b = P.builder () in
  let base = lit b [ "k"; "item" ] (ints [ [ 10; 7 ]; [ 20; 8 ]; [ 30; 9 ] ]) in
  let rn =
    P.mk b
      (P.Rownum
         { input = base; res = "pos"; order = [ ("k", P.Asc) ]; part = None })
  in
  let root, s = R.optimize b (pos_item b rn) in
  Alcotest.(check int) "sort-elision fires" 1 (fire "sort-elision" s);
  Alcotest.(check bool) "rownum degraded to rowid (dense criterion)" false
    (has_op is_rownum root);
  check_rows ~sort:false "numbering identical" (pos_item b rn) root;
  (* guard: a duplicate-free but non-monotone criterion must keep the
     sort (the numbering genuinely permutes) *)
  let b2 = P.builder () in
  let base2 = lit b2 [ "k"; "item" ] (ints [ [ 30; 7 ]; [ 10; 8 ]; [ 20; 9 ] ]) in
  let rn2 =
    P.mk b2
      (P.Rownum
         { input = base2; res = "pos"; order = [ ("k", P.Asc) ]; part = None })
  in
  let root2, s2 = R.optimize b2 (pos_item b2 rn2) in
  Alcotest.(check int) "sort-elision does not fire" 0 (fire "sort-elision" s2);
  Alcotest.(check bool) "rownum kept" true (has_op is_rownum root2)

(* -------------------------------------------- corpus result identity *)

let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())
let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"

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

let outcome ?mode ~rewrite q =
  let opts = { Engine.default_opts with Engine.rewrite; mode } in
  match Engine.run_result ~opts (mk_store ()) q with
  | Ok r -> "ok: " ^ r.Engine.serialized
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

let test_corpus_identity () =
  List.iter
    (fun (file, q) ->
       Alcotest.(check string)
         (file ^ " (native prolog)")
         (outcome ~rewrite:false q) (outcome ~rewrite:true q);
       Alcotest.(check string)
         (file ^ " (forced ordered)")
         (outcome ~mode:Xquery.Ast.Ordered ~rewrite:false q)
         (outcome ~mode:Xquery.Ast.Ordered ~rewrite:true q))
    (corpus ())

let () =
  Alcotest.run "rewrite"
    [ ("rules",
       [ Alcotest.test_case "select pushdown" `Quick test_select_pushdown;
         Alcotest.test_case "select pushdown below a join" `Quick
           test_select_below_join;
         Alcotest.test_case "join synthesis" `Quick test_join_synthesis;
         Alcotest.test_case "thetajoin recognition" `Quick
           test_thetajoin_recognition;
         Alcotest.test_case "join-cross elimination" `Quick test_join_cross_elim ]);
      ("properties",
       [ Alcotest.test_case "keyed distinct elision" `Quick
           test_keyed_distinct_elision;
         Alcotest.test_case "dense rownum degrade" `Quick
           test_dense_rownum_degrade ]);
      ("corpus",
       [ Alcotest.test_case "rewrite on = rewrite off" `Quick
           test_corpus_identity ]) ]

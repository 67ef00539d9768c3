(* Join-graph isolation (Algebra.Joingraph + the compile-level where
   slide), tested at three grains:

     1. per-rule unit fixtures over hand-built plans — each jg-* rule
        has a case where it fires (and the plan shape changes as
        advertised) and a case where it provably must not, including
        the required-check veto: a pruning rule may not discard a
        subtree whose unshared operators raise errors the spec demands
        (fn:exactly-one on a non-singleton is not covered by the XQuery
        2.3.4 "need not evaluate" latitude);

     2. the compile-level half — a joinable where slides past
        intervening independent lets (the raw plan changes shape) but
        not past a let that binds one of its free variables (the raw
        plan is bit-identical with the switch on or off);

     3. end-to-end result identity over the query corpus — every file
        under queries/ answers identically (serialization and error
        message alike) with join isolation on and off, under the native
        prolog AND under a forced ordered mode. *)

module P = Algebra.Plan
module R = Algebra.Rewrite
module V = Algebra.Value

let fire rule (s : R.stats) =
  Option.value ~default:0 (List.assoc_opt rule s.R.fires)

let has_op pred root =
  List.exists (fun (n : P.node) -> pred n.P.op) (P.topo_order root)

let is_join = function P.Join _ -> true | _ -> false
let is_semijoin = function P.Semijoin _ -> true | _ -> false
let is_select = function P.Select _ -> true | _ -> false
let is_distinct = function P.Distinct _ -> true | _ -> false
let is_empty_lit = function P.Lit { rows = []; _ } -> true | _ -> false

let lit b schema rows =
  P.mk b (P.Lit { schema = Array.of_list schema; rows })

let ints l = List.map (fun xs -> Array.of_list (List.map (fun i -> V.Int i) xs)) l

(* Evaluate a plan over an empty store and flatten to a list of
   stringified rows (in plan order; [~sort] for multiset comparison). *)
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

let test_select_const () =
  (* true arm: sigma over its own attached [true] is the identity *)
  let b = P.builder () in
  let base = lit b [ "x" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let at = P.mk b (P.Attach { input = base; res = "c"; value = V.Bool true }) in
  let sel = P.mk b (P.Select { input = at; col = "c" }) in
  let root, s = R.optimize b sel in
  Alcotest.(check int) "fires on attached true" 1 (fire "jg-select-const" s);
  Alcotest.(check bool) "select gone" false (has_op is_select root);
  check_rows ~sort:false "rows unchanged" sel root;
  (* false arm: sigma over its own attached [false] prunes the input *)
  let b2 = P.builder () in
  let base2 = lit b2 [ "x" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let at2 = P.mk b2 (P.Attach { input = base2; res = "c"; value = V.Bool false }) in
  let sel2 = P.mk b2 (P.Select { input = at2; col = "c" }) in
  let root2, s2 = R.optimize b2 sel2 in
  Alcotest.(check int) "fires on attached false" 1 (fire "jg-select-const" s2);
  Alcotest.(check bool) "pruned to the empty relation" true
    (is_empty_lit root2.P.op);
  check_rows ~sort:false "still empty" sel2 root2

let test_select_const_check_veto () =
  (* the pruned subtree contains an unshared required-check operator
     (fn:exactly-one's check primitive): discarding it could swallow an
     error the spec demands, so the false arm must NOT fire *)
  let b = P.builder () in
  let base = lit b [ "x" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let chk =
    P.mk b
      (P.Fun1 { input = base; res = "y"; f = P.P_check_exactly_one; arg = "x" })
  in
  let at = P.mk b (P.Attach { input = chk; res = "c"; value = V.Bool false }) in
  let sel = P.mk b (P.Select { input = at; col = "c" }) in
  let root, s = R.optimize b sel in
  Alcotest.(check int) "no fire over a required check" 0
    (fire "jg-select-const" s);
  Alcotest.(check bool) "select kept" true (has_op is_select root)

let test_empty_prune () =
  (* emptiness propagates through row-wise operators *)
  let b = P.builder () in
  let empty = lit b [ "x" ] [] in
  let proj = P.mk b (P.Project { input = empty; cols = [ ("y", "x") ] }) in
  let root, s = R.optimize b proj in
  Alcotest.(check bool) "fires through Project" true
    (fire "jg-empty-prune" s >= 1);
  Alcotest.(check bool) "root is the empty relation" true
    (is_empty_lit root.P.op);
  (* ... and through a join sibling (the checked-free case) *)
  let b2 = P.builder () in
  let empty2 = lit b2 [ "a" ] [] in
  let r2 = lit b2 [ "b" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let join2 =
    P.mk b2 (P.Join { left = empty2; right = r2; lcol = "a"; rcol = "b" })
  in
  let root2, s2 = R.optimize b2 join2 in
  Alcotest.(check bool) "fires on a join's empty side" true
    (fire "jg-empty-prune" s2 >= 1);
  Alcotest.(check bool) "join pruned" true (is_empty_lit root2.P.op)

let test_empty_prune_check_veto () =
  (* the surviving join sibling would be discarded too — and it carries
     an unshared required check, so the prune must NOT fire *)
  let b = P.builder () in
  let empty = lit b [ "a" ] [] in
  let base = lit b [ "x" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let chk =
    P.mk b
      (P.Fun1 { input = base; res = "y"; f = P.P_check_exactly_one; arg = "x" })
  in
  let join =
    P.mk b (P.Join { left = empty; right = chk; lcol = "a"; rcol = "x" })
  in
  let root, s = R.optimize b join in
  Alcotest.(check int) "no fire over a required check" 0
    (fire "jg-empty-prune" s);
  Alcotest.(check bool) "join kept" true (has_op is_join root)

let test_union_empty () =
  let b = P.builder () in
  let empty = lit b [ "x" ] [] in
  let r = lit b [ "x" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let u = P.mk b (P.Union { left = empty; right = r }) in
  let root, s = R.optimize b u in
  Alcotest.(check int) "fires on empty side" 1 (fire "jg-union-empty" s);
  check_rows ~sort:false "rows unchanged" u root;
  (* guard: two populated sides stay a union *)
  let b2 = P.builder () in
  let l2 = lit b2 [ "x" ] (ints [ [ 1 ] ]) in
  let r2 = lit b2 [ "x" ] (ints [ [ 2 ] ]) in
  let u2 = P.mk b2 (P.Union { left = l2; right = r2 }) in
  let _, s2 = R.optimize b2 u2 in
  Alcotest.(check int) "no fire when both populated" 0 (fire "jg-union-empty" s2)

let test_semijoin_synthesis () =
  (* distinct-projecting only left columns of an equijoin becomes a
     semijoin, bit-identical in row order *)
  let b = P.builder () in
  let l = lit b [ "a" ] (ints [ [ 1 ]; [ 2 ]; [ 3 ] ]) in
  let r = lit b [ "b" ] (ints [ [ 2 ]; [ 3 ]; [ 4 ] ]) in
  let j = P.mk b (P.Join { left = l; right = r; lcol = "a"; rcol = "b" }) in
  let proj = P.mk b (P.Project { input = j; cols = [ ("a", "a") ] }) in
  let d = P.mk b (P.Distinct { input = proj }) in
  let root, s = R.optimize b d in
  Alcotest.(check int) "fires" 1 (fire "jg-semijoin-synthesis" s);
  Alcotest.(check bool) "semijoin present" true (has_op is_semijoin root);
  Alcotest.(check bool) "join gone" false (has_op is_join root);
  check_rows ~sort:false "row order identical" d root;
  (* guard: a projection that keeps a right-side column observes the
     join's multiplicity — no fire *)
  let b2 = P.builder () in
  let l2 = lit b2 [ "a" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let r2 = lit b2 [ "b" ] (ints [ [ 1 ]; [ 2 ] ]) in
  let j2 = P.mk b2 (P.Join { left = l2; right = r2; lcol = "a"; rcol = "b" }) in
  let proj2 =
    P.mk b2 (P.Project { input = j2; cols = [ ("a", "a"); ("bb", "b") ] })
  in
  let d2 = P.mk b2 (P.Distinct { input = proj2 }) in
  let root2, s2 = R.optimize b2 d2 in
  Alcotest.(check int) "no fire with a right column kept" 0
    (fire "jg-semijoin-synthesis" s2);
  Alcotest.(check bool) "join kept" true (has_op is_join root2)

let test_semijoin_dedup () =
  let b = P.builder () in
  let l = lit b [ "a" ] (ints [ [ 1 ]; [ 2 ]; [ 3 ] ]) in
  let r = lit b [ "b" ] (ints [ [ 2 ]; [ 2 ]; [ 3 ] ]) in
  let d = P.mk b (P.Distinct { input = r }) in
  let sj = P.mk b (P.Semijoin { left = l; right = d; on = [ ("a", "b") ] }) in
  let root, s = R.optimize b sj in
  Alcotest.(check int) "fires under a semijoin right" 1
    (fire "jg-semijoin-dedup" s);
  Alcotest.(check bool) "distinct gone" false (has_op is_distinct root);
  check_rows ~sort:false "rows unchanged" sj root;
  (* guard: a Distinct on the LEFT (probe) side is observable — no fire *)
  let b2 = P.builder () in
  let l2 = lit b2 [ "a" ] (ints [ [ 1 ]; [ 1 ]; [ 2 ] ]) in
  let r2 = lit b2 [ "b" ] (ints [ [ 1 ] ]) in
  let d2 = P.mk b2 (P.Distinct { input = l2 }) in
  let sj2 = P.mk b2 (P.Semijoin { left = d2; right = r2; on = [ ("a", "b") ] }) in
  let root2, s2 = R.optimize b2 sj2 in
  Alcotest.(check int) "no fire on the probe side" 0
    (fire "jg-semijoin-dedup" s2);
  Alcotest.(check bool) "distinct kept" true (has_op is_distinct root2)

(* ------------------------------------------- compile-level where slide *)

let raw_shape ~join_isolation q =
  let opts = { Engine.default_opts with Engine.join_isolation } in
  let _, raw, _ = Engine.plans_of ~opts q in
  let joins = ref 0 in
  List.iter
    (fun (n : P.node) ->
       match n.P.op with
       | P.Join _ | P.Thetajoin _ | P.Semijoin _ | P.Antijoin _ | P.Cross _ ->
         incr joins
       | _ -> ())
    (P.topo_order raw);
  (P.count_ops raw, !joins, P.count_tree_nodes raw)

(* Q9's shape in miniature: the let neither binds a variable of the
   where nor is bound over by it, so the where may slide left and join
   recognition fires. *)
let slide_q =
  {|let $auction := doc("auction.xml")
return
  for $p in $auction/site/people/person
  let $n := $p/name/text()
  where $p/@id = $auction/site/closed_auctions/closed_auction/buyer/@person
  return <r>{ $n }</r>|}

(* The where's free variables include the let's binding: no slide. *)
let dependent_q =
  {|let $auction := doc("auction.xml")
return
  for $p in $auction/site/people/person
  let $m := $p/@id
  where $m = $auction/site/closed_auctions/closed_auction/buyer/@person
  return <r>{ $p/name/text() }</r>|}

let test_slide_fires () =
  let ops, joins, tree = raw_shape ~join_isolation:true slide_q in
  let off = raw_shape ~join_isolation:false slide_q in
  if (ops, joins, tree) = off then
    Alcotest.failf
      "where did not slide past the independent let: raw plan identical \
       on and off (ops=%d joins=%d tree=%d)"
      ops joins tree

let test_slide_blocked () =
  let pp (a, j, t) = Printf.sprintf "ops=%d joins=%d tree=%d" a j t in
  Alcotest.(check string) "raw plan identical when the let binds a where var"
    (pp (raw_shape ~join_isolation:false dependent_q))
    (pp (raw_shape ~join_isolation:true dependent_q))

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

let outcome ?(base = Engine.default_opts) ?mode ~join_isolation q =
  let opts = { base with Engine.join_isolation; mode } in
  match Engine.run_result ~opts (mk_store ()) q with
  | Ok r -> "ok: " ^ r.Engine.serialized
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

let test_corpus_identity () =
  List.iter
    (fun (file, q) ->
       Alcotest.(check string)
         (file ^ " (native prolog)")
         (outcome ~join_isolation:false q) (outcome ~join_isolation:true q);
       Alcotest.(check string)
         (file ^ " (forced ordered)")
         (outcome ~mode:Xquery.Ast.Ordered ~join_isolation:false q)
         (outcome ~mode:Xquery.Ast.Ordered ~join_isolation:true q))
    (corpus ())

let test_slide_identity () =
  (* under default_opts a join-recognized for-loop's result order is
     already free (pre-existing: [join_rec] on vs off differ the same
     way on the adjacent shape), so with the slide toggling which
     compile path runs, on/off compare as multisets of items. Under
     ordered_baseline — the config that promises order — the slide must
     be byte-invisible, and is: bind_ordered numbering restores the
     document order through the join. *)
  let items s =
    String.split_on_char '<' s |> List.sort compare |> String.concat "<"
  in
  Alcotest.(check string) "same items (default opts)"
    (items (outcome ~join_isolation:false slide_q))
    (items (outcome ~join_isolation:true slide_q));
  Alcotest.(check string) "same items (forced ordered)"
    (items (outcome ~mode:Xquery.Ast.Ordered ~join_isolation:false slide_q))
    (items (outcome ~mode:Xquery.Ast.Ordered ~join_isolation:true slide_q));
  Alcotest.(check string) "byte-identical (ordered baseline)"
    (outcome ~base:Engine.ordered_baseline ~join_isolation:false slide_q)
    (outcome ~base:Engine.ordered_baseline ~join_isolation:true slide_q)

(* fn:exactly-one(()) MUST still raise with the prunes on — the
   end-to-end pin of the required-check veto *)
let test_required_error_survives () =
  match Engine.run_result (mk_store ()) "exactly-one(())" with
  | Ok r ->
    Alcotest.failf "exactly-one(()) answered %S instead of raising"
      r.Engine.serialized
  | Error { Engine.kind; message } ->
    Alcotest.(check string) "error class" "dynamic"
      (Basis.Err.kind_label kind);
    if not (Astring.String.is_infix ~affix:"exactly-one" message) then
      Alcotest.failf "unexpected message: %s" message

let () =
  Alcotest.run "joingraph"
    [ ("rules",
       [ Alcotest.test_case "select-const" `Quick test_select_const;
         Alcotest.test_case "select-const check veto" `Quick
           test_select_const_check_veto;
         Alcotest.test_case "empty-prune" `Quick test_empty_prune;
         Alcotest.test_case "empty-prune check veto" `Quick
           test_empty_prune_check_veto;
         Alcotest.test_case "union-empty" `Quick test_union_empty;
         Alcotest.test_case "semijoin synthesis" `Quick test_semijoin_synthesis;
         Alcotest.test_case "semijoin dedup" `Quick test_semijoin_dedup ]);
      ("compile slide",
       [ Alcotest.test_case "slides past an independent let" `Quick
           test_slide_fires;
         Alcotest.test_case "blocked by a dependent let" `Quick
           test_slide_blocked;
         Alcotest.test_case "slide result identity" `Quick
           test_slide_identity ]);
      ("corpus",
       [ Alcotest.test_case "isolation on = isolation off" `Quick
           test_corpus_identity;
         Alcotest.test_case "required errors survive" `Quick
           test_required_error_survives ]) ]

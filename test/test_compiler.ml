(* Tests for the compilation scheme and the algebraic order-indifference
   machinery: the Figure-7 rules (LOC#/BIND#/FN:UNORDERED), property
   inference, column dependency analysis and the rewrites it enables
   (operator counts mirroring Figures 6/9/10). *)

module A = Algebra.Plan
module C = Exrquy.Compile

let compile_text ?(mode = Xquery.Ast.Ordered) ?(rules = true) ?(cda = false)
    ?(join_rec = true) text =
  let q = Xquery.Parser.parse_query text in
  let core = Xquery.Normalize.normalize_query ~mode_override:mode q in
  let cfg =
    { (C.default_cfg ()) with C.unordered_rules = rules; C.join_rec }
  in
  let _, plan = C.compile_core ~cfg core in
  if cda then Exrquy.Icols.optimize cfg.C.b plan else plan

let rownums p = A.count_kind p "%"
let rowids p = A.count_kind p "#"
let steps p = A.count_kind p "⊘"

let q6ish =
  {|for $b in doc("t.xml")/site/regions return count($b/descendant::item)|}

(* ------------------------------------------------------ figure 7 rules *)

let test_loc_rule () =
  (* ordered: steps are followed by %pos:<item>||iter *)
  let p = compile_text ~mode:Xquery.Ast.Ordered {|doc("t.xml")/a/b|} in
  Alcotest.(check int) "two rownums for two steps + none extra" 2 (rownums p);
  Alcotest.(check int) "no rowids" 0 (rowids p)

let test_loc_sharp_rule () =
  let p = compile_text ~mode:Xquery.Ast.Unordered {|doc("t.xml")/a/b|} in
  Alcotest.(check int) "LOC#: no rownums" 0 (rownums p);
  Alcotest.(check bool) "rowids instead" true (rowids p >= 2)

let test_rules_disabled () =
  (* the ablation switch: unordered mode compiled as if ordered *)
  let p = compile_text ~mode:Xquery.Ast.Unordered ~rules:false {|doc("t.xml")/a/b|} in
  Alcotest.(check int) "no # when rules are off" 0 (rowids p);
  Alcotest.(check int) "% as under ordered" 2 (rownums p)

let test_bind_rule () =
  let p = compile_text ~mode:Xquery.Ast.Ordered "for $x in 1 to 2 return $x" in
  Alcotest.(check int) "BIND uses % (+ the result numbering)" 2 (rownums p);
  let p = compile_text ~mode:Xquery.Ast.Unordered "for $x in 1 to 2 return $x" in
  (* BIND# for the binding; the result numbering %pos1:<bind,pos>||outer
     remains (iter->seq is not disabled by ordering mode, Figure 3) *)
  Alcotest.(check int) "BIND# leaves exactly the result %" 1 (rownums p);
  Alcotest.(check bool) "bind uses #" true (rowids p >= 1)

let test_orderby_uses_bind_sharp () =
  (* context (f): an order by clause makes binding order irrelevant *)
  let p =
    compile_text ~mode:Xquery.Ast.Ordered
      "for $x in (3,1,2) order by $x return $x"
  in
  Alcotest.(check bool) "# for the binding despite ordered mode" true (rowids p >= 1)

let test_fn_unordered_rule () =
  let p = compile_text ~mode:Xquery.Ast.Ordered "unordered((1,2,3))" in
  Alcotest.(check bool) "#pos on top" true (rowids p >= 1)

let test_quant_rule () =
  let p =
    compile_text ~mode:Xquery.Ast.Ordered "some $x in (1,2) satisfies $x > 1"
  in
  (* the quantifier's domain binds with # in either mode *)
  Alcotest.(check bool) "quantifier domain uses #" true (rowids p >= 1)

(* ------------------------------------------------- figures 6 and 9 (Q6) *)

let test_q6_ordered_plan () =
  let p = compile_text ~mode:Xquery.Ast.Ordered q6ish in
  (* Figure 6(a): five % operators (3 steps + bind + result numbering) *)
  Alcotest.(check int) "five rownums" 5 (rownums p)

let test_q6_unordered_plan () =
  let p = compile_text ~mode:Xquery.Ast.Unordered q6ish in
  (* Figure 6(b): all % but the result numbering traded for # *)
  Alcotest.(check int) "one rownum left" 1 (rownums p)

let test_q6_cda () =
  let p = compile_text ~mode:Xquery.Ast.Unordered ~cda:true q6ish in
  (* Figure 9 + Section 7: CDA removes the dead #pos chains and the
     property inference degrades the final % into a free # — no residual
     traces of order *)
  Alcotest.(check int) "no rownums after CDA" 0 (rownums p);
  let p_ord = compile_text ~mode:Xquery.Ast.Ordered q6ish in
  Alcotest.(check bool) "CDA shrinks the plan" true
    (A.count_ops p < A.count_ops p_ord)

let test_cda_keeps_required_order () =
  (* ordered mode without fn:unordered context: the result % must stay *)
  let p = compile_text ~mode:Xquery.Ast.Ordered ~cda:true
      {|for $x in doc("t.xml")/a/b return $x|} in
  Alcotest.(check bool) "result order survives CDA" true (rownums p >= 1)

(* --------------------------------------------------- figure 10 (| -> ,) *)

let test_union_becomes_concat () =
  let text = {|unordered { doc("t.xml")//(c|d) }|} in
  let p = compile_text ~mode:Xquery.Ast.Ordered ~cda:true text in
  Alcotest.(check int) "no sort left" 0 (rownums p);
  (* the union node remains, but as a cheap concatenation: no % above it *)
  Alcotest.(check bool) "union survives as append" true
    (A.count_kind p "∪" >= 1)

let test_step_merging () =
  (* descendant-or-self::node()/child::c fuses into descendant::c once the
     intermediate order is dead (Q6/Q7's exceptional speedup, Section 5) *)
  let p = compile_text ~mode:Xquery.Ast.Unordered ~cda:true {|doc("t.xml")//c|} in
  Alcotest.(check int) "single merged step" 1 (steps p);
  let nodes = A.topo_order p in
  let merged =
    List.exists
      (fun n ->
         match n.A.op with
         | A.Step { axis = Xmldb.Axis.Descendant; _ } -> true
         | _ -> false)
      nodes
  in
  Alcotest.(check bool) "descendant axis" true merged

let test_step_merging_needs_dead_order () =
  (* under the ordered baseline (rules+CDA off) the steps stay separate *)
  let p = compile_text ~mode:Xquery.Ast.Ordered ~rules:false {|doc("t.xml")//c|} in
  Alcotest.(check int) "two steps" 2 (steps p)

(* ------------------------------------------------------------ properties *)

let test_properties_consts () =
  let b = A.builder () in
  let loop = A.lit_loop b in
  let q = A.attach b loop "pos" (Algebra.Value.Int 1) in
  let p = Algebra.Props.(props (make ()) q) in
  Alcotest.(check bool) "pos const" true
    (Algebra.Props.SMap.mem "pos" p.Algebra.Props.consts);
  Alcotest.(check bool) "iter const (unit loop)" true
    (Algebra.Props.SMap.mem "iter" p.Algebra.Props.consts)

let test_properties_arbitrary () =
  let b = A.builder () in
  let t = A.lit b [| "a" |] [ [| Algebra.Value.Int 1 |] ] in
  let r = A.rowid b t "id" in
  let pr = A.project b r [ ("x", "id") ] in
  let p = Algebra.Props.(props (make ()) pr) in
  Alcotest.(check bool) "arbitrary propagates through rename" true
    (Algebra.Props.SSet.mem "x" p.Algebra.Props.arbitrary)

let test_rownum_degradation () =
  (* %res:<id> over #id with const partition degrades to # (Section 7) *)
  let b = A.builder () in
  let t = A.lit b [| "v" |] [ [| Algebra.Value.Int 3 |]; [| Algebra.Value.Int 1 |] ] in
  let t = A.attach b t "grp" (Algebra.Value.Int 1) in
  let t = A.rowid b t "id" in
  let r = A.rownum b t "n" [ ("id", A.Asc) ] (Some "grp") in
  let keep = A.project b r [ ("n", "n"); ("v", "v") ] in
  let opt = Exrquy.Icols.optimize b keep in
  Alcotest.(check int) "degraded to rowid" 0 (rownums opt);
  Alcotest.(check bool) "rowid present" true (rowids opt >= 1)

let test_cda_fixpoint () =
  (* optimizing an already-optimized plan is the identity *)
  let p = compile_text ~mode:Xquery.Ast.Unordered ~cda:true q6ish in
  let b = A.builder () in
  (* re-cons into a fresh builder via optimize: ids differ, shape must not *)
  let p2 = Exrquy.Icols.optimize b p in
  Alcotest.(check int) "op count stable" (A.count_ops p) (A.count_ops p2)

let test_join_recognition_flwor () =
  (* Q11's shape: the where-filtered inner loop becomes a theta join; no
     cross product of outer iterations with the domain remains *)
  let text =
    {|let $auction := doc("t.xml")
      for $p in $auction/site/people/person
      let $l := for $i in $auction/site/open_auctions/open_auction/initial
                where $p/profile/@income > 5000 * $i
                return $i
      return count($l)|}
  in
  let p = compile_text ~mode:Xquery.Ast.Ordered ~cda:true text in
  let has_theta =
    List.exists
      (fun n -> match n.A.op with A.Thetajoin { cmp = A.P_gt; _ } -> true | _ -> false)
      (A.topo_order p)
  in
  Alcotest.(check bool) "theta join present" true has_theta;
  (* with recognition off, the plan keeps the filter-over-everything shape *)
  let q = Xquery.Parser.parse_query text in
  let core = Xquery.Normalize.normalize_query ~mode_override:Xquery.Ast.Ordered q in
  let cfg = { (C.default_cfg ()) with C.join_rec = false } in
  let _, plan = C.compile_core ~cfg core in
  let plan = Exrquy.Icols.optimize cfg.C.b plan in
  let has_value_theta =
    List.exists
      (fun n -> match n.A.op with A.Thetajoin { cmp = A.P_gt; _ } -> true | _ -> false)
      (A.topo_order plan)
  in
  Alcotest.(check bool) "no theta join without recognition" false has_value_theta

let test_join_recognition_swapped () =
  (* Q8's orientation: the for-variable is on the left of the comparison *)
  let text =
    {|for $p in doc("t.xml")/site/people/person
      let $a := for $t in doc("t.xml")/site/closed_auctions/closed_auction
                where $t/buyer/@person = $p/@id
                return $t
      return count($a)|}
  in
  let p = compile_text ~mode:Xquery.Ast.Ordered ~cda:true text in
  let has_eq_theta =
    List.exists
      (fun n -> match n.A.op with A.Thetajoin { cmp = A.P_eq; _ } -> true | _ -> false)
      (A.topo_order p)
  in
  Alcotest.(check bool) "equality theta join present" true has_eq_theta

(* Join recognition on predicates. The loop variable ranges over
   (7, 8), so a plan node reads the $v loop exactly when the literal 7
   is below it. *)
let reads_v_loop p =
  List.exists
    (fun n ->
       match n.A.op with
       | A.Attach { value = Algebra.Value.Int 7; _ } -> true
       | _ -> false)
    (A.topo_order p)

let has_theta p =
  List.exists
    (fun n -> match n.A.op with A.Thetajoin _ -> true | _ -> false)
    (A.topo_order p)

(* steps on [axis] evaluated once per iteration of the $v loop *)
let steps_under_v ?axis p =
  List.length
    (List.filter
       (fun n ->
          match n.A.op with
          | A.Step { input; axis = ax; _ } ->
            Option.fold ~none:true ~some:(( = ) ax) axis && reads_v_loop input
          | _ -> false)
       (A.topo_order p))

let test_predicate_join_fires () =
  List.iter
    (fun text ->
       List.iter
         (fun cda ->
            let p = compile_text ~cda text in
            Alcotest.(check bool) (text ^ ": theta join") true (has_theta p);
            Alcotest.(check int) (text ^ ": no step under the $v loop") 0
              (steps_under_v p))
         [ false; true ])
    [ (* the path form: one step for every context node *)
      {|for $v in (7, 8) return count(doc("t.xml")/a/e[@k = $v])|};
      {|for $v in (7, 8) return doc("t.xml")/a/e[@k = "1"][text() != $v]|};
      (* the filter form *)
      {|for $v in (7, 8) return (doc("t.xml")//e)[@k = $v]|};
      {|for $v in (7, 8) return count((doc("t.xml")//e)[. < $v])|} ]

(* Every other predicate keeps its plan: no theta join, the same plan as
   with join recognition off (these queries have no where clause, the
   switch's only other use), and a path steps its candidates once per
   iteration of the $v loop. *)
let test_predicate_join_guards () =
  let plan ?join_rec text =
    Algebra.Plan_pp.to_tree (compile_text ?join_rec text)
  in
  List.iter
    (fun (text, per_iteration) ->
       let p = compile_text text in
       Alcotest.(check bool) (text ^ ": no theta join") false (has_theta p);
       Alcotest.(check string) (text ^ ": the positional plan")
         (plan ~join_rec:false text) (plan text);
       Alcotest.(check bool) (text ^ ": candidates stepped per iteration")
         per_iteration
         (steps_under_v ~axis:Xmldb.Axis.Child p > 0))
    [ (* positional predicates *)
      ({|for $v in (7, 8) return doc("t.xml")/a/*[$v]|}, true);
      ({|for $v in (7, 8) return (doc("t.xml")//e)[$v]|}, false);
      ({|for $v in (7, 8) return doc("t.xml")/a/*[last()]|}, false);
      ({|for $v in (7, 8) return doc("t.xml")/a/*[last() = $v]|}, true);
      ({|for $v in (7, 8) return doc("t.xml")/a/*[position() = $v]|}, true);
      (* a positional link on the step: the filters do not commute *)
      ({|for $v in (7, 8) return doc("t.xml")/a/e[@k = $v][1]|}, true);
      ({|for $v in (7, 8) return doc("t.xml")/a/e[1][@k = $v]|}, true);
      (* not a general comparison *)
      ({|for $v in (7, 8) return doc("t.xml")/a/e[@k eq $v]|}, true);
      ({|for $v in (7, 8) return doc("t.xml")/a/e[not(@k = $v)]|}, true);
      (* depth 0: the loop-lifted plan already filters once *)
      ({|count(doc("t.xml")/a/e[@k = "x"])|}, false) ];
  (* the switch: with recognition off, the path steps per iteration *)
  let p =
    compile_text ~join_rec:false
      {|for $v in (7, 8) return count(doc("t.xml")/a/e[@k = $v])|}
  in
  Alcotest.(check bool) "join_rec off: no theta join" false (has_theta p);
  Alcotest.(check bool) "join_rec off: candidates stepped per iteration" true
    (steps_under_v ~axis:Xmldb.Axis.Child p > 0)

(* A predicate is tested at run time for a numeric value unless it is
   statically numeric, boolean or a path: the path forms keep the static
   effective-boolean-value plan, with no instance-of test. *)
let test_predicate_ebv_static () =
  let tests_type text =
    let tree = Algebra.Plan_pp.to_tree (compile_text text) in
    let needle = "instance(" in
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length tree
      && (String.sub tree i n = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun (text, dynamic) ->
       Alcotest.(check bool) (text ^ ": run-time numeric test") dynamic
         (tests_type text))
    [ ({|doc("t.xml")//a[b]|}, false);
      ({|doc("t.xml")//a[@k]|}, false);
      ({|doc("t.xml")//a[b/c]|}, false);
      ({|doc("t.xml")//a[b = "x"]|}, false);
      ({|doc("t.xml")//a[2]|}, false);
      ({|let $n := 2 return doc("t.xml")//a[$n]|}, true);
      ({|doc("t.xml")//a[.]|}, true) ]

let test_hoisting_shares_path () =
  (* the inner for's domain is loop-invariant: the descendant step must
     appear once, not once per outer binding-level (Q11's "evaluated once
     only") *)
  let text =
    {|for $p in doc("t.xml")/site/people
      return count(for $i in doc("t.xml")/site/items return $i)|}
  in
  let p = compile_text ~mode:Xquery.Ast.Ordered text in
  (* child::site is shared between the two paths (hash-consing), and the
     inner path is hoisted out of the loop: 3 distinct steps, not 2 + 2n *)
  Alcotest.(check int) "3 shared steps" 3 (steps p)

let () =
  Alcotest.run "compiler"
    [ ( "figure7",
        [ Alcotest.test_case "rule LOC" `Quick test_loc_rule;
          Alcotest.test_case "rule LOC#" `Quick test_loc_sharp_rule;
          Alcotest.test_case "ablation switch" `Quick test_rules_disabled;
          Alcotest.test_case "rules BIND/BIND#" `Quick test_bind_rule;
          Alcotest.test_case "order by uses BIND#" `Quick test_orderby_uses_bind_sharp;
          Alcotest.test_case "rule FN:UNORDERED" `Quick test_fn_unordered_rule;
          Alcotest.test_case "rule QUANT" `Quick test_quant_rule ] );
      ( "figures6-9-10",
        [ Alcotest.test_case "Q6 ordered: 5 rownums (fig 6a)" `Quick test_q6_ordered_plan;
          Alcotest.test_case "Q6 unordered: 1 rownum (fig 6b)" `Quick test_q6_unordered_plan;
          Alcotest.test_case "Q6 + CDA: order-free (fig 9, §7)" `Quick test_q6_cda;
          Alcotest.test_case "CDA keeps required order" `Quick test_cda_keeps_required_order;
          Alcotest.test_case "union -> concat (fig 10)" `Quick test_union_becomes_concat;
          Alcotest.test_case "step merging" `Quick test_step_merging;
          Alcotest.test_case "no merging in baseline" `Quick test_step_merging_needs_dead_order ] );
      ( "analysis",
        [ Alcotest.test_case "const inference" `Quick test_properties_consts;
          Alcotest.test_case "arbitrary inference" `Quick test_properties_arbitrary;
          Alcotest.test_case "rownum degradation (§7)" `Quick test_rownum_degradation;
          Alcotest.test_case "CDA fixpoint" `Quick test_cda_fixpoint;
          Alcotest.test_case "join recognition (Q11 shape)" `Quick test_join_recognition_flwor;
          Alcotest.test_case "join recognition (swapped)" `Quick test_join_recognition_swapped;
          Alcotest.test_case "join recognition (predicate)" `Quick
            test_predicate_join_fires;
          Alcotest.test_case "join recognition (predicate, guards)" `Quick
            test_predicate_join_guards;
          Alcotest.test_case "path predicates: static EBV" `Quick
            test_predicate_ebv_static;
          Alcotest.test_case "loop-invariant hoisting" `Quick test_hoisting_shares_path ] );
    ]

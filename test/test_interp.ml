(* Direct tests of the reference interpreter — the oracle of all the
   differential suites needs its own ground truth: hand-computed results
   for FLWOR tuple semantics, order by with empty keys, EBV edges,
   construction/copy semantics, and built-in corner cases. *)

module Value = Algebra.Value

let mk_store () =
  let st = Xmldb.Doc_store.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"t.xml"
      "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"
  in
  st

let run st q = Interp.Interpreter.run st q
let run_s st q = Interp.Interpreter.run_to_string st q

let check st msg expected q = Alcotest.(check string) msg expected (run_s st q)

let expect_dynamic st q =
  match run st q with
  | exception Basis.Err.Dynamic_error _ -> ()
  | _ -> Alcotest.failf "expected dynamic error: %s" q

(* ------------------------------------------------------------------ flwor *)

let test_flwor_tuples () =
  let st = mk_store () in
  check st "nested fors are a cross product" "11 21 12 22"
    "for $x in (1,2) for $y in (10,20) return $y + $x";
  check st "dependent inner domain" "1 1 2"
    "for $x in (1,2) for $y in (1 to $x) return $y";
  check st "where filters tuples" "2 4"
    "for $x in 1 to 4 where $x mod 2 = 0 return $x";
  check st "let is per tuple" "2 4 6"
    "for $x in 1 to 3 let $y := 2 * $x return $y";
  check st "positional variable" "a1 b2"
    {|for $x at $p in ("a","b") return concat($x, $p)|}

let test_order_by () =
  let st = mk_store () in
  check st "ascending" "1 2 3" "for $x in (2,3,1) order by $x return $x";
  check st "descending" "3 2 1"
    "for $x in (2,3,1) order by $x descending return $x";
  (* "descending" binds to the second key only: sort y ascending, then x
     descending within equal y *)
  check st "secondary key" "21 11 22 12"
    "for $x in (1,2), $y in (1,2) order by $y, $x descending return 10 * $x + $y";
  (* empty keys (the key expression, not the binding, is empty for x=2):
     least puts them first ascending, greatest last *)
  check st "empty least" "2 1 3"
    {|for $x in (1,2,3) order by (if ($x = 2) then () else $x) empty least return $x|};
  check st "empty greatest" "1 3 2"
    {|for $x in (1,2,3) order by (if ($x = 2) then () else $x) empty greatest return $x|};
  (* empty greatest + descending: greatest first *)
  check st "empty greatest descending" "2 3 1"
    {|for $x in (1,2,3) order by (if ($x = 2) then () else $x) descending empty greatest return $x|};
  (* stability: equal keys keep tuple order *)
  check st "stable ties" "a b c"
    {|for $x in ("a","b","c") stable order by 1 return $x|}

(* -------------------------------------------------------------------- ebv *)

let test_ebv () =
  let st = mk_store () in
  check st "empty is false" "false" "boolean(())";
  check st "node is true" "true" "boolean(doc(\"t.xml\")/a)";
  check st "many nodes are true" "true" "boolean(doc(\"t.xml\")//c)";
  check st "zero is false" "false" "boolean(0)";
  check st "NaN is false" "false" "boolean(number(\"oops\"))";
  check st "empty string is false" "false" "boolean(\"\")";
  check st "nonempty string is true" "true" "boolean(\"false\")";
  expect_dynamic st "boolean((1,2))"

(* Predicates whose value is known only at run time (XQuery 1.0, 3.2.2):
   one numeric item tests the position, anything else its effective
   boolean value. *)
let test_dynamic_predicates () =
  let st = mk_store () in
  check st "integer" "20" "let $n := 2 return (10,20,30)[$n]";
  check st "integer per iteration" "<b><c/><d/></b><c/>"
    {|for $n in (1,2) return doc("t.xml")/a/*[$n]|};
  check st "double" "20" "let $n := 2.0 return (10,20,30)[$n]";
  check st "double, no such position" "" "let $n := 2.5 return (10,20,30)[$n]";
  check st "string" "10 20 30" {|let $n := "x" return (10,20,30)[$n]|};
  check st "empty string" "" {|let $n := "" return (10,20,30)[$n]|};
  check st "node" "<b><c/><d/></b><c/><e k=\"1\">x<f/>y</e>"
    {|let $n := doc("t.xml")//@k return doc("t.xml")/a/*[$n]|};
  check st "context item" "2" "(3,2,1)[.]";
  (* reverse axes number their predicate positions nearest first *)
  check st "reverse axis" "<c/><b><c/><d/></b>"
    {|for $n in (1,2) return doc("t.xml")//e/preceding-sibling::*[$n]|};
  expect_dynamic st "let $n := (1,2) return (10,20,30)[$n]"

(* ----------------------------------------------------------- construction *)

let test_construction () =
  let st = mk_store () in
  check st "copied content loses identity" "false"
    {|let $b := doc("t.xml")//b let $w := <w>{ $b }</w>
      return exactly-one($w/b) is exactly-one($b)|};
  Alcotest.(check string) "copy is deep" "<w><b><c/><d/></b></w>"
    (run_s st {|<w>{ doc("t.xml")//b }</w>|});
  Alcotest.(check string) "attribute from expression" {|<p a="1 2 3"/>|}
    (run_s st {|<p a="{ 1 to 3 }"/>|});
  Alcotest.(check string) "adjacent atomics get one space" "<s>1 2</s>"
    (run_s st "<s>{ 1, 2 }</s>");
  Alcotest.(check string) "separate enclosed exprs do not" "<s>12</s>"
    (run_s st "<s>{ 1 }{ 2 }</s>");
  Alcotest.(check string) "literal text merges without spaces" "<s>a1b</s>"
    (run_s st "<s>a{ 1 }b</s>");
  (* constructed trees come after all existing nodes in document order *)
  check st "constructed follows existing" "true"
    {|exactly-one(doc("t.xml")/a) << <z/>|}

let test_node_identity () =
  let st = mk_store () in
  check st "self identity" "true"
    {|let $c := (doc("t.xml")//c)[1] return $c is $c|};
  check st "distinct constructions differ" "false"
    {|<q/> is <q/>|};
  check st "union dedups by identity" "2"
    {|count(doc("t.xml")//c | doc("t.xml")//c)|}

(* -------------------------------------------------------------- built-ins *)

let test_builtin_corners () =
  let st = mk_store () in
  check st "max with NaN is NaN" "NaN" {|max((1, number("oops"), 99))|};
  check st "avg of empty is empty" "" "avg(())";
  check st "sum of empty is 0" "0" "sum(())";
  check st "count of atomics" "3" "count((1,1,1))";
  check st "subsequence fractional start" "2 3"
    "subsequence((1,2,3), 1.7)";
  check st "subsequence negative start" "1"
    "subsequence((1,2,3), -1, 3)";
  check st "distinct-values keeps first occurrences" "3 1 2"
    "distinct-values((3,1,3,2,1))";
  check st "string of element is text concat" "xy"
    {|string(exactly-one(doc("t.xml")/a/e))|};
  check st "data of attribute" "1" {|data(doc("t.xml")/a/e/@k)|};
  check st "name of attribute" "k" {|name(doc("t.xml")/a/e/@k)|};
  check st "number of unparsable is NaN" "NaN" {|number("12,5")|};
  check st "round half up" "3" "round(2.5)";
  (* XQuery rounds .5 toward positive infinity *)
  check st "round negative half" "-2" "round(-2.5)"

(* Unary plus checks its operand as unary minus does: at most one item,
   numeric after atomization. *)
let test_unary_plus () =
  let st = mk_store () in
  check st "+ of untyped content is a number" "1" "+<a>1</a>";
  check st "+ of the empty sequence" "" "+()";
  check st "+ keeps the sign" "-2.5" "+(-2.5)";
  expect_dynamic st "+(1,2)";
  expect_dynamic st {|+("a")|}

(* fn:doc(()) is the empty sequence; an unknown document is an error. *)
let test_doc_empty () =
  let st = mk_store () in
  check st "doc of ()" "" "doc(())";
  check st "count of doc of ()" "0" "count(doc(()))";
  check st "doc of an empty variable" "0" "let $u := () return count(doc($u))";
  expect_dynamic st {|doc("missing.xml")|}

let test_deep_equal_and_friends () =
  let st = mk_store () in
  check st "deep-equal across copies" "true"
    {|deep-equal(doc("t.xml")//b, <b><c/><d/></b>)|};
  check st "deep-equal observes attributes" "false"
    {|deep-equal(<x a="1"/>, <x a="2"/>)|};
  check st "insert-before start" "x a b"
    {|string-join(insert-before(("a","b"), 1, "x"), " ")|};
  check st "remove out of range is identity" "a b"
    {|string-join(remove(("a","b"), 5), " ")|}

(* ----------------------------------------------------------------- quant *)

let test_quantifiers () =
  let st = mk_store () in
  check st "some over empty" "false" "some $x in () satisfies true()";
  check st "every over empty" "true" "every $x in () satisfies false()";
  check st "existential comparison" "true" "(1,2,3) = (3,4)";
  check st "existential inequality both ways" "true" "(1,2) != (1,2)";
  check st "no witness" "false" "(1,2) = (3,4)"

(* ------------------------------------------------------------------ main *)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "interp"
    [ ( "flwor",
        [ t "tuple stream" test_flwor_tuples;
          t "order by" test_order_by ] );
      ( "semantics",
        [ t "effective boolean value" test_ebv;
          t "dynamic predicates" test_dynamic_predicates;
          t "construction" test_construction;
          t "node identity" test_node_identity;
          t "quantifiers" test_quantifiers ] );
      ( "builtins",
        [ t "corner cases" test_builtin_corners;
          t "unary plus" test_unary_plus;
          t "doc of the empty sequence" test_doc_empty;
          t "deep-equal / sequences" test_deep_equal_and_friends ] );
    ]

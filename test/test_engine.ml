(* End-to-end engine tests, built around differential testing:

     reference interpreter (ordered semantics)
       ==  compiled plans, for every combination of
           {Figure-7 rules on/off} x {CDA on/off} x {hoisting on/off}

   exactly under ordered mode, and up to the admissible reordering under
   ordering mode unordered. Plus dynamic-error propagation and a qcheck
   generator of random FLWOR/arithmetic/path queries. *)

module Value = Algebra.Value

let mk_store () =
  let st = Xmldb.Doc_store.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"t.xml"
      "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"
  in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"ids.xml"
      "<r><p id=\"p1\"><q id=\"q1\"/></p><p id=\"p2\"/></r>"
  in
  st

(* serialize each item separately so sequences compare item-wise *)
let ser st items =
  List.map
    (fun it ->
       match it with
       | Value.Node n -> Xmldb.Serialize.node_to_string st n
       | v -> Value.to_string v)
    items

let opts_matrix =
  [ ("full", Engine.default_opts);
    ("no-cda", { Engine.default_opts with Engine.cda = false });
    ("no-hoist", { Engine.default_opts with Engine.hoist = false });
    ("baseline", Engine.ordered_baseline);
    ("rules-only", { Engine.default_opts with Engine.cda = false; Engine.hoist = false });
    ("tag-index", { Engine.default_opts with Engine.step_impl = Algebra.Eval.Tag_index }) ]

let check_query ?(multiset = false) st q =
  let reference =
    match Interp.Interpreter.run st q with
    | items -> Ok (ser st items)
    | exception Basis.Err.Dynamic_error m -> Error m
  in
  List.iter
    (fun (oname, opts) ->
       let got =
         match Engine.run ~opts st q with
         | r -> Ok (ser st r.Engine.items)
         | exception Basis.Err.Dynamic_error m -> Error m
       in
       match (reference, got) with
       | Ok a, Ok b ->
         let a, b =
           if multiset then (List.sort compare a, List.sort compare b)
           else (a, b)
         in
         if a <> b then
           Alcotest.failf "%s [%s]:\n  interp:   %s\n  compiled: %s" q oname
             (String.concat " | " a) (String.concat " | " b)
       | Error _, Error _ -> ()
       | Error m, Ok _ ->
         Alcotest.failf "%s [%s]: interp raised (%s), compiled succeeded" q oname m
       | Ok _, Error m ->
         Alcotest.failf "%s [%s]: compiled raised (%s), interp succeeded" q oname m)
    opts_matrix

let t name ?multiset queries =
  Alcotest.test_case name `Quick (fun () ->
      let st = mk_store () in
      List.iter (fun q -> check_query ?multiset st q) queries)

(* ------------------------------------------------------------ the corpus *)

let literals_and_sequences =
  [ "42"; "-7"; "3.5"; "\"str\""; "()"; "(1,2,3)"; "((1,2),(),(3))";
    "1 to 5"; "5 to 1"; "(1 to 3, 10 to 12)"; "reverse(1 to 4)";
    "subsequence((1,2,3,4,5), 2)"; "subsequence((1,2,3,4,5), 2, 2)" ]

let arithmetic =
  [ "1 + 2 * 3"; "7 idiv 2"; "7 mod 2"; "1 div 4"; "-(3 + 4)";
    "\"12\" + 1"; "() + 1"; "1.5 * 2"; "10 - 2 - 3" ]

let comparisons =
  [ "1 < 2"; "2 <= 2"; "(1,2,3) = 3"; "(1,2) = (3,4)"; "(1,2) != (1,2)";
    "() = 1"; "\"a\" < \"b\""; "1 eq 1"; "2 gt 1"; "\"x\" ne \"y\"";
    "(1,2,3) >= 3" ]

let logic =
  [ "true() and false()"; "true() or false()"; "not(true())";
    "1 and 1"; "0 or 0"; "boolean((1,2)[1] = 1)";
    "if (1 < 2) then \"y\" else \"n\"";
    "if (()) then 1 else 2" ]

let flwors =
  [ "for $x in (1,2,3) return $x * 2";
    "for $x in (1,2) return ($x, $x * 10)";
    "for $x in (1,2), $y in (10,20) return $x + $y";
    "for $x in (1,2) for $y in ($x, $x+1) return $x * 100 + $y";
    "for $x at $p in (\"a\",\"b\") return $p";
    "let $x := (1,2) return count($x)";
    "for $x in (1,2,3,4) where $x mod 2 = 0 return $x";
    "for $x in (1,2,3) let $y := $x * $x where $y > 2 return $y";
    "for $x in (3,1,2) order by $x return $x";
    "for $x in (3,1,2) order by $x descending return $x";
    "for $x in (1,2,3), $y in (1,2) order by $y, $x descending return $x * 10 + $y";
    "for $x in (\"b\",(),\"a\") order by string($x) return \"k\"";
    "for $p in (1,2) return for $q in (1 to $p) return $q";
    "for $x in () return 1";
    "let $x := () return ($x, 1)" ]

let quantifiers =
  [ "some $x in (1,2,3) satisfies $x > 2";
    "every $x in (1,2,3) satisfies $x > 0";
    "some $x in () satisfies $x";
    "every $x in () satisfies $x";
    "some $x in (1,2), $y in (2,3) satisfies $x = $y" ]

let paths =
  [ "doc(\"t.xml\")/a";
    "doc(\"t.xml\")/a/b/c";
    "doc(\"t.xml\")//c";
    "doc(\"t.xml\")//*";
    "doc(\"t.xml\")//text()";
    "doc(\"t.xml\")//node()";
    "doc(\"t.xml\")/a/e/@k";
    "doc(\"t.xml\")//c/..";
    "doc(\"t.xml\")//f/ancestor::*";
    "doc(\"t.xml\")//f/following::*";
    "doc(\"t.xml\")//f/preceding::node()";
    "doc(\"t.xml\")//c/following-sibling::*";
    "doc(\"t.xml\")/a/b/preceding-sibling::node()";
    "doc(\"t.xml\")//self::c";
    "(doc(\"t.xml\")//c | doc(\"t.xml\")//d)";
    "(doc(\"t.xml\")//* intersect doc(\"t.xml\")/a/*)";
    "(doc(\"t.xml\")//* except doc(\"t.xml\")//c)";
    "doc(\"t.xml\")/a/*[2]";
    "doc(\"t.xml\")//*[last()]";
    "doc(\"t.xml\")//*[@k]";
    "doc(\"t.xml\")//*[@k = \"1\"]";
    "doc(\"t.xml\")//*[c][1]";
    "doc(\"t.xml\")/a/(b|e)/node()";
    "for $n in doc(\"t.xml\")//* return name($n)";
    "doc(\"t.xml\")//e/text()";
    "doc(\"t.xml\")//f/ancestor::*[1]";
    "doc(\"t.xml\")//f/ancestor::*[last()]";
    "doc(\"t.xml\")//e/preceding-sibling::*[1]";
    "doc(\"t.xml\")//d/ancestor-or-self::node()[2]";
    "(doc(\"t.xml\")//f/ancestor::*)[1]";
    (* correlated comparison predicates: recognized as joins *)
    "for $v in (\"1\", \"x\", 1) return doc(\"t.xml\")/a/e[@k = $v]";
    "for $v in (\"x\", \"y\") return count((doc(\"t.xml\")//e)[text() = $v])";
    "for $v in (1, 2) return doc(\"t.xml\")/a/*[@k != $v]";
    "for $v in (0, 2) return doc(\"t.xml\")//*[@k < $v][1]";
    "let $d := <w1><w2><w3><w4><c/></w4></w3></w2></w1> \
     return name(exactly-one($d//c/ancestor::*[2]))";
    "let $d := <w1><w2><w3><w4><c/></w4></w3></w2></w1> \
     return name(exactly-one($d//c/ancestor::*[w3][1]))";
    "let $d := <w1><w2><w3><w4><c/></w4></w3></w2></w1> \
     return name(exactly-one($d//c/ancestor-or-self::*[3]))" ]

let functions =
  [ "count((1,2,3))"; "count(())"; "sum((1,2,3))"; "sum(())";
    "avg((1,2,3))"; "max((1,5,3))"; "min((2,1,3))"; "max(())";
    "empty(())"; "empty((1))"; "exists(())"; "exists((1))";
    "distinct-values((1,2,1,3))"; "data(doc(\"t.xml\")//e/@k)";
    "string(doc(\"t.xml\")/a/e)"; "string-length(\"hello\")";
    "concat(\"a\",\"b\",\"c\")"; "contains(\"hello\",\"lo\")";
    "starts-with(\"hello\",\"he\")"; "string-join((\"x\",\"y\",\"z\"), \"-\")";
    "number(\"3.5\")"; "number(\"oops\") != 1"; "round(2.5)"; "floor(2.9)";
    "ceiling(2.1)"; "abs(-4)"; "zero-or-one(())"; "zero-or-one((7))";
    "exactly-one((7))"; "one-or-more((1,2))";
    "local-name(doc(\"t.xml\")/a/e/@k)";
    "normalize-space(\"  a   b \")" ]

let string_functions =
  [ "substring(\"motor car\", 6)"; "substring(\"metadata\", 4, 3)";
    "substring(\"12345\", 1.5, 2.6)"; "substring(\"12345\", 0, 3)";
    "substring(\"12345\", 5, -3)"; "upper-case(\"aBc0\")"; "lower-case(\"AbC0\")";
    "ends-with(\"tattoo\", \"too\")"; "ends-with(\"tattoo\", \"x\")";
    "substring-before(\"tattoo\", \"attoo\")"; "substring-before(\"tattoo\", \"z\")";
    "substring-after(\"tattoo\", \"tat\")"; "substring-after(\"tattoo\", \"z\")";
    "translate(\"bar\", \"abc\", \"ABC\")"; "translate(\"--aaa--\", \"abc-\", \"ABC\")";
    "upper-case(string(doc(\"t.xml\")/a/e))" ]

let sequence_functions =
  [ "remove((\"a\",\"b\",\"c\"), 2)"; "remove((\"a\",\"b\",\"c\"), 9)";
    "remove((), 1)";
    "insert-before((\"a\",\"b\",\"c\"), 2, (\"x\",\"y\"))";
    "insert-before((\"a\",\"b\",\"c\"), 0, \"x\")";
    "insert-before((\"a\",\"b\",\"c\"), 9, \"x\")";
    "insert-before((), 1, (\"x\",\"y\"))";
    "deep-equal((1,2), (1,2))"; "deep-equal((1,2), (2,1))";
    "deep-equal((), ())";
    "deep-equal(doc(\"t.xml\")//b, doc(\"t.xml\")//b)";
    "deep-equal(<a><b/></a>, <a><b/></a>)";
    "deep-equal(<a><b/></a>, <a><c/></a>)";
    "max((\"9\", \"10\"))"; "min((\"9\", \"10\"))";
    "max((\"pear\", \"apple\"))"; "min((\"b\", \"a\", \"c\"))";
    "max(doc(\"t.xml\")/a/e/@k)";
    "for $x in (1,2) return remove(($x, $x+1, $x+2), $x)" ]

let constructors =
  [ "<e/>"; "<e a=\"1\" b=\"x{1+1}\"/>"; "<e>text</e>";
    "<e>{ 1, 2 }</e>"; "<e>a{ 1 }b</e>"; "<e>{ \"x\" }{ \"y\" }</e>";
    "<out>{ doc(\"t.xml\")//c }</out>";
    "<out>{ doc(\"t.xml\")/a/e/@k }</out>";
    "element foo { \"x\" }"; "element { \"bar\" } { () }";
    "attribute sz { 1 + 1 }"; "text { \"plain\" }"; "comment { \"note\" }";
    "<w><inner>{ doc(\"t.xml\")//d }</inner></w>";
    "(<a1/>, <b1/>, <c1/>)";
    "for $i in (1,2) return <r n=\"{ $i }\"><v>{ $i * 2 }</v></r>";
    "string(<e>{ 1+1 }</e>)" ]

(* node identity / order across constructed trees *)
let node_semantics =
  [ "let $b := doc(\"t.xml\")//b, $d := doc(\"t.xml\")//d, \
       $e := <e>{ $d, $b }</e> \
     return ($b << $d, exactly-one($e/b) << exactly-one($e/d))";
    "let $c := doc(\"t.xml\")//c return ($c[1] is $c[1], $c[1] is $c[2])";
    "count(<x><y/></x>/y)";
    "let $t := doc(\"t.xml\") return $t//c[2]" ]

let type_operators =
  [ "5 instance of xs:integer"; "5 instance of xs:string";
    "5.5 instance of xs:double"; "\"x\" instance of xs:string";
    "(1,2) instance of xs:integer+"; "(1,2) instance of xs:integer?";
    "() instance of empty-sequence()"; "(1) instance of empty-sequence()";
    "() instance of xs:integer?"; "() instance of xs:integer";
    "doc(\"t.xml\")//c instance of element()*";
    "doc(\"t.xml\")//c instance of element(c)+";
    "doc(\"t.xml\")//c instance of element(d)*";
    "doc(\"t.xml\")/a/e/@k instance of attribute()";
    "doc(\"t.xml\")//text() instance of text()+";
    "doc(\"t.xml\") instance of document-node()";
    "(5, \"x\") instance of item()+";
    "\"4.5\" cast as xs:double"; "\"42\" cast as xs:integer + 1";
    "() cast as xs:integer?"; "5 cast as xs:string";
    "\"true\" cast as xs:boolean"; "1 cast as xs:boolean";
    "\"abc\" castable as xs:integer"; "\"42\" castable as xs:integer";
    "() castable as xs:integer?"; "() castable as xs:integer";
    "(1,2) castable as xs:integer";
    "(1,2,3) treat as xs:integer+";
    "typeswitch (5) case xs:string return \"s\" case $i as xs:integer return $i * 2 default return 0";
    "typeswitch (<a/>) case element(b) return 1 case element(a) return 2 default return 3";
    "typeswitch (()) case xs:integer return 1 default $d return count($d)";
    "for $x in (1, \"a\", 2.5) return typeswitch ($x) case xs:integer return \"int\" case xs:double return \"dbl\" default return \"other\"" ]

let type_errors =
  [ "() cast as xs:integer"; "(1,2) cast as xs:integer";
    "\"abc\" cast as xs:integer"; "(1,2) treat as xs:integer";
    "\"x\" treat as xs:integer" ]

let misc_features =
  [ "declare boundary-space preserve; <a> <b/> </a>";
    "declare boundary-space strip; <a> <b/> </a>";
    "root(doc(\"t.xml\")//d) is doc(\"t.xml\")";
    "name(exactly-one(root(doc(\"t.xml\")//d)/a))";
    "root(<x><y/></x>//y) instance of element(x)";
    "id(\"p2\", doc(\"ids.xml\"))";
    "id((\"q1\", \"p1\"), doc(\"ids.xml\"))";
    "id(\"p2 p1\", doc(\"ids.xml\"))";
    "id(\"nosuch\", doc(\"ids.xml\"))";
    "id(\"p1\", doc(\"t.xml\"))";
    "for $i in (\"p1\",\"p2\") return name(exactly-one(id($i, doc(\"ids.xml\"))))";
    "count(id(\"p1 p1 q1\", doc(\"ids.xml\")))" ]

let unordered_queries =
  [ "unordered { doc(\"t.xml\")//(c|d) }";
    "unordered { for $x in (1,2) return ($x, $x * 10) }";
    "declare ordering unordered; doc(\"t.xml\")//*";
    "declare ordering unordered; for $x in doc(\"t.xml\")//* return name($x)";
    "unordered { (doc(\"t.xml\")//c, doc(\"t.xml\")//d) }";
    "declare ordering unordered; \
     for $b in doc(\"t.xml\")/a/b return count($b/descendant::c)" ]

(* the paper's section 2 examples *)
let paper_examples =
  [ (* expression (3): constructed document order *)
    "let $t := doc(\"t.xml\") \
     let $b := $t//b let $d := $t//d \
     let $e := <e>{ $d, $b }</e> \
     return (exactly-one($b) << exactly-one($d), \
             exactly-one($e/b) << exactly-one($e/d))";
    (* expression (4): positional variables *)
    "for $x at $p in (\"a\",\"b\",\"c\") return <e pos=\"{ $p }\">{ $x }</e>";
    (* expression (5): iteration-internal order *)
    "for $x in (1,2) return ($x, $x * 10)";
    (* expression (6)/(7): nested iteration *)
    "for $x in (1,2) for $y in (10,20) return <a>{ $x, $y }</a>" ]

(* ------------------------------------------------------- dynamic errors *)

let test_errors () =
  let st = mk_store () in
  let expect_dynamic q =
    (match Engine.run st q with
     | exception Basis.Err.Dynamic_error _ -> ()
     | _ -> Alcotest.failf "expected dynamic error: %s" q)
  in
  expect_dynamic "1 idiv 0";
  expect_dynamic "exactly-one(())";
  expect_dynamic "exactly-one((1,2))";
  expect_dynamic "zero-or-one((1,2))";
  expect_dynamic "one-or-more(())";
  expect_dynamic "doc(\"missing.xml\")";
  expect_dynamic "1 + \"x\"";
  expect_dynamic "sum((1, \"x\"))";
  expect_dynamic "error()";
  (* a path whose last step yields atomics violates XQuery 1.0 *)
  expect_dynamic "let $d := <a><b/></a> return $d/b/name()";
  expect_dynamic "error((), \"oops\")";
  expect_dynamic "for $x in (1,2) return error(\"per iteration\")";
  List.iter expect_dynamic type_errors

(* The interpreter, then the compiled plans under every plan option,
   without fallback, so that the compiled plans answer (or raise)
   themselves. *)
let backends st =
  ("interpreter", fun q -> ser st (Interp.Interpreter.run st q))
  :: List.map
       (fun (oname, opts) ->
          let opts = { opts with Engine.fallback = false } in
          (oname, fun q -> ser st (Engine.run ~opts st q).Engine.items))
       opts_matrix

let dynamic_message run q =
  match run q with
  | exception Basis.Err.Dynamic_error m -> m
  | _ -> Alcotest.failf "expected dynamic error: %s" q

(* Unary plus checks its operand as unary minus does; answers written by
   hand. *)
let test_unary_plus () =
  let st = mk_store () in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check (list string)) (Printf.sprintf "%s [%s]" q name)
              want (run q))
         [ ([ "1" ], "+<a>1</a>"); ([], "+()"); ([ "-2.5" ], "+(-2.5)") ];
       List.iter
         (fun q -> ignore (dynamic_message run q))
         [ "+(1,2)"; {|+("a")|} ])
    (backends st)

(* One error, one message: a sequence of several items where at most one
   is allowed, the effective boolean value of several atomics, and a
   path step that returns atomic values each read the same text on both
   backends. *)
let test_error_messages () =
  let st = mk_store () in
  let many = "a singleton sequence is required here, got 2 items" in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check string) (Printf.sprintf "%s [%s]" q name) want
              (dynamic_message run q))
         [ (many, "for $x in (1,2) return (($x, 3) eq 1)");
           (many, "(1,2) + 1");
           (many, "string((1,2))");
           (many, "+(1,2)");
           ( "effective boolean value of a sequence of 2 atomic items",
             "(10,20,30)[(1,2)]" );
           ( "path steps must return nodes, got xs:string",
             {|doc("t.xml")/a/e/@k/string()|} );
           ( "element name must be a QName, got xs:integer",
             "element {1} {()}" );
           ( "attribute name must be a QName, got xs:double",
             {|attribute {1.5} {"x"}|} ) ])
    (backends st)

(* A query's items, or its error class and message. *)
let outcome run q =
  match run q with
  | items -> String.concat " " items
  | exception e -> (
    match Engine.classify_error e with
    | Some { Engine.kind; message } ->
      Basis.Err.kind_label kind ^ ": " ^ message
    | None -> raise e)

(* Queries the two backends used to answer differently, or both wrapped:
   integer overflow, atomic operands of the node-set operators, computed
   constructor names that are not one item, and fn:doc(()). Each answer
   — the items, or the error class and message — is written by hand and
   must come out of every backend. *)
let test_backend_parity () =
  let st = mk_store () in
  let literal n =
    Printf.sprintf
      "static: syntax error at offset 19: integer literal %s is out of range" n
  in
  let overflow = "dynamic: integer overflow" in
  let not_node = "dynamic: expected a node, got xs:integer" in
  let no_name =
    "dynamic: a singleton sequence is required here, got 0 items"
  in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check string) (Printf.sprintf "%s [%s]" q name) want
              (outcome run q))
         [ (literal "9223372036854775807", "9223372036854775807");
           (literal "4611686018427387904", "4611686018427387904");
           (overflow, "4611686018427387903 + 1");
           (overflow, "sum((4611686018427387903, 1))");
           (overflow, "abs(-4611686018427387903 - 1)");
           (overflow, "(-4611686018427387903 - 1) idiv -1");
           (overflow, "-(-4611686018427387903 - 1)");
           (overflow, "4611686018427387903 * 2");
           (overflow, "for $x in (1, 4611686018427387903) return $x * 2");
           ("4611686018427387903", "4611686018427387902 + 1");
           ("-4611686018427387904", "-4611686018427387903 - 1");
           ("4611686018427387903", "sum((4611686018427387903, -1, 1))");
           ("4611686018427387903", "sum((4611686018427387903, 1, -1))");
           ("1537228672809129301", "avg((4611686018427387903, 1, -1))");
           (overflow, "avg((4611686018427387903, 4611686018427387903))");
           ("4.61168601843e+18", "sum((4611686018427387903, 1, 1.0))");
           (not_node, "(1)|(2)");
           (not_node, "(3,1) intersect (1)");
           (not_node, "(3,1) except (1)");
           (not_node, {|(doc("t.xml")/a/b, 1) | doc("t.xml")/a/c|});
           ("2", {|count(doc("t.xml")/a/* except doc("t.xml")/a/b)|});
           ("1", {|count(doc("t.xml")//c intersect doc("t.xml")/a/c)|});
           (no_name, "element {()} {()}");
           (no_name, {|attribute {()} {"x"}|});
           (no_name, "let $e := () return element {$e} {()}");
           ( "dynamic: a singleton sequence is required here, got 2 items",
             {|element {("a", "b")} {()}|} );
           ("<x>1</x> <y>1</y>", {|for $n in ("x", "y") return element {$n} {1}|});
           ("", "doc(())");
           ("0", "count(doc(()))") ])
    (backends st)

(* Numeric conversions follow XQuery on every backend. A double becomes
   an xs:integer only when it is integral and -2^62 <= d < 2^62: a NaN,
   infinite or out-of-range [idiv] quotient is FOAR0002 (integer
   overflow), an out-of-range cast the cast error NaN and INF give. A
   string is a number only in an XSD lexical form, never in OCaml
   literal syntax. Answers written by hand. *)
let test_numeric_conversions () =
  let st = mk_store () in
  let overflow = "dynamic: integer overflow" in
  let no_int s = Printf.sprintf "dynamic: cannot cast %s to xs:integer" s in
  let no_dbl s = Printf.sprintf "dynamic: cannot cast %S to xs:double" s in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check string) (Printf.sprintf "%s [%s]" q name) want
              (outcome run q))
         [ (overflow, "1e300 idiv 1");
           (overflow, "-1e300 idiv 1");
           (overflow, "(1 div 0e0) idiv 1");
           (overflow, "(0e0 div 0e0) idiv 1");
           ("3", "7.9 idiv 2");
           (no_int "1e+300", "1e300 cast as xs:integer");
           (no_int "1e+300", "round(1e300) cast as xs:integer");
           (no_int "4.61169e+18", "4.611686018427387904e18 cast as xs:integer");
           ( "4611686018427387392",
             "4.6116860184273874e18 cast as xs:integer" );
           ( "-4611686018427387904",
             "-4.611686018427387904e18 cast as xs:integer" );
           (no_int {|"0x10"|}, {|"0x10" cast as xs:integer|});
           (no_int {|"1_000"|}, {|"1_000" cast as xs:integer|});
           (no_int {|"0b11"|}, {|"0b11" cast as xs:integer|});
           (no_int {|"1e3"|}, {|"1e3" cast as xs:integer|});
           (no_dbl "0x1p3", {|"0x1p3" cast as xs:double|});
           (no_dbl "inf", {|"inf" cast as xs:double|});
           (no_dbl "infinity", {|"infinity" cast as xs:double|});
           (no_dbl "nan", {|"nan" cast as xs:double|});
           ("NaN", {|number("0x10")|});
           (no_dbl "0x10", {|<a v="0x10"/>/@v = 16|});
           ("12", {|" 12 " cast as xs:integer|});
           ("5", {|"+5" cast as xs:integer|});
           ("1", {|"1." cast as xs:double|});
           ("0.5", {|".5" cast as xs:double|});
           ("1000", {|"1E3" cast as xs:double|});
           ("-INF", {|"-INF" cast as xs:double|});
           ("true", {|<a v=" 16 "/>/@v = 16|}) ])
    (backends st)

(* A range operand must be an xs:integer (XPTY0004): a double or a
   boolean bound is a type error on every backend, never a cast, while
   an untyped value (a constructed element's text) is cast. Answers
   written by hand. *)
let test_range_operands () =
  let st = mk_store () in
  let not_int t =
    Printf.sprintf "dynamic: a range operand must be an xs:integer, got %s" t
  in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check string) (Printf.sprintf "%s [%s]" q name) want
              (outcome run q))
         [ (not_int "xs:double", "1 to 3.0");
           (not_int "xs:double", "1.5 to 3");
           (not_int "xs:double", "1 to 3e0");
           (not_int "xs:boolean", "1 to true()");
           (not_int "xs:double", "for $i in (1, 2) return $i to 2.0");
           ("1 2 3", "1 to <a>3</a>");
           ("1 2 3", "1 to 3");
           ("", "3 to 1");
           ("", "() to 3.0") ])
    (backends st)

(* A position argument of remove and insert-before is an xs:integer
   (XPTY0004), read like a range operand: a double or a boolean is a
   type error on every backend, an untyped value is cast. Answers
   written by hand. *)
let test_position_arguments () =
  let st = mk_store () in
  let not_int t =
    Printf.sprintf "dynamic: a position must be an xs:integer, got %s" t
  in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check string) (Printf.sprintf "%s [%s]" q name) want
              (outcome run q))
         [ (not_int "xs:double", "insert-before((1,2,3), 2.5, 9)");
           (not_int "xs:double", "remove((1,2,3), 2.0)");
           (not_int "xs:boolean", "remove((1,2,3), true())");
           ("1 3", "remove((1,2,3), <a>2</a>)");
           ("1 3", "remove((1,2,3), 2)");
           ("1 9 2 3", "insert-before((1,2,3), 2, 9)");
           ("1 9 2 3", "insert-before((1,2,3), <a>2</a>, 9)");
           ("9 1 2 3 1 2 3 9",
            "for $i in (0, 7) return insert-before((1,2,3), $i, 9)") ])
    (backends st)

(* Inequality joins compare xs:integers exactly, also just above 2^53,
   where doubles lose the last bit. Answers written by hand. *)
let test_inequality_join_integers () =
  let st = mk_store () in
  List.iter
    (fun (name, run) ->
       List.iter
         (fun (want, q) ->
            Alcotest.(check string) (Printf.sprintf "%s [%s]" q name) want
              (outcome run q))
         [ ( "9007199254740993 9007199254740992 9007199254740993 0 1 0",
             "for $x in (9007199254740993, 1) for $y in (9007199254740992, \
              0) where $x > $y return ($x, $y)" );
           ( "9007199254740992 0 1 0",
             "for $x in (9007199254740992, 1) for $y in (9007199254740993, \
              0) where $x >= $y return ($x, $y)" );
           ( "9007199254740992 9007199254740993 1 9007199254740993",
             "for $x in (9007199254740992, 1) for $y in (9007199254740993, \
              0) where $x < $y return ($x, $y)" );
           ( "1 9007199254740992",
             "for $x in (9007199254740993, 1) for $y in (9007199254740992, \
              0) where $x <= $y return ($x, $y)" ) ])
    (backends st)

(* Predicates whose value is known only at run time (XQuery 1.0, 3.2.2):
   one numeric item tests the position, anything else its effective
   boolean value. Answers written by hand, checked under every plan
   option; none of these predicates may be recognized as a join. *)
let test_dynamic_predicates () =
  let st = mk_store () in
  let b = "<b><c/><d/></b>" and e = {|<e k="1">x<f/>y</e>|} in
  List.iter
    (fun (expected, q) ->
       List.iter
         (fun (oname, opts) ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s [%s]" q oname)
              expected
              (ser st (Engine.run ~opts st q).Engine.items))
         (("no-joinrec", { Engine.default_opts with Engine.join_rec = false })
          :: opts_matrix))
    [ ([ "20" ], "let $n := 2 return (10,20,30)[$n]");
      ([ b; "<c/>" ], {|for $n in (1,2) return doc("t.xml")/a/*[$n]|});
      ([ "20" ], "let $n := 2.0 return (10,20,30)[$n]");
      ([], "let $n := 2.5 return (10,20,30)[$n]");
      ([ "10"; "20"; "30" ], {|let $n := "x" return (10,20,30)[$n]|});
      ([], {|let $n := "" return (10,20,30)[$n]|});
      ([ b; "<c/>"; e ],
       {|let $n := doc("t.xml")//@k return doc("t.xml")/a/*[$n]|});
      ([ "2" ], "(3,2,1)[.]");
      (* reverse axes number their predicate positions nearest first *)
      ([ "<c/>"; b ],
       {|for $n in (1,2) return doc("t.xml")//e/preceding-sibling::*[$n]|});
      (* ... but a parenthesized path is a sequence in document order *)
      ([ b; "<c/>" ],
       {|for $n in (1,2) return (doc("t.xml")//e/preceding-sibling::*)[$n]|}) ];
  match Engine.run st "let $n := (1,2) return (10,20,30)[$n]" with
  | exception Basis.Err.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "a two-item predicate has no effective boolean value"

(* --------------------------------------- unordered results: permutations *)

let test_unordered_permutation () =
  let st = mk_store () in
  let q_ord = "doc(\"t.xml\")//(c|d|f)" in
  let q_unord = "unordered { doc(\"t.xml\")//(c|d|f) }" in
  let a = ser st (Engine.run st q_ord).Engine.items in
  let b = ser st (Engine.run st q_unord).Engine.items in
  Alcotest.(check (list string)) "same multiset"
    (List.sort compare a) (List.sort compare b);
  (* and this specific engine produces the concatenated order that
     Section 1 of the paper anticipates: the c nodes precede the d node *)
  let q2 = "unordered { doc(\"t.xml\")/a/b/(c|d) }" in
  let got = ser st (Engine.run st q2).Engine.items in
  Alcotest.(check (list string)) "c's first" [ "<c/>"; "<d/>" ] got

(* A processing-instruction(target) step selects PIs with that target —
   not elements named like it. Expected answers are written by hand: every
   executor (and the interpreter) shares the staircase step. *)
let test_pi_target_steps () =
  let st = Xmldb.Doc_store.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"t.xml"
      "<a><?foo bar?><foo/><b><?foo baz?></b></a>"
  in
  List.iter
    (fun (q, want) ->
       Alcotest.(check (list string)) (q ^ " [interpreter]") want
         (ser st (Interp.Interpreter.run st q));
       List.iter
         (fun (oname, opts) ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s [%s]" q oname)
              want
              (ser st (Engine.run ~opts st q).Engine.items))
         opts_matrix)
    [ ({|doc("t.xml")//processing-instruction(foo)|},
       [ "<?foo bar?>"; "<?foo baz?>" ]);
      ({|doc("t.xml")/a/processing-instruction(foo)|}, [ "<?foo bar?>" ]);
      ({|doc("t.xml")/a/self::processing-instruction(a)|}, []);
      ({|doc("t.xml")//foo|}, [ "<foo/>" ]) ]

(* ------------------------------------------------------------- XMark *)

let test_xmark_differential () =
  let st = Xmldb.Doc_store.create () in
  let _ = Xmark.Xmark_gen.load ~scale:0.001 st in
  List.iter
    (fun (name, q) ->
       let reference = ser st (Interp.Interpreter.run st q) in
       List.iter
         (fun (oname, opts) ->
            let got = ser st (Engine.run ~opts st q).Engine.items in
            if got <> reference then
              Alcotest.failf "XMark %s [%s] differs from the interpreter"
                name oname)
         opts_matrix)
    Xmark.Xmark_queries.all

let test_xmark_join_recognition () =
  (* the value-join queries must agree across join-recognition on/off and
     the interpreter, at a scale where the plans genuinely differ *)
  let st = Xmldb.Doc_store.create () in
  let _ = Xmark.Xmark_gen.load ~scale:0.003 st in
  List.iter
    (fun qn ->
       let q = Xmark.Xmark_queries.get qn in
       let reference = ser st (Interp.Interpreter.run st q) in
       List.iter
         (fun opts ->
            let got = ser st (Engine.run ~opts st q).Engine.items in
            if got <> reference then
              Alcotest.failf "XMark %s: join recognition changes the result" qn)
         [ Engine.default_opts;
           { Engine.default_opts with Engine.join_rec = false };
           { Engine.default_opts with Engine.hoist = false; Engine.join_rec = false } ])
    [ "Q8"; "Q9"; "Q11"; "Q12" ]

let test_xmark_unordered_multiset () =
  let st = Xmldb.Doc_store.create () in
  let _ = Xmark.Xmark_gen.load ~scale:0.001 st in
  let unopts = { Engine.default_opts with Engine.mode = Some Xquery.Ast.Unordered } in
  List.iter
    (fun (name, q) ->
       let reference = List.sort compare (ser st (Interp.Interpreter.run st q)) in
       let got =
         List.sort compare (ser st (Engine.run ~opts:unopts st q).Engine.items)
       in
       (* under ordering mode unordered the result must still be a
          permutation of the ordered result for every XMark query: none of
          them observes sequence order of unordered subexpressions *)
       if got <> reference then
         Alcotest.failf "XMark %s: unordered result is not a permutation" name)
    Xmark.Xmark_queries.all

(* ------------------------------------------------ random query property *)

let gen_query : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var_names = [ "v"; "w" ] in
  let rec expr depth in_scope =
    let atoms =
      [ (3, map string_of_int (int_range 0 9));
        (1, return "()");
        (2, oneofl (List.filter_map
                      (fun v -> if List.mem v in_scope then Some ("$" ^ v) else None)
                      var_names
                    @ [ "1" ])) ]
    in
    if depth >= 3 then frequency atoms
    else
      frequency
        (atoms
         @ [ (2,
              (let* a = expr (depth + 1) in_scope in
               let* b = expr (depth + 1) in_scope in
               let* op = oneofl [ "+"; "-"; "*" ] in
               return (Printf.sprintf "(%s %s %s)" a op b)));
             (2,
              (let* a = expr (depth + 1) in_scope in
               let* b = expr (depth + 1) in_scope in
               return (Printf.sprintf "(%s, %s)" a b)));
             (1,
              (let* a = expr (depth + 1) in_scope in
               let* b = expr (depth + 1) in_scope in
               let* op = oneofl [ "="; "<"; ">=" ] in
               return (Printf.sprintf "(%s %s %s)" a op b)));
             (1,
              (let* a = expr (depth + 1) in_scope in
               let* f = oneofl [ "count"; "sum"; "reverse"; "empty" ] in
               return (Printf.sprintf "%s(%s)" f a)));
             (2,
              (let* v = oneofl var_names in
               let* dom = expr (depth + 1) in_scope in
               let* body = expr (depth + 1) (v :: in_scope) in
               return (Printf.sprintf "(for $%s in (%s) return %s)" v dom body)));
             (1,
              (let* v = oneofl var_names in
               let* dom = expr (depth + 1) in_scope in
               let* cond = expr (depth + 1) (v :: in_scope) in
               let* body = expr (depth + 1) (v :: in_scope) in
               return
                 (Printf.sprintf
                    "(for $%s in (%s) where boolean(($%s, %s)[1] >= 2) return %s)"
                    v dom v cond body)));
             (1,
              (let* v = oneofl var_names in
               let* def = expr (depth + 1) in_scope in
               let* body = expr (depth + 1) (v :: in_scope) in
               return (Printf.sprintf "(let $%s := (%s) return %s)" v def body)));
             (1,
              (let* tag = oneofl [ "c"; "d"; "e"; "f"; "zz" ] in
               let* ax = oneofl [ "//"; "/a/"; "/a/b/" ] in
               return (Printf.sprintf "count(doc(\"t.xml\")%s%s)" ax tag)));
             (1,
              (let* tag = oneofl [ "c"; "*" ] in
               let* pred = expr (depth + 1) in_scope in
               return
                 (Printf.sprintf
                    "count(doc(\"t.xml\")//%s[boolean((%s, 0)[1] >= 1)])"
                    tag pred)));
             (1,
              (let* q = oneofl [ "some"; "every" ] in
               let* v = oneofl var_names in
               let* dom = expr (depth + 1) in_scope in
               let* body = expr (depth + 1) (v :: in_scope) in
               return
                 (Printf.sprintf
                    "(%s $%s in (%s) satisfies boolean(($%s, %s)[1] >= 1))"
                    q v dom v body))) ])
  in
  expr 0 []

let random_query_prop =
  QCheck2.Test.make ~count:300 ~name:"random queries: compiled = interpreted"
    gen_query
    (fun q ->
       let st = mk_store () in
       let reference =
         match Interp.Interpreter.run st q with
         | items -> Ok (ser st items)
         | exception Basis.Err.Dynamic_error m -> Error m
       in
       List.for_all
         (fun (oname, opts) ->
            let got =
              match Engine.run ~opts st q with
              | r -> Ok (ser st r.Engine.items)
              | exception Basis.Err.Dynamic_error m -> Error m
            in
            match (reference, got) with
            | Ok a, Ok b ->
              if a = b then true
              else
                QCheck2.Test.fail_reportf "[%s] %s:\n interp %s\n compiled %s"
                  oname q (String.concat "|" a) (String.concat "|" b)
            (* XQuery grants latitude over whether erroneous expressions
               whose value is not needed are evaluated (2.3.4): the eager
               interpreter and the demand-driven plan evaluator may
               legitimately disagree on *raising*, never on values *)
            | Error _, _ | _, Error _ -> true)
         [ ("full", Engine.default_opts); ("baseline", Engine.ordered_baseline) ]
       &&
       (* under ordering mode unordered the result must still be the same
          multiset of items *)
       (match
          ( reference,
            Engine.run
              ~opts:{ Engine.default_opts with Engine.mode = Some Xquery.Ast.Unordered }
              st q )
        with
        | Ok a, r ->
          let b = ser st r.Engine.items in
          if List.sort compare a = List.sort compare b then true
          else
            QCheck2.Test.fail_reportf
              "[unordered] %s is not a permutation:\n %s\n %s" q
              (String.concat "|" a) (String.concat "|" b)
        | Error _, _ -> true
        | exception Basis.Err.Dynamic_error _ -> true))

(* ----------------------------------------------------- prepared-plan cache *)

module PC = Engine.Plan_cache

let test_lru_eviction () =
  let c : int PC.t = PC.create ~capacity:2 in
  PC.add c "a" 1;
  PC.add c "b" 2;
  ignore (PC.find c "a");  (* touch a: b becomes the LRU entry *)
  PC.add c "c" 3;
  let s = PC.stats c in
  Alcotest.(check int) "one eviction" 1 s.PC.evictions;
  Alcotest.(check int) "size stays at capacity" 2 s.PC.size;
  Alcotest.(check (option int)) "a survived (recently used)" (Some 1)
    (PC.find c "a");
  Alcotest.(check (option int)) "b evicted (least recently used)" None
    (PC.find c "b");
  Alcotest.(check (option int)) "c present" (Some 3) (PC.find c "c")

let test_cache_capacity_zero () =
  let c : int PC.t = PC.create ~capacity:0 in
  PC.add c "a" 1;
  Alcotest.(check (option int)) "capacity 0 stores nothing" None (PC.find c "a");
  Alcotest.(check int) "no eviction churn" 0 (PC.stats c).PC.evictions

let test_normalize_query () =
  let n = PC.normalize_query in
  (* reformatted copies of one query share a key *)
  Alcotest.(check string) "whitespace runs collapse to one space"
    (n "for $x in (1, 2) return $x")
    (n "for   $x\n  in (1,\n     2)\nreturn\t$x");
  Alcotest.(check string) "comments stripped"
    (n "1 + 2")
    (n "1 (: nested (: comment :) here :) + 2");
  (* string literals are data: their spacing must survive *)
  Alcotest.(check bool) "literal whitespace significant" false
    (n "\"a  b\"" = n "\"a b\"");
  (* direct constructors: conservative trim-only fallback, so literal
     element content is never merged *)
  Alcotest.(check bool) "constructor text significant" false
    (n "<e>a  b</e>" = n "<e>a b</e>");
  (* a quote inside a comment opens no string literal, so it cannot hide
     the constructor behind it *)
  Alcotest.(check bool) "constructor after a quote in a comment" false
    (n "(: don't :) <a>x  y</a>" = n "(: don't :) <a>x y</a>")

(* The same pair through one shared cache: the second query must not be
   served the first one's plan. *)
let test_commented_constructor_cache () =
  let cache = Engine.create_cache ~capacity:8 () in
  let run q = (Engine.run ~cache (mk_store ()) q).Engine.serialized in
  let wide = "(: don't :) <a>x  y</a>" and narrow = "(: don't :) <a>x y</a>" in
  Alcotest.(check string) "first query" "<a>x  y</a>" (run wide);
  Alcotest.(check string) "second query, shared cache" "<a>x y</a>"
    (run narrow)

let test_run_cache_identity () =
  (* a warm cache hit returns byte-identical answers, and the counters
     show the hit; a different option fingerprint misses *)
  let cache = Engine.create_cache ~capacity:8 () in
  let q = "for   $v in (1 to 5) (: c :) return $v * $v" in
  let cold = Engine.run ~cache (mk_store ()) q in
  let warm = Engine.run ~cache (mk_store ()) "for $v in (1 to 5) return $v * $v" in
  Alcotest.(check string) "identical answers" cold.Engine.serialized
    warm.Engine.serialized;
  let s = Engine.cache_stats cache in
  Alcotest.(check int) "one miss (the cold run)" 1 s.PC.misses;
  Alcotest.(check int) "one hit (reformatted warm run)" 1 s.PC.hits;
  (* parallelism and compressed execution shape the run, not the
     prepared plan: both hit the default run's entry *)
  List.iteri
    (fun i (what, opts) ->
       let r = Engine.run ~cache ~opts (mk_store ()) q in
       Alcotest.(check string) (what ^ ": identical answers")
         cold.Engine.serialized r.Engine.serialized;
       let s = Engine.cache_stats cache in
       Alcotest.(check (pair int int)) (what ^ ": a hit, no new miss")
         (2 + i, 1) (s.PC.hits, s.PC.misses))
    [ ("jobs = 4", { Engine.default_opts with Engine.jobs = 4 });
      ("code_eval = false",
       { Engine.default_opts with Engine.code_eval = false }) ];
  let baseline = { Engine.ordered_baseline with Engine.budget = None } in
  ignore (Engine.run ~cache ~opts:baseline (mk_store ()) q);
  Alcotest.(check int) "other options fingerprint misses" 2
    (Engine.cache_stats cache).PC.misses

let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

(* A prepared plan is a function of the query and the options alone: one
   cache serving stores of two sizes hands the second store exactly the
   plan a fresh compile against it builds, and the same answer. *)
let test_cache_across_stores () =
  let xmark scale =
    let st = Xmldb.Doc_store.create () in
    ignore (Xmark.Xmark_gen.load ~scale st);
    st
  in
  let small = xmark 0.001 and large = xmark 0.01 in
  let cache = Engine.create_cache ~capacity:8 () in
  let tree (r : Engine.result) =
    Algebra.Plan_pp.to_tree (Option.get r.Engine.plan)
  in
  let existential_join =
    In_channel.with_open_bin
      (Filename.concat queries_dir "existential_join.xq")
      In_channel.input_all
  in
  List.iter
    (fun (name, q) ->
       ignore (Engine.run ~cache small q);
       let hits = (Engine.cache_stats cache).PC.hits in
       let cached = Engine.run ~cache large q in
       Alcotest.(check int) (name ^ ": the second store hits the cache")
         (hits + 1) (Engine.cache_stats cache).PC.hits;
       let fresh = Engine.run large q in
       Alcotest.(check string) (name ^ ": the plan a fresh compile builds")
         (tree fresh) (tree cached);
       Alcotest.(check string) (name ^ ": the same answer")
         fresh.Engine.serialized cached.Engine.serialized)
    [ ("Q5", Xmark.Xmark_queries.get "Q5");
      ("existential_join.xq", existential_join) ]

let () =
  Alcotest.run "engine"
    [ ( "differential",
        [ t "literals+sequences" literals_and_sequences;
          t "arithmetic" arithmetic;
          t "comparisons" comparisons;
          t "logic" logic;
          t "flwors" flwors;
          t "quantifiers" quantifiers;
          t "paths" paths;
          t "functions" functions ~multiset:true;
          t "string functions" string_functions;
          t "sequence functions" sequence_functions;
          t "type operators" type_operators;
          t "misc features" misc_features;
          t "constructors" constructors;
          t "node semantics" node_semantics;
          t "unordered scopes" unordered_queries ~multiset:true;
          t "paper examples (section 2)" paper_examples ] );
      ( "semantics",
        [ Alcotest.test_case "dynamic errors" `Quick test_errors;
          Alcotest.test_case "dynamic predicates" `Quick test_dynamic_predicates;
          Alcotest.test_case "unary plus" `Quick test_unary_plus;
          Alcotest.test_case "one message per error" `Quick test_error_messages;
          Alcotest.test_case "backend parity: overflow, node sets, names, doc"
            `Quick test_backend_parity;
          Alcotest.test_case "backend parity: position arguments" `Quick
            test_position_arguments;
          Alcotest.test_case "backend parity: inequality joins on integers"
            `Quick test_inequality_join_integers;
          Alcotest.test_case "backend parity: range operands" `Quick
            test_range_operands;
          Alcotest.test_case "backend parity: numeric conversions" `Quick
            test_numeric_conversions;
          Alcotest.test_case "unordered permutations" `Quick test_unordered_permutation;
          Alcotest.test_case "processing-instruction(target) steps" `Quick
            test_pi_target_steps ] );
      ( "xmark",
        [ Alcotest.test_case "Q1-Q20 differential x opts" `Slow test_xmark_differential;
          Alcotest.test_case "join recognition equivalence" `Slow test_xmark_join_recognition;
          Alcotest.test_case "Q1-Q20 unordered multiset" `Slow test_xmark_unordered_multiset ] );
      ( "plan cache",
        [ Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "capacity zero" `Quick test_cache_capacity_zero;
          Alcotest.test_case "query normalization" `Quick test_normalize_query;
          Alcotest.test_case "commented constructor keys" `Quick
            test_commented_constructor_cache;
          Alcotest.test_case "run identity + counters" `Quick
            test_run_cache_identity;
          Alcotest.test_case "one cache, two stores" `Quick
            test_cache_across_stores ] );
      ( "random", [ QCheck_alcotest.to_alcotest random_query_prop ] );
    ]

(* Tests for the XML substrate: parser, store encoding invariants,
   builder/copy semantics, serializer round-trips, and — the core — a
   differential test of the staircase axis evaluator against a naive
   oracle derived solely from the parent column, over random trees. *)

open Xmldb

let store () = Doc_store.create ()

let parse ?strip_ws st src = Xml_parser.parse_document ?strip_ws st src

let ser st n = Serialize.node_to_string st n

(* ---------------------------------------------------------------- parser *)

let test_parse_simple () =
  let st = store () in
  let doc = parse st "<a><b><c/><d/></b><c/></a>" in
  Alcotest.(check string) "round trip" "<a><b><c/><d/></b><c/></a>" (ser st doc)

let test_parse_attributes () =
  let st = store () in
  let doc = parse st {|<e pos="1" name='x &amp; y'>t</e>|} in
  Alcotest.(check string) "attrs" {|<e pos="1" name="x &amp; y">t</e>|} (ser st doc)

let test_parse_entities () =
  let st = store () in
  let doc = parse st "<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>" in
  Alcotest.(check string) "entities" "<a>&lt;&gt;&amp;\"'AB</a>" (ser st doc)

let test_parse_cdata () =
  let st = store () in
  let doc = parse st "<a><![CDATA[x < y & z]]></a>" in
  Alcotest.(check string) "cdata" "<a>x &lt; y &amp; z</a>" (ser st doc)

let test_parse_comment_pi () =
  let st = store () in
  let doc = parse st "<a><!--note--><?target data?></a>" in
  Alcotest.(check string) "comment+pi" "<a><!--note--><?target data?></a>" (ser st doc)

let test_parse_prolog () =
  let st = store () in
  let doc =
    parse st
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><!--pre--><a/>"
  in
  (* the prolog comment becomes a child of the document node, per XDM *)
  Alcotest.(check string) "prolog" "<!--pre--><a/>" (ser st doc)

let test_parse_nested_deep () =
  let depth = 2000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do Buffer.add_string buf "<n>" done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do Buffer.add_string buf "</n>" done;
  let st = store () in
  let doc = parse st (Buffer.contents buf) in
  Alcotest.(check string) "string value at depth" "x" (Doc_store.string_value st doc)

let test_parse_errors () =
  let st = store () in
  let fails src =
    match parse st src with
    | exception Xml_parser.Parse_error (_, pos) ->
      (* the reported offset must point into (or just past) the source *)
      if pos < 0 || pos > String.length src then
        Alcotest.failf "offset %d out of range for %S" pos src
    | _ -> Alcotest.failf "expected parse error for %s" src
  in
  fails "<a>";
  fails "<a></b>";
  fails "<a attr></a>";
  fails "<a>&unknown;</a>";
  fails "<a/><b/>";
  fails "";
  (* a late error is reported late, not at offset 0 *)
  (match parse st "<root><x></y></root>" with
   | exception Xml_parser.Parse_error (_, pos) ->
     if pos < 6 then Alcotest.failf "mismatched close tag reported at %d" pos
   | _ -> Alcotest.fail "expected parse error for mismatched close tag")

let test_strip_ws () =
  let st = store () in
  let doc = parse ~strip_ws:true st "<a>\n  <b> x </b>\n</a>" in
  Alcotest.(check string) "ws stripped" "<a><b> x </b></a>" (ser st doc)

let test_text_merging () =
  let st = store () in
  let b = Doc_store.Builder.create st in
  Doc_store.Builder.start_element b (Qname.make "a");
  Doc_store.Builder.text b "x";
  Doc_store.Builder.text b "y";
  Doc_store.Builder.text b "";
  Doc_store.Builder.text b "z";
  Doc_store.Builder.end_element b;
  let _, roots = Doc_store.Builder.finish b in
  Alcotest.(check int) "merged into one text node" 1 (Doc_store.size st roots.(0));
  Alcotest.(check string) "value" "xyz" (Doc_store.string_value st roots.(0))

(* ------------------------------------------------------------- encoding *)

(* Figure 5 of the paper: <a><b><c/><d/></b><c/></a>, preorder ranks 0..4. *)
let fig1 st =
  parse st "<a><b><c/><d/></b><c/></a>"

let node _st doc pre = Node_id.make ~frag:(Node_id.frag doc) ~pre

let test_preorder_ranks () =
  let st = store () in
  let doc = fig1 st in
  (* pre 0 is the document node, the element a is pre 1, etc. *)
  let names =
    List.map
      (fun pre ->
         match Doc_store.name st (node st doc pre) with
         | Some q -> Qname.local q
         | None -> "-")
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list string)) "preorder" [ "a"; "b"; "c"; "d"; "c" ] names;
  (* b (pre 2) precedes d (pre 4) in document order *)
  Alcotest.(check bool) "doc order via ranks" true
    (Node_id.compare (node st doc 2) (node st doc 4) < 0)

let test_sizes_levels () =
  let st = store () in
  let doc = fig1 st in
  let sizes = List.map (fun p -> Doc_store.size st (node st doc p)) [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "sizes" [ 5; 4; 2; 0; 0; 0 ] sizes;
  let levels = List.map (fun p -> Doc_store.level st (node st doc p)) [ 0; 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "levels" [ 0; 1; 2; 3; 3; 2 ] levels

let test_parents () =
  let st = store () in
  let doc = fig1 st in
  let parent p =
    match Doc_store.parent st (node st doc p) with
    | Some n -> Node_id.pre n
    | None -> -1
  in
  Alcotest.(check (list int)) "parents" [ -1; 0; 1; 2; 2; 1 ]
    (List.map parent [ 0; 1; 2; 3; 4; 5 ])

let test_string_value () =
  let st = store () in
  let doc = parse st "<a>x<b>y<c>z</c></b>w</a>" in
  Alcotest.(check string) "element string value" "xyzw" (Doc_store.string_value st doc);
  let st2 = store () in
  let doc2 = parse st2 {|<a id="i7">t</a>|} in
  (* attribute row sits at pre 2 (document 0, element 1) *)
  Alcotest.(check string) "attribute value" "i7"
    (Doc_store.string_value st2 (node st2 doc2 2))

let test_document_registry () =
  let st = store () in
  let root = Xml_parser.load_document st ~uri:"d.xml" "<r/>" in
  (match Doc_store.find_document st "d.xml" with
   | Some n -> Alcotest.(check bool) "found" true (Node_id.equal n root)
   | None -> Alcotest.fail "document not registered");
  Alcotest.(check (option reject)) "missing uri" None
    (Doc_store.find_document st "other.xml")

(* --------------------------------------------------------------- builder *)

let test_builder_copy () =
  let st = store () in
  let doc = parse st "<a><b><c/><d/></b><c/></a>" in
  (* copy element b (pre 2) into a fresh element e, twice *)
  let b = Doc_store.Builder.create st in
  Doc_store.Builder.start_element b (Qname.make "e");
  Doc_store.Builder.copy b (node st doc 2);
  Doc_store.Builder.copy b (node st doc 2);
  Doc_store.Builder.end_element b;
  let _, roots = Doc_store.Builder.finish b in
  Alcotest.(check string) "copied twice"
    "<e><b><c/><d/></b><b><c/><d/></b></e>" (ser st roots.(0));
  (* originals untouched *)
  Alcotest.(check string) "source intact"
    "<a><b><c/><d/></b><c/></a>" (ser st doc)

let test_builder_copy_document () =
  let st = store () in
  let doc = parse st "<a>x<b/></a>" in
  let b = Doc_store.Builder.create st in
  Doc_store.Builder.start_element b (Qname.make "e");
  Doc_store.Builder.copy b doc;           (* document node: copies children *)
  Doc_store.Builder.end_element b;
  let _, roots = Doc_store.Builder.finish b in
  Alcotest.(check string) "doc copy" "<e><a>x<b/></a></e>" (ser st roots.(0))

let test_builder_attr_after_content () =
  let st = store () in
  let b = Doc_store.Builder.create st in
  Doc_store.Builder.start_element b (Qname.make "e");
  Doc_store.Builder.text b "t";
  (match Doc_store.Builder.attribute b (Qname.make "x") "1" with
   | exception Basis.Err.Dynamic_error _ -> ()
   | () -> Alcotest.fail "expected dynamic error")

let test_builder_multi_root () =
  let st = store () in
  let b = Doc_store.Builder.create st in
  Doc_store.Builder.start_element b (Qname.make "x");
  Doc_store.Builder.end_element b;
  Doc_store.Builder.start_element b (Qname.make "y");
  Doc_store.Builder.end_element b;
  let _, roots = Doc_store.Builder.finish b in
  Alcotest.(check int) "two roots" 2 (Array.length roots);
  Alcotest.(check string) "root 2" "<y/>" (ser st roots.(1))

(* ------------------------------------------------------------------ axes *)

let name_test st local = Node_test.Name (Doc_store.name_test_id st (Qname.make local))

let pres ns = Array.to_list (Array.map Node_id.pre ns)

let test_axis_child () =
  let st = store () in
  let doc = fig1 st in
  let r = Staircase.step st Axis.Child (name_test st "c") [| node st doc 1 |] in
  Alcotest.(check (list int)) "child::c of a" [ 5 ] (pres r);
  let r = Staircase.step st Axis.Child Node_test.Any_node [| node st doc 1 |] in
  Alcotest.(check (list int)) "child::node() of a" [ 2; 5 ] (pres r)

let test_axis_descendant () =
  let st = store () in
  let doc = fig1 st in
  let r = Staircase.step st Axis.Descendant (name_test st "c") [| doc |] in
  Alcotest.(check (list int)) "descendant c in doc order" [ 3; 5 ] (pres r);
  (* overlapping contexts: a and b — staircase pruning must not duplicate *)
  let r =
    Staircase.step st Axis.Descendant Node_test.Any_node
      [| node st doc 1; node st doc 2; node st doc 1 |]
  in
  Alcotest.(check (list int)) "pruned overlap" [ 2; 3; 4; 5 ] (pres r)

let test_axis_union_order () =
  (* the paper's Section 1 example: //(c|d) must yield (c1, d, c2) *)
  let st = store () in
  let doc = fig1 st in
  let c = Staircase.step st Axis.Descendant (name_test st "c") [| doc |] in
  let d = Staircase.step st Axis.Descendant (name_test st "d") [| doc |] in
  Alcotest.(check (list int)) "c nodes" [ 3; 5 ] (pres c);
  Alcotest.(check (list int)) "d nodes" [ 4 ] (pres d)

let test_axis_attribute () =
  let st = store () in
  let doc = parse st {|<a id="1" class="x"><b ref="2"/></a>|} in
  let r = Staircase.step st Axis.Attribute Node_test.Any_node [| node st doc 1 |] in
  Alcotest.(check int) "two attrs" 2 (Array.length r);
  let r = Staircase.step st Axis.Attribute (name_test st "ref") [| node st doc 1 |] in
  Alcotest.(check (list int)) "no ref on a" [] (pres r);
  (* name test on attribute axis matches attribute nodes (principal kind) *)
  let b_elem = Staircase.step st Axis.Child (name_test st "b") [| node st doc 1 |] in
  let r = Staircase.step st Axis.Attribute (name_test st "ref") b_elem in
  Alcotest.(check int) "ref attr of b" 1 (Array.length r)

let test_axis_child_skips_attributes () =
  let st = store () in
  let doc = parse st {|<a id="1"><b/>t</a>|} in
  let r = Staircase.step st Axis.Child Node_test.Any_node [| node st doc 1 |] in
  (* children are <b/> and the text node; the attribute row is skipped *)
  Alcotest.(check int) "two children" 2 (Array.length r);
  let kinds = Array.to_list (Array.map (Doc_store.kind st) r) in
  Alcotest.(check bool) "kinds" true
    (kinds = [ Node_kind.Element; Node_kind.Text ])

let test_axis_self_parent () =
  let st = store () in
  let doc = fig1 st in
  let r = Staircase.step st Axis.Self (name_test st "b") [| node st doc 2 |] in
  Alcotest.(check (list int)) "self::b" [ 2 ] (pres r);
  let r = Staircase.step st Axis.Self (name_test st "z") [| node st doc 2 |] in
  Alcotest.(check (list int)) "self::z empty" [] (pres r);
  (* parent of both c1 and d is b: deduplicated *)
  let r =
    Staircase.step st Axis.Parent Node_test.Any_node
      [| node st doc 3; node st doc 4 |]
  in
  Alcotest.(check (list int)) "dedup parent" [ 2 ] (pres r)

let test_axis_siblings () =
  let st = store () in
  let doc = parse st "<r><a/><b/><c/><d/></r>" in
  let b = node st doc 3 in
  let r = Staircase.step st Axis.Following_sibling Node_test.Any_node [| b |] in
  Alcotest.(check (list int)) "following-sibling of b" [ 4; 5 ] (pres r);
  let r = Staircase.step st Axis.Preceding_sibling Node_test.Any_node [| b |] in
  Alcotest.(check (list int)) "preceding-sibling of b" [ 2 ] (pres r)

let test_axis_following_preceding () =
  let st = store () in
  let doc = fig1 st in
  let b = node st doc 2 in
  let r = Staircase.step st Axis.Following Node_test.Any_node [| b |] in
  Alcotest.(check (list int)) "following of b" [ 5 ] (pres r);
  let c2 = node st doc 5 in
  let r = Staircase.step st Axis.Preceding Node_test.Any_node [| c2 |] in
  (* preceding of c2 excludes ancestors a and the document node *)
  Alcotest.(check (list int)) "preceding of c2" [ 2; 3; 4 ] (pres r)

let test_axis_ancestor () =
  let st = store () in
  let doc = fig1 st in
  let d = node st doc 4 in
  let r = Staircase.step st Axis.Ancestor Node_test.Any_node [| d |] in
  Alcotest.(check (list int)) "ancestors of d" [ 0; 1; 2 ] (pres r);
  let r = Staircase.step st Axis.Ancestor_or_self (name_test st "d") [| d |] in
  Alcotest.(check (list int)) "a-o-s name test" [ 4 ] (pres r)

let test_axis_cross_fragment_order () =
  let st = store () in
  let d1 = parse st "<a><x/></a>" in
  let d2 = parse st "<b><x/></b>" in
  let r = Staircase.step st Axis.Descendant (name_test st "x") [| d2; d1 |] in
  (* results must come back in global document order: frag of d1 first *)
  Alcotest.(check (list int)) "frags ascending"
    [ Node_id.frag d1; Node_id.frag d2 ]
    (Array.to_list (Array.map Node_id.frag r))

let test_axis_unknown_name () =
  let st = store () in
  let doc = fig1 st in
  let r = Staircase.step st Axis.Descendant (name_test st "nosuchtag") [| doc |] in
  Alcotest.(check (list int)) "unknown tag matches nothing" [] (pres r)

(* ------------------------------------------- qcheck: random-tree oracle *)

(* Generate a random XML document string with elements from a small tag
   alphabet, attributes, text, comments, and processing instructions whose
   targets come from the same alphabet. *)
let gen_doc : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let rec elem depth =
    let* t = tag in
    let* n_attr = int_bound 2 in
    let* attrs =
      list_repeat n_attr
        (let* an = oneofl [ "id"; "k" ] in
         let* av = int_bound 9 in
         return (Printf.sprintf "%s%d=\"%d\"" an (Random.int 1000000) av))
    in
    let* n_children = if depth >= 4 then return 0 else int_bound 3 in
    let* children =
      list_repeat n_children
        (frequency
           [ (4, elem (depth + 1));
             (2, map (Printf.sprintf "t%d") (int_bound 9));
             (1, return "<!--c-->");
             (1, map (Printf.sprintf "<?%s d?>") tag) ])
    in
    return
      (Printf.sprintf "<%s %s>%s</%s>" t (String.concat " " attrs)
         (String.concat "" children) t)
  in
  elem 0

(* Naive axis oracle computed only from the parent column. *)
module Oracle = struct
  let all_nodes st frag_id =
    let f = Doc_store.frag st frag_id in
    List.init (Doc_store.frag_length f) (fun pre -> Node_id.make ~frag:frag_id ~pre)

  let parent st n = Doc_store.parent st n

  let rec ancestors st n =
    match parent st n with None -> [] | Some p -> p :: ancestors st p

  let is_attr st n = Doc_store.kind st n = Node_kind.Attribute

  let children st frag_id x =
    List.filter
      (fun n -> parent st n = Some x && not (is_attr st n))
      (all_nodes st frag_id)

  let attrs st frag_id x =
    List.filter
      (fun n -> parent st n = Some x && is_attr st n)
      (all_nodes st frag_id)

  let rec descendants st frag_id x =
    List.concat_map
      (fun c -> c :: descendants st frag_id c)
      (children st frag_id x)

  let matches st principal (test : Node_test.t) n =
    match test with
    | Node_test.Any_node -> true
    | Node_test.Kind k -> Doc_store.kind st n = k
    | Node_test.Name_wild -> Doc_store.kind st n = principal
    | Node_test.Name id ->
      Doc_store.kind st n = principal && Doc_store.name_id st n = id
    | Node_test.Pi_target t ->
      Doc_store.kind st n = Node_kind.Processing_instruction
      && Doc_store.name st n = Some (Qname.make t)

  let axis st frag_id (ax : Axis.t) x =
    match ax with
    | Axis.Child -> children st frag_id x
    | Axis.Attribute ->
      if Doc_store.kind st x = Node_kind.Element then attrs st frag_id x else []
    | Axis.Descendant -> descendants st frag_id x
    | Axis.Descendant_or_self -> x :: descendants st frag_id x
    | Axis.Self -> [ x ]
    | Axis.Parent -> (match parent st x with None -> [] | Some p -> [ p ])
    | Axis.Ancestor -> ancestors st x
    | Axis.Ancestor_or_self -> x :: ancestors st x
    | Axis.Following_sibling ->
      if is_attr st x then []
      else
        (match parent st x with
         | None -> []
         | Some p ->
           List.filter (fun s -> Node_id.compare s x > 0) (children st frag_id p))
    | Axis.Preceding_sibling ->
      if is_attr st x then []
      else
        (match parent st x with
         | None -> []
         | Some p ->
           List.filter (fun s -> Node_id.compare s x < 0) (children st frag_id p))
    | Axis.Following ->
      let anc = x :: ancestors st x in
      let sub = descendants st frag_id x in
      List.filter
        (fun n ->
           Node_id.compare n x > 0
           && (not (List.mem n anc)) && (not (List.mem n sub))
           && not (is_attr st n))
        (all_nodes st frag_id)
    | Axis.Preceding ->
      let anc = ancestors st x in
      List.filter
        (fun n ->
           Node_id.compare n x < 0
           && (not (List.mem n anc))
           && not (is_attr st n))
        (all_nodes st frag_id)

  let step st frag_id ax test ctxs =
    let principal = Staircase.principal_kind ax in
    let results =
      List.concat_map (fun x -> axis st frag_id ax x) (Array.to_list ctxs)
    in
    let results = List.filter (matches st principal test) results in
    List.sort_uniq Node_id.compare results
end

let all_axes =
  [ Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Self;
    Axis.Attribute; Axis.Parent; Axis.Ancestor; Axis.Ancestor_or_self;
    Axis.Following; Axis.Following_sibling; Axis.Preceding;
    Axis.Preceding_sibling ]

let axis_oracle_prop =
  QCheck2.Test.make ~count:120
    ~name:"staircase step equals naive oracle on random trees"
    QCheck2.Gen.(tup2 gen_doc (int_bound 10000))
    (fun (src, seed) ->
       let st = store () in
       let doc = parse st src in
       let frag_id = Node_id.frag doc in
       let f = Doc_store.frag st frag_id in
       let n = Doc_store.frag_length f in
       (* pseudorandom context subset *)
       let rng = Basis.Prng.create seed in
       let ctxs =
         Array.of_list
           (List.filter_map
              (fun pre ->
                 if Basis.Prng.int rng 3 = 0 then
                   Some (Node_id.make ~frag:frag_id ~pre)
                 else None)
              (List.init n (fun i -> i)))
       in
       let tests =
         [ Node_test.Any_node;
           Node_test.Name_wild;
           Node_test.Kind Node_kind.Text;
           Node_test.Name (Doc_store.name_test_id st (Qname.make "b"));
           Node_test.Pi_target "b" ]
       in
       List.for_all
         (fun ax ->
            List.for_all
              (fun test ->
                 let got =
                   Array.to_list (Staircase.step st ax test ctxs)
                 in
                 let want = Oracle.step st frag_id ax test ctxs in
                 if got <> want then
                   QCheck2.Test.fail_reportf
                     "axis %s differs: got [%s] want [%s] on %s"
                     (Axis.to_string ax)
                     (String.concat ";" (List.map Node_id.to_string got))
                     (String.concat ";" (List.map Node_id.to_string want))
                     src
                 else true)
              tests)
         all_axes)

(* The TwigStack-style tag-index step must agree with the staircase scan
   on its whole applicability profile, over random trees and context
   sets. *)
let tag_index_prop =
  QCheck2.Test.make ~count:150
    ~name:"tag-index step equals staircase scan"
    QCheck2.Gen.(tup2 gen_doc (int_bound 10000))
    (fun (src, seed) ->
       let st = store () in
       let doc = parse st src in
       let frag_id = Node_id.frag doc in
       let f = Doc_store.frag st frag_id in
       let n = Doc_store.frag_length f in
       let ti = Tag_index.create st in
       let rng = Basis.Prng.create seed in
       let ctxs =
         Array.of_list
           (List.filter_map
              (fun pre ->
                 if Basis.Prng.int rng 3 = 0 then
                   Some (Node_id.make ~frag:frag_id ~pre)
                 else None)
              (List.init n (fun i -> i)))
       in
       let axes =
         [ Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Attribute ]
       in
       let tests =
         List.map
           (fun t' -> Node_test.Name (Doc_store.name_test_id st (Qname.make t')))
           [ "a"; "b"; "id"; "nosuch" ]
       in
       List.for_all
         (fun ax ->
            List.for_all
              (fun test ->
                 if not (Tag_index.applicable ax test) then true
                 else begin
                   let got = Array.to_list (Tag_index.step ti ax test ctxs) in
                   let want = Array.to_list (Staircase.step st ax test ctxs) in
                   if got <> want then
                     QCheck2.Test.fail_reportf
                       "axis %s differs: got [%s] want [%s] on %s"
                       (Axis.to_string ax)
                       (String.concat ";" (List.map Node_id.to_string got))
                       (String.concat ";" (List.map Node_id.to_string want))
                       src
                   else true
                 end)
              tests)
         axes)

(* The loop-lifted step against the one-iteration step it generalizes:
   two documents in one store, non-decreasing iters (with gaps), and per
   iteration a random bag of contexts from both fragments — duplicates,
   attribute rows, ascending or arbitrary order — or every node of both,
   so that contexts nest. One input in four is instead a series of
   one-row runs drawn in random order from a small pool over both
   documents, so that contexts repeat across runs. Its rows must be
   exactly the per-iteration results tagged with their iter, and a
   batched run must decode exactly as many column rows as the
   per-iteration steps of every run. *)
let two_doc_nodes (src1, src2) =
  let st = store () in
  let nodes =
    Array.concat
      (List.map
         (fun src ->
            let frag_id = Node_id.frag (parse st src) in
            Array.init
              (Doc_store.frag_length (Doc_store.frag st frag_id))
              (fun pre -> Node_id.make ~frag:frag_id ~pre))
         [ src1; src2 ])
  in
  (st, nodes)

let rows_of_runs runs =
  { Staircase.iter =
      Array.concat
        (List.map (fun (it, c) -> Array.make (Array.length c) it) runs);
    frag =
      Array.concat (List.map (fun (_, c) -> Array.map Node_id.frag c) runs);
    pre =
      Array.concat (List.map (fun (_, c) -> Array.map Node_id.pre c) runs) }

let lifted_input (src1, src2, seed) =
  let st, nodes = two_doc_nodes (src1, src2) in
  let rng = Basis.Prng.create seed in
  let iter = ref (Basis.Prng.int rng 3) in
  let run ctxs =
    let run = (!iter, ctxs) in
    iter := !iter + 1 + Basis.Prng.int rng 2;
    run
  in
  let runs =
    if Basis.Prng.int rng 4 = 0 then begin
      let pool =
        Array.init (1 + Basis.Prng.int rng 4) (fun _ ->
            Basis.Prng.pick rng nodes)
      in
      List.init (1 + Basis.Prng.int rng 30) (fun _ ->
          run [| Basis.Prng.pick rng pool |])
    end
    else
      List.init (1 + Basis.Prng.int rng 6) (fun _ ->
          let ctxs =
            if Basis.Prng.int rng 4 = 0 then Array.copy nodes (* all nested *)
            else
              Array.init (Basis.Prng.int rng 6) (fun _ ->
                  Basis.Prng.pick rng nodes)
          in
          if Basis.Prng.bool rng then
            Array.sort Node_id.compare ctxs;
          run ctxs)
  in
  (st, runs, rows_of_runs runs)

let lifted_rows (r : Staircase.rows) =
  List.init (Array.length r.pre) (fun k ->
      Printf.sprintf "%d:%d.%d" r.iter.(k) r.frag.(k) r.pre.(k))

let per_run_rows step runs =
  List.concat_map
    (fun (it, ctxs) ->
       List.map
         (fun n -> Printf.sprintf "%d:%s" it (Node_id.to_string n))
         (Array.to_list (step ctxs)))
    runs

(* The column rows the per-iteration steps decode, summed over every
   run. *)
let per_run_decodes step runs =
  let decoded = Atomic.make 0 in
  List.iter (fun (_, ctxs) -> ignore (step decoded ctxs)) runs;
  Atomic.get decoded

let gen_lifted =
  QCheck2.Gen.(tup3 gen_doc gen_doc (int_bound 10000))

let lifted_prop =
  QCheck2.Test.make ~count:100
    ~name:"loop-lifted step equals per-iteration steps"
    gen_lifted
    (fun input ->
       let st, runs, rows = lifted_input input in
       let tests =
         [ Node_test.Any_node;
           Node_test.Name_wild;
           Node_test.Kind Node_kind.Text;
           Node_test.Kind Node_kind.Attribute;
           Node_test.Name (Doc_store.name_test_id st (Qname.make "b"));
           Node_test.Name (Doc_store.name_test_id st (Qname.make "id"));
           Node_test.Pi_target "c" ]
       in
       List.for_all
         (fun ax ->
            List.for_all
              (fun test ->
                 List.for_all
                   (fun batch ->
                      let d_lifted = Atomic.make 0 in
                      let want =
                        per_run_rows (Staircase.step ~batch st ax test) runs
                      in
                      let got =
                        lifted_rows
                          (Staircase.step_lifted ~batch ~decoded:d_lifted st ax
                             test rows)
                      in
                      let d_runs =
                        per_run_decodes
                          (fun decoded ->
                             Staircase.step ~batch ~decoded st ax test)
                          runs
                      in
                      if got <> want then
                        QCheck2.Test.fail_reportf
                          "axis %s, batch %b: got [%s] want [%s]"
                          (Axis.to_string ax) batch
                          (String.concat ";" got) (String.concat ";" want)
                      else if d_runs <> Atomic.get d_lifted then
                        QCheck2.Test.fail_reportf
                          "axis %s, batch %b: decoded %d rows, per-run %d"
                          (Axis.to_string ax) batch (Atomic.get d_lifted)
                          d_runs
                      else true)
                   [ true; false ])
              tests)
         all_axes)

(* The tag index runs through the same loop-lifted walk: over its
   applicable profile it must give the per-iteration staircase
   results. *)
let lifted_tag_index_prop =
  QCheck2.Test.make ~count:100
    ~name:"loop-lifted tag-index step equals per-iteration steps"
    gen_lifted
    (fun input ->
       let st, runs, rows = lifted_input input in
       let ti = Tag_index.create st in
       let tests =
         List.map
           (fun t' -> Node_test.Name (Doc_store.name_test_id st (Qname.make t')))
           [ "a"; "b"; "id"; "nosuch" ]
       in
       List.for_all
         (fun ax ->
            List.for_all
              (fun test ->
                 if not (Tag_index.applicable ax test) then true
                 else begin
                   let want = per_run_rows (Staircase.step st ax test) runs in
                   let got =
                     lifted_rows (Tag_index.step_lifted ti ax test rows)
                   in
                   if got <> want then
                     QCheck2.Test.fail_reportf "axis %s: got [%s] want [%s]"
                       (Axis.to_string ax)
                       (String.concat ";" got) (String.concat ";" want)
                   else true
                 end)
              tests)
         [ Axis.Child; Axis.Descendant; Axis.Descendant_or_self;
           Axis.Attribute ])

let roundtrip_prop =
  QCheck2.Test.make ~count:200 ~name:"parse-serialize-parse is stable"
    gen_doc
    (fun src ->
       let st = store () in
       let doc = parse st src in
       let s1 = ser st doc in
       let st2 = store () in
       let doc2 = parse st2 s1 in
       let s2 = ser st2 doc2 in
       String.equal s1 s2)

let encoding_invariants_prop =
  QCheck2.Test.make ~count:200 ~name:"pre/size/level/parent invariants"
    gen_doc
    (fun src ->
       let st = store () in
       let doc = parse st src in
       let f = Doc_store.frag st (Node_id.frag doc) in
       let n = Doc_store.frag_length f in
       let ok = ref true in
       for p = 0 to n - 1 do
         (* subtree fits inside parent's subtree *)
         let pa = Doc_store.parent_at f p in
         if pa >= 0 then begin
           if not (pa < p && p + Doc_store.size_at f p <= pa + Doc_store.size_at f pa)
           then ok := false;
           if Doc_store.level_at f p <> Doc_store.level_at f pa + 1 then ok := false
         end else if Doc_store.level_at f p <> 0 then ok := false
       done;
       !ok)

(* ---------------------------------------------------------- ingest guard *)

(* Budgeted ingest (the server's remote LOAD path): a guard tripping
   mid-parse must abort with Resource_error and leave the store exactly
   as it was — fragments only publish at Builder.finish, so an abandoned
   parse is invisible — and the store must stay fully usable after. *)

module Budget = Basis.Budget

let big_xml =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<root>";
  for i = 1 to 200 do
    Buffer.add_string b (Printf.sprintf "<item n=\"%d\">x</item>" i)
  done;
  Buffer.add_string b "</root>";
  Buffer.contents b

let check_unpublished st ~frags_before ~docs_before =
  Alcotest.(check int) "no fragment published" frags_before
    (Doc_store.n_frags st);
  Alcotest.(check int) "no document registered" docs_before
    (List.length (Doc_store.documents st));
  (* the store survives: a subsequent unguarded load works *)
  let _ = Xml_parser.load_document st ~uri:"after.xml" "<ok/>" in
  Alcotest.(check bool) "store usable after the trip" true
    (Doc_store.find_document st "after.xml" <> None)

let test_ingest_op_budget_trip () =
  let st = store () in
  let _ = Xml_parser.load_document st ~uri:"pre.xml" "<pre/>" in
  let frags_before = Doc_store.n_frags st in
  let docs_before = List.length (Doc_store.documents st) in
  let guard = Budget.start (Budget.limits ~max_ops:10 ()) in
  (match Xml_parser.load_document ~guard st ~uri:"big.xml" big_xml with
   | exception Basis.Err.Resource_error _ -> ()
   | _ -> Alcotest.fail "op budget did not trip mid-parse");
  Alcotest.(check bool) "the guard did count element work" true
    (Budget.ops guard >= 10);
  check_unpublished st ~frags_before ~docs_before

let test_ingest_deadline_trip () =
  let st = store () in
  let guard = Budget.start (Budget.limits ~timeout_s:0.0 ()) in
  (match Xml_parser.load_document ~guard st ~uri:"big.xml" big_xml with
   | exception Basis.Err.Resource_error _ -> ()
   | _ -> Alcotest.fail "expired deadline did not trip");
  check_unpublished st ~frags_before:0 ~docs_before:0

let test_ingest_cancellation () =
  let st = store () in
  let c = Budget.cancel_switch () in
  let guard = Budget.start (Budget.limits ~cancel:c ()) in
  Budget.cancel c;
  (match Xml_parser.load_document ~guard st ~uri:"big.xml" big_xml with
   | exception Basis.Err.Resource_error _ -> ()
   | _ -> Alcotest.fail "cancelled guard did not trip");
  check_unpublished st ~frags_before:0 ~docs_before:0

let test_ingest_generous_guard_is_invisible () =
  let st = store () in
  let guard = Budget.start (Budget.limits ~max_ops:1_000_000 ()) in
  let guarded = Xml_parser.load_document ~guard st ~uri:"g.xml" big_xml in
  let st' = store () in
  let plain = Xml_parser.load_document st' ~uri:"g.xml" big_xml in
  Alcotest.(check string) "guarded parse = unguarded parse"
    (ser st' plain) (ser st guarded)

(* ------------------------------------------------------------------ main *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "xmldb"
    [ ( "parser",
        [ Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comment+pi" `Quick test_parse_comment_pi;
          Alcotest.test_case "prolog" `Quick test_parse_prolog;
          Alcotest.test_case "deep nesting" `Quick test_parse_nested_deep;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "strip ws" `Quick test_strip_ws ] );
      ( "encoding",
        [ Alcotest.test_case "preorder ranks (fig 5)" `Quick test_preorder_ranks;
          Alcotest.test_case "sizes+levels" `Quick test_sizes_levels;
          Alcotest.test_case "parents" `Quick test_parents;
          Alcotest.test_case "string value" `Quick test_string_value;
          Alcotest.test_case "document registry" `Quick test_document_registry ] );
      ( "builder",
        [ Alcotest.test_case "text merging" `Quick test_text_merging;
          Alcotest.test_case "deep copy" `Quick test_builder_copy;
          Alcotest.test_case "copy document" `Quick test_builder_copy_document;
          Alcotest.test_case "attr after content" `Quick test_builder_attr_after_content;
          Alcotest.test_case "multi root fragment" `Quick test_builder_multi_root ] );
      ( "axes",
        [ Alcotest.test_case "child" `Quick test_axis_child;
          Alcotest.test_case "descendant" `Quick test_axis_descendant;
          Alcotest.test_case "union order (paper §1)" `Quick test_axis_union_order;
          Alcotest.test_case "attribute" `Quick test_axis_attribute;
          Alcotest.test_case "child skips attrs" `Quick test_axis_child_skips_attributes;
          Alcotest.test_case "self+parent" `Quick test_axis_self_parent;
          Alcotest.test_case "siblings" `Quick test_axis_siblings;
          Alcotest.test_case "following/preceding" `Quick test_axis_following_preceding;
          Alcotest.test_case "ancestor" `Quick test_axis_ancestor;
          Alcotest.test_case "cross fragment order" `Quick test_axis_cross_fragment_order;
          Alcotest.test_case "unknown name" `Quick test_axis_unknown_name ] );
      ( "ingest guard",
        [ Alcotest.test_case "op budget trips mid-parse" `Quick
            test_ingest_op_budget_trip;
          Alcotest.test_case "expired deadline trips" `Quick
            test_ingest_deadline_trip;
          Alcotest.test_case "cancellation trips" `Quick
            test_ingest_cancellation;
          Alcotest.test_case "generous guard is invisible" `Quick
            test_ingest_generous_guard_is_invisible ] );
      qsuite "properties"
        [ axis_oracle_prop; tag_index_prop; lifted_prop; lifted_tag_index_prop;
          roundtrip_prop; encoding_invariants_prop ];
    ]

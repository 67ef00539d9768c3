(* Order-indifference metamorphic tests over the paper-query corpus.

   The paper's central claim is that order indifference is a *semantic*
   property the compiler may exploit without changing answers. That
   yields two metamorphic relations every query under queries/ must
   satisfy, under every executor configuration:

     1. wrapping the query body in [unordered { ... }] (maximum
        latitude granted) may at most permute the result sequence —
        plain and wrapped runs agree as multisets;

     2. the configuration itself is invisible: serial and
        morsel-parallel execution at any width, with or without the
        order-property and join-isolation optimizations, all produce the
        *identical* sequence for the same query text — including under
        a forced [ordering mode ordered] prolog (the paper's baseline).

   Relation 2 is deliberately exact (not multiset): the engine promises
   serial/parallel bit-parity, and the ordered-mode baseline anchors the
   comparison the paper's Section 5 makes. *)

(* Read lazily by the engine at its first physical execution: force tiny
   morsels so these small corpora really split across tasks. *)
let () = Unix.putenv "XRQ_MORSEL" "4"

module Value = Algebra.Value

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"
let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let mk_store () =
  let st = Xmldb.Doc_store.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
      (Lazy.force auction_xml)
  in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

(* The executor configurations of relation 2: {serial, jobs=4} with
   ordering-property reasoning on, plus serial runs with it off and with
   join-graph isolation off. Keeping the no-order-props and
   no-join-isolation runs in the same exact-agreement matrix is the
   elision oracle: a sort wrongly proved away — or a scaffold wrongly
   collapsed to a semi/anti-join — would desynchronize them from the
   reference. *)
let configs =
  [ ("serial", 1, true, true);
    ("jobs4", 4, true, true);
    ("serial/no-order-props", 1, false, true);
    ("serial/no-join-isolation", 1, true, false) ]

type outcome = Items of string list | Failed of string

let run ?mode (_name, jobs, order_props, join_isolation) q =
  let opts =
    { Engine.default_opts with Engine.jobs; mode; order_props; join_isolation }
  in
  let st = mk_store () in
  match Engine.run_result ~opts st q with
  | Ok r ->
    Items
      (List.map
         (fun it ->
            match it with
            | Value.Node n -> Xmldb.Serialize.node_to_string st n
            | v -> Value.to_string v)
         r.Engine.items)
  | Error { Engine.kind; message } ->
    Failed (Basis.Err.kind_label kind ^ ": " ^ message)

let exact = function
  | Items l -> "ok: " ^ String.concat " | " l
  | Failed m -> m

let multiset = function
  | Items l -> "ok: " ^ String.concat " | " (List.sort compare l)
  | Failed m -> m

(* ------------------------------------------------------------- corpus *)

let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus () =
  Sys.readdir queries_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xq")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat queries_dir f)))

(* Wrap the query *body* in [unordered { ... }]. A prolog declaration
   (gold_items.xq, income_histogram.xq carry [declare ordering
   unordered;]) must stay outside the wrap — splice after it. Leading
   comments are legal inside an expression, so they need no special
   handling. *)
let wrap_unordered text =
  let marker = "declare ordering unordered;" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length text then None
    else if String.sub text i ml = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
    String.sub text 0 (i + ml)
    ^ " unordered { "
    ^ String.sub text (i + ml) (String.length text - i - ml)
    ^ " }"
  | None -> "unordered { " ^ text ^ " }"

(* ----------------------------------------------------------- relations *)

(* Relation 1: per configuration, the wrap may at most permute. *)
let test_unordered_wrap_is_permutation () =
  List.iter
    (fun (file, text) ->
       let wrapped = wrap_unordered text in
       List.iter
         (fun ((name, _, _, _) as cfg) ->
            Alcotest.(check string)
              (Printf.sprintf "%s [%s]: unordered{} at most permutes" file name)
              (multiset (run cfg text))
              (multiset (run cfg wrapped)))
         configs)
    (corpus ())

(* Relation 2: the configuration is invisible — exact agreement across
   every configuration, for the plain text, the wrapped text, and the text under a
   forced ordered mode. *)
let check_configs_exact ?mode label text =
  match configs with
  | [] -> assert false
  | reference_cfg :: rest ->
    let reference = exact (run ?mode reference_cfg text) in
    List.iter
      (fun ((name, _, _, _) as cfg) ->
         Alcotest.(check string)
           (Printf.sprintf "%s [%s]" label name)
           reference
           (exact (run ?mode cfg text)))
      rest

let test_configs_agree_plain () =
  List.iter
    (fun (file, text) -> check_configs_exact (file ^ " plain") text)
    (corpus ())

let test_configs_agree_wrapped () =
  List.iter
    (fun (file, text) ->
       check_configs_exact (file ^ " wrapped") (wrap_unordered text))
    (corpus ())

let test_configs_agree_forced_ordered () =
  List.iter
    (fun (file, text) ->
       check_configs_exact ~mode:Xquery.Ast.Ordered (file ^ " ordered-mode")
         text)
    (corpus ())

(* An ordered-context sanity anchor: a query whose result order *is*
   observable (positional access after sorting) must agree exactly —
   not merely as a multiset — between plain and wrapped runs too,
   because [unordered {}] scopes only over the wrapped expression's
   internal binding order, never over an [order by]. *)
let test_ordered_context_exact () =
  let q =
    {|let $a := doc("auction.xml")
      for $p in $a/site/people/person
      order by string(exactly-one($p/name/text())) descending
      return $p/name/text()|}
  in
  List.iter
    (fun ((name, _, _, _) as cfg) ->
       Alcotest.(check string)
         (Printf.sprintf "order-by survives unordered{} [%s]" name)
         (exact (run cfg q))
         (exact (run cfg (wrap_unordered q))))
    configs

(* The soundness boundary of sort elision, pinned adversarially: an
   [unordered { ... order by ... descending ... }] under a FORCED
   ordered mode. The wrap grants maximum latitude and a mode-peeking
   implementation might take it as licence to skip the root sort — but
   elision must be purely structural (a proof the rows already arrive
   pos-sorted), and a descending order-by makes that proof impossible.
   So: the root sort must NOT be elided, the result must be the
   descending sequence exactly, and order-props on/off must agree to the
   byte in every configuration. *)
let test_unordered_wrap_never_licenses_elision () =
  let q = "unordered { for $i in (1, 2, 3) order by $i descending return $i }"
  in
  (* structural check: the engine did not elide the root sort *)
  let st = mk_store () in
  let r =
    Engine.run ~opts:{ Engine.default_opts with mode = Some Xquery.Ast.Ordered }
      ~with_profile:true st q
  in
  (match r.Engine.profile with
   | None -> Alcotest.fail "profile requested but absent"
   | Some p ->
     Alcotest.(check int) "root sort NOT elided under unordered{}+desc" 0
       (Algebra.Profile.phys p).Algebra.Profile.root_sort_elided);
  (* behavioural check: exact descending result, every config, on = off *)
  List.iter
    (fun ((name, _, _, _) as cfg) ->
       Alcotest.(check string)
         (Printf.sprintf "desc result exact under forced ordered [%s]" name)
         "ok: 3 | 2 | 1"
         (exact (run ~mode:Xquery.Ast.Ordered cfg q)))
    configs

let () =
  Alcotest.run "order-metamorphic"
    [ ("relation 1: unordered{} permutes at most",
       [ Alcotest.test_case "corpus" `Slow test_unordered_wrap_is_permutation;
         Alcotest.test_case "ordered context stays exact" `Quick
           test_ordered_context_exact ]);
      ("relation 2: configurations are invisible",
       [ Alcotest.test_case "plain" `Slow test_configs_agree_plain;
         Alcotest.test_case "wrapped" `Slow test_configs_agree_wrapped;
         Alcotest.test_case "forced ordered mode" `Slow
           test_configs_agree_forced_ordered ]);
      ("sort-elision soundness boundary",
       [ Alcotest.test_case "unordered{} + order-by-desc never elides"
           `Quick test_unordered_wrap_never_licenses_elision ]) ]

(* The storage layer's contract: the packed columnar store, the
   streaming chunked parser and the snapshot format are all
   *representation* choices — none may be observable through the
   accessor API, the query engine, or a save/load cycle. Six property
   families pin that down:

     1. accessors vs generator rows — the random-document generator
        emits, next to its XML, the rows the store must hold (adjacent
        text merged, attributes inlined), computed without the store's
        Builder; every fragment must match them row for row. XMark and
        runtime-constructed fragments are checked against the encoding's
        structural invariants, and XMark against the density floor;
     2. snapshot identity — save -> load -> save is byte-identical and a
        loaded store is accessor-identical to its source;
     3. chunk invariance — parsing through a reader at chunk sizes
        {1, 7, 64K, whole-document} yields a store byte-identical (as a
        snapshot) to the monolithic parse;
     4. engine parity — every corpus query returns identical serialized
        results on parsed and snapshot-loaded stores, serial and at
        jobs=4;
     5. corruption — truncations, bit flips, version/magic skew and
        trailing garbage all fail as clean dynamic errors and never
        surface a partially loaded store;
     6. compressed execution — the bulk [*_range] accessors agree row
        for row with the per-row accessors (across chunk seams too),
        batched staircase scans account exactly the rows they decode,
        query results under code-eval are byte-identical to the
        materialized reference path, dictionary or no dictionary, and
        every attribute/text/comment/PI row keeps a value code, ""
        included. *)

module DS = Xmldb.Doc_store
module K = Xmldb.Node_kind

(* ------------------------------------------------- random documents *)

(* One row the store must hold for a document, names and values as
   strings ([""] for none). *)
type row = {
  kind : K.t;
  name : string;
  value : string;
  size : int;
  level : int;
  parent : int;
}

(* Expected rows, accumulated in document order independently of the
   store: [open_node] returns the row to [close] once its content is
   emitted; [text] merges with a directly preceding text row. *)
module Rows = struct
  type t = { rows : row Basis.Vec.t; mutable last_text : int }

  let create () =
    { rows =
        Basis.Vec.create
          { kind = K.Text; name = ""; value = ""; size = 0; level = 0;
            parent = -1 };
      last_text = -1 }

  let add t kind ?(name = "") ?(value = "") ~level ~parent () =
    let pre = Basis.Vec.length t.rows in
    Basis.Vec.push t.rows { kind; name; value; size = 0; level; parent };
    t.last_text <- -1;
    pre

  let text t ~level ~parent s =
    if t.last_text >= 0 then begin
      let r = Basis.Vec.get t.rows t.last_text in
      Basis.Vec.set t.rows t.last_text { r with value = r.value ^ s }
    end else t.last_text <- add t K.Text ~value:s ~level ~parent ()

  let close t pre =
    let r = Basis.Vec.get t.rows pre in
    Basis.Vec.set t.rows pre
      { r with size = Basis.Vec.length t.rows - pre - 1 };
    t.last_text <- -1

  let to_list t = Array.to_list (Basis.Vec.to_array t.rows)
end

(* A PRNG-driven XML generator that also returns the document's expected
   rows. [names] controls dictionary pressure: a tiny vocabulary makes
   per-fragment dictionaries pay off, a large one makes the encoder
   reject them — both paths must stay invisible. *)
let gen_xml ~seed ~names ~max_children ~depth () =
  let rng = Basis.Prng.create seed in
  let name i = Printf.sprintf "n%d" i in
  let buf = Buffer.create 1024 in
  let rows = Rows.create () in
  let doc = Rows.add rows K.Document ~level:0 ~parent:(-1) () in
  let rec element d ~level ~parent =
    let tag = name (Basis.Prng.int rng names) in
    let pre = Rows.add rows K.Element ~name:tag ~level ~parent () in
    Buffer.add_char buf '<';
    Buffer.add_string buf tag;
    for _ = 1 to Basis.Prng.int rng 3 do
      let v = Printf.sprintf "v%d" (Basis.Prng.int rng 1000) in
      let a = Printf.sprintf "a%d" (Basis.Prng.int rng names) in
      Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" a v);
      ignore
        (Rows.add rows K.Attribute ~name:a ~value:v ~level:(level + 1)
           ~parent:pre ())
    done;
    let child kind ?name ?value () =
      ignore (Rows.add rows kind ?name ?value ~level:(level + 1) ~parent:pre ())
    in
    if d = 0 || Basis.Prng.int rng 10 = 0 then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      for _ = 1 to 1 + Basis.Prng.int rng max_children do
        match Basis.Prng.int rng 10 with
        | 0 ->
          Buffer.add_string buf "<!--c-->";
          child K.Comment ~value:"c" ()
        | 1 ->
          Buffer.add_string buf "<?pi data?>";
          child K.Processing_instruction ~name:"pi" ~value:"data" ()
        | (2 | 3 | 4) as c ->
          (* character data, as text or CDATA: adjacent pieces merge *)
          let k = Basis.Prng.int rng 500 in
          let raw, text =
            if c = 4 then
              (Printf.sprintf "<![CDATA[c%d<]]>" k, Printf.sprintf "c%d<" k)
            else (Printf.sprintf "t%d&amp;x" k, Printf.sprintf "t%d&x" k)
          in
          Buffer.add_string buf raw;
          Rows.text rows ~level:(level + 1) ~parent:pre text
        | _ -> element (d - 1) ~level:(level + 1) ~parent:pre
      done;
      Buffer.add_string buf "</";
      Buffer.add_string buf tag;
      Buffer.add_char buf '>'
    end;
    Rows.close rows pre
  in
  element depth ~level:1 ~parent:doc;
  Rows.close rows doc;
  (Buffer.contents buf, Rows.to_list rows)

let row kind ?(name = "") ?(value = "") size level parent =
  { kind; name; value; size; level; parent }

(* (xml, expected rows) *)
let sample_docs =
  lazy
    (let small = List.init 8 (fun i ->
         gen_xml ~seed:(100 + i) ~names:5 ~max_children:4 ~depth:5 ()) in
     let wide = List.init 4 (fun i ->
         gen_xml ~seed:(200 + i) ~names:400 ~max_children:8 ~depth:3 ()) in
     let fixed =
       [ ("<a/>", [ row K.Document 1 0 (-1); row K.Element ~name:"a" 0 1 0 ]);
         ("<a b=\"c\"/>",
          [ row K.Document 2 0 (-1); row K.Element ~name:"a" 1 1 0;
            row K.Attribute ~name:"b" ~value:"c" 0 2 1 ]);
         ("<a><!--x--><?t d?><![CDATA[<raw>]]></a>",
          [ row K.Document 4 0 (-1); row K.Element ~name:"a" 3 1 0;
            row K.Comment ~value:"x" 0 2 1;
            row K.Processing_instruction ~name:"t" ~value:"d" 0 2 1;
            row K.Text ~value:"<raw>" 0 2 1 ]) ]
     in
     small @ wide @ fixed)

let sample_xml () = List.map fst (Lazy.force sample_docs)

let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let build xml =
  let st = DS.create () in
  ignore (Xmldb.Xml_parser.load_document st ~uri:"d.xml" xml);
  st

(* ------------------------------------ 1. accessors vs generator rows *)

let store_rows st f =
  List.init (DS.frag_length f) (fun pre ->
      let name_id = DS.name_at f pre and value_id = DS.value_at f pre in
      { kind = DS.kind_at f pre;
        name =
          (if name_id < 0 then ""
           else Xmldb.Qname.to_string (DS.name_of_id st name_id));
        value = (if value_id < 0 then "" else DS.text_of_id st value_id);
        size = DS.size_at f pre;
        level = DS.level_at f pre;
        parent = DS.parent_at f pre })

let show_row r =
  Printf.sprintf "%s name=%S value=%S size=%d level=%d parent=%d"
    (K.to_string r.kind) r.name r.value r.size r.level r.parent

let test_generator_rows () =
  List.iteri
    (fun i (xml, want) ->
       let st = build xml in
       Alcotest.(check int) (Printf.sprintf "doc %d: one fragment" i) 1
         (DS.n_frags st);
       Alcotest.(check (list string))
         (Printf.sprintf "doc %d: rows" i)
         (List.map show_row want)
         (List.map show_row (store_rows st (DS.frag st 0))))
    (Lazy.force sample_docs)

(* The encoding's structural invariants over every fragment: each row's
   subtree ends inside the fragment and inside its parent's subtree, the
   parent precedes it, levels count parents, and the roots (level 0)
   tile the fragment. *)
let check_structure label st =
  for fi = 0 to DS.n_frags st - 1 do
    let f = DS.frag st fi in
    let n = DS.frag_length f in
    let fail pre what =
      Alcotest.failf "%s frag %d row %d: %s" label fi pre what
    in
    for pre = 0 to n - 1 do
      let size = DS.size_at f pre and parent = DS.parent_at f pre in
      if size < 0 || pre + size >= n then fail pre "subtree leaves the fragment";
      if DS.kind_at f pre = K.Attribute && size <> 0 then
        fail pre "attribute with a subtree";
      if parent < 0 then begin
        if DS.level_at f pre <> 0 then fail pre "root not at level 0"
      end else begin
        let pend = parent + DS.size_at f parent in
        if not (parent < pre && pre <= pend) then
          fail pre "outside its parent's subtree";
        if pre + size > pend then fail pre "subtree not nested in its parent's";
        if DS.level_at f pre <> DS.level_at f parent + 1 then
          fail pre "level is not the parent's plus one"
      end
    done;
    let p = ref 0 in
    while !p < n do
      if DS.parent_at f !p <> -1 then fail !p "root walk hit a non-root";
      p := !p + DS.size_at f !p + 1
    done;
    if !p <> n then fail !p "roots do not tile the fragment"
  done

let test_xmark_structure () =
  let st = build (Lazy.force auction_xml) in
  check_structure "xmark" st;
  (* the density floor: at least 2x denser than a boxed table of six
     words per row *)
  let bytes = DS.encoded_bytes st and nodes = DS.total_nodes st in
  if 2 * bytes > 48 * nodes then
    Alcotest.failf "xmark: %d bytes for %d nodes, below 2x of 48 B/node"
      bytes nodes

(* Runtime node construction freezes fresh fragments through the same
   packing path. *)
let test_constructed_structure () =
  let st = build "<a><b x=\"1\">t</b><b x=\"2\">u</b></a>" in
  let q =
    {|for $b in doc("d.xml")/a/b
      return <r k="{$b/@x}"><copy>{$b}</copy><!--made--></r>|}
  in
  Alcotest.(check string) "constructed result"
    {|<r k="1"><copy><b x="1">t</b></copy><!--made--></r><r k="2"><copy><b x="2">u</b></copy><!--made--></r>|}
    (Engine.run st q).Engine.serialized;
  Alcotest.(check bool) "construction appended fragments" true
    (DS.n_frags st > 1);
  check_structure "constructed" st

(* ------------------------------------------- 2. snapshot identity *)

let test_snapshot_roundtrip () =
  List.iteri
    (fun i xml ->
       let label = Printf.sprintf "doc %d" i in
       let st = build xml in
       let s1 = DS.Snapshot.to_string st in
       let st2 = DS.Snapshot.of_string s1 in
       let s2 = DS.Snapshot.to_string st2 in
       Alcotest.(check bool) (label ^ ": save->load->save identical") true
         (String.equal s1 s2);
       for fi = 0 to DS.n_frags st2 - 1 do
         Alcotest.(check (list string))
           (Printf.sprintf "%s frag %d: loaded rows = source rows" label fi)
           (List.map show_row (store_rows st (DS.frag st fi)))
           (List.map show_row (store_rows st2 (DS.frag st2 fi)))
       done;
       Alcotest.(check (list string))
         (label ^ ": document registry survives")
         (List.map fst (DS.documents st))
         (List.map fst (DS.documents st2)))
    (sample_xml ())

let test_snapshot_file_roundtrip () =
  let xml = Lazy.force auction_xml in
  let st = build xml in
  let path = Filename.temp_file "xrq-roundtrip" ".xrqs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       DS.Snapshot.save st path;
       let st2 = DS.Snapshot.load path in
       Alcotest.(check bool) "file round-trip identical" true
         (String.equal (DS.Snapshot.to_string st) (DS.Snapshot.to_string st2));
       (* a second save of the same store is byte-identical on disk *)
       let path2 = path ^ ".again" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
         (fun () ->
            DS.Snapshot.save st path2;
            let slurp p =
              let ic = open_in_bin p in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            Alcotest.(check bool) "two saves byte-identical" true
              (String.equal (slurp path) (slurp path2))))

(* -------------------------------------------- 3. chunk invariance *)

let parse_chunked ?window st xml chunk =
  let pos = ref 0 in
  let reader b ofs len =
    let n = min (min len chunk) (String.length xml - !pos) in
    Bytes.blit_string xml !pos b ofs n;
    pos := !pos + n;
    n
  in
  ignore (Xmldb.Xml_parser.load_reader ?window st ~uri:"d.xml" reader)

let test_chunk_invariance () =
  let docs = sample_xml () @ [ Lazy.force auction_xml ] in
  List.iteri
    (fun i xml ->
       let reference = DS.Snapshot.to_string (build xml) in
       List.iter
         (fun chunk ->
            let chunk =
              if chunk = max_int then String.length xml else chunk
            in
            (* a window smaller than the default exercises compaction and
               growth; keep it tiny for the tiny chunks *)
            let window = if chunk <= 7 then 16 else 65536 in
            let st = DS.create () in
            parse_chunked ~window st xml chunk;
            Alcotest.(check bool)
              (Printf.sprintf "doc %d chunk %d byte-identical" i chunk)
              true
              (String.equal reference (DS.Snapshot.to_string st)))
         [ 1; 7; 65536; max_int ])
    docs

let test_chunk_invariance_load_file () =
  let xml = Lazy.force auction_xml in
  let reference = DS.Snapshot.to_string (build xml) in
  let path = Filename.temp_file "xrq-chunk" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out_bin path in
       output_string oc xml;
       close_out oc;
       List.iter
         (fun chunk_size ->
            let st = DS.create () in
            ignore
              (Xmldb.Xml_parser.load_file ~chunk_size st ~uri:"d.xml" path);
            Alcotest.(check bool)
              (Printf.sprintf "load_file chunk %d byte-identical" chunk_size)
              true
              (String.equal reference (DS.Snapshot.to_string st)))
         [ 512; 65536 ])

(* ----------------------------------------------- 4. engine parity *)

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

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"

(* Pinned snapshot bytes: the MD5 of three stores' snapshots, taken
   before the builder froze its columns in place and dictionary-encoded
   through a flat table. The packed bytes, the dictionaries and the pool
   order must not move: a parsed XMark store, the corpus [t.xml] store,
   and that store after a query constructs elements, attributes, merged
   and empty text nodes and comments from it. *)
let pinned_snapshots () =
  let md5 st = Digest.to_hex (Digest.string (DS.Snapshot.to_string st)) in
  let xmark = DS.create () in
  ignore
    (Xmldb.Xml_parser.load_document xmark ~uri:"auction.xml"
       (Xmark.Xmark_gen.generate ~scale:0.01 ()));
  Alcotest.(check string) "xmark scale 0.01" "acf4875f7a3c49f914591e40e3be0ed8"
    (md5 xmark);
  let t = DS.create () in
  ignore (Xmldb.Xml_parser.load_document t ~uri:"t.xml" doc_xml);
  Alcotest.(check string) "t.xml" "3f3c6d41754bd336f22f08301378be46" (md5 t);
  let q =
    {|for $x in doc("t.xml")//*, $i in (2, 1) return <r a="{$i}">{$x/node(), "s", $i, text {""}, element {"n"} {$x/@k}}<!--c--></r>|}
  in
  ignore (Engine.run t q);
  Alcotest.(check string) "t.xml after construction"
    "593fd7e3f2428ca48963d65988a02c99" (md5 t)

let mk_corpus_store () =
  let st = DS.create () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
      (Lazy.force auction_xml)
  in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

let run_on st jobs q =
  let opts = { Engine.default_opts with Engine.jobs } in
  match Engine.run_result ~opts st q with
  | Ok r -> "ok: " ^ r.Engine.serialized
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

let test_corpus_parity () =
  (* two stores, one document: parsed and snapshot-loaded; the parsed
     store at jobs 1 is the reference *)
  let sp = mk_corpus_store () in
  let sl = DS.Snapshot.of_string (DS.Snapshot.to_string sp) in
  List.iter
    (fun (file, text) ->
       let reference = run_on sp 1 text in
       List.iter
         (fun (sname, st, jobs) ->
            Alcotest.(check string)
              (Printf.sprintf "%s [%s/jobs%d]" file sname jobs)
              reference (run_on st jobs text))
         [ ("parsed", sp, 4); ("loaded", sl, 1); ("loaded", sl, 4) ])
    (corpus ())

(* ------------------------- 6. bulk accessors and the code-eval oracle *)

(* Every [*_range] decode must agree row for row with the per-row
   accessors over empty, 1-row, interior, suffix and whole-column
   ranges. *)
let check_bulk_parity label f =
  let n = DS.frag_length f in
  if n > 0 then begin
    let ranges =
      [ (0, 0); (0, 1); (n - 1, n); (n / 3, min n ((2 * n / 3) + 1)); (0, n) ]
    in
    let kinds = Array.make n (DS.kind_at f 0) in
    let sizes = Array.make n 0 and ncodes = Array.make n 0 in
    List.iter
      (fun (lo, hi) ->
         let len = hi - lo in
         DS.kinds_range f lo hi kinds;
         DS.sizes_range f lo hi sizes;
         DS.name_codes_range f lo hi ncodes;
         for i = 0 to len - 1 do
           let pre = lo + i in
           let ck what got want =
             if got <> want then
               Alcotest.failf "%s [%d,%d): %s at pre %d: bulk %d, row %d"
                 label lo hi what pre got want
           in
           ck "kind"
             (Xmldb.Node_kind.to_int kinds.(i))
             (Xmldb.Node_kind.to_int (DS.kind_at f pre));
           ck "size" sizes.(i) (DS.size_at f pre);
           ck "name code" ncodes.(i) (DS.name_code_at f pre)
         done)
      ranges
  end

(* Range accounting: a batched staircase scan credits its run's counter
   with exactly the column rows it decodes — kinds for every row, plus
   name codes under a name test and subtree sizes for [preceding] — and
   returns what the scalar scan returns. Only scans long enough to batch
   are checked; the XMark document guarantees some are. *)
let check_scan_accounting label st =
  let checked = ref 0 in
  for fi = 0 to DS.n_frags st - 1 do
    let f = DS.frag st fi in
    let n = DS.frag_length f in
    if n >= 256 && DS.size_at f 0 = n - 1
       && DS.kind_at f 1 = K.Element
    then begin
      incr checked;
      let node pre = Xmldb.Node_id.make ~frag:fi ~pre in
      let scan axis test ctx want =
        let decoded = Atomic.make 0 in
        let got = Xmldb.Staircase.step ~decoded st axis test [| node ctx |] in
        Alcotest.(check bool)
          (Printf.sprintf "%s frag %d: batched = scalar" label fi) true
          (got = Xmldb.Staircase.step ~batch:false st axis test [| node ctx |]);
        Alcotest.(check int)
          (Printf.sprintf "%s frag %d: rows decoded" label fi)
          want (Atomic.get decoded)
      in
      let open Xmldb in
      scan Axis.Descendant Node_test.Any_node 0 (n - 1);
      scan Axis.Descendant (Node_test.Name (DS.name_at f 1)) 0 (2 * (n - 1));
      scan Axis.Preceding Node_test.Any_node (n - 1) (2 * (n - 1))
    end
  done;
  !checked

let test_bulk_accessor_parity () =
  let docs = sample_xml () @ [ Lazy.force auction_xml ] in
  let checked =
    List.mapi
      (fun i xml ->
         let st = build xml in
         for fi = 0 to DS.n_frags st - 1 do
           check_bulk_parity
             (Printf.sprintf "doc %d frag %d" i fi)
             (DS.frag st fi)
         done;
         check_scan_accounting (Printf.sprintf "doc %d" i) st)
      docs
  in
  Alcotest.(check bool) "some scans were long enough to batch" true
    (List.fold_left ( + ) 0 checked > 0)

(* A tiny parse window forces multi-chunk packed columns, so the
   whole-column range crosses chunk seams. *)
let test_bulk_accessor_parity_chunked () =
  List.iteri
    (fun i xml ->
       let st = DS.create () in
       parse_chunked ~window:16 st xml 7;
       for fi = 0 to DS.n_frags st - 1 do
         check_bulk_parity
           (Printf.sprintf "chunked doc %d frag %d" i fi)
           (DS.frag st fi)
       done)
    [ List.hd (sample_xml ()); Lazy.force auction_xml ]

(* The code-eval oracle: compressed execution (text-id columns, id-keyed
   predicates, batched steps) must be byte-identical to the materialized
   reference path — over the whole query corpus and over equality shapes
   chosen to hit every keying case (match, no-match, a string the store
   has never seen, the empty string, ne). Dictionary-hostile documents make the encoder reject
   per-fragment dictionaries; that fallback must stay invisible too. *)
let run_with opts st q =
  match Engine.run_result ~opts st q with
  | Ok r -> "ok: " ^ r.Engine.serialized
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

let code_eval_off = { Engine.default_opts with Engine.code_eval = false }

let eq_queries =
  [ ("text eq hit",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() eq "Graduate School" return $e)|});
    ("attr eq hit",
     {|count(for $t in doc("auction.xml")//closed_auction
            where $t/seller/@person eq "person0" return $t)|});
    ("eq absent string",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() eq "No Such Degree Anywhere" return $e)|});
    ("eq empty string",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() eq "" return $e)|});
    ("ne",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() ne "College" return $e)|}) ]

let test_code_eval_oracle_corpus () =
  let sp = mk_corpus_store () in
  List.iter
    (fun (file, text) ->
       Alcotest.(check string)
         (Printf.sprintf "%s: code-eval on = off" file)
         (run_with code_eval_off sp text)
         (run_with Engine.default_opts sp text))
    (corpus ())

let test_code_eval_oracle_eq_shapes () =
  let sp = mk_corpus_store () in
  List.iter
    (fun (name, q) ->
       Alcotest.(check string) (name ^ ": on = off")
         (run_with code_eval_off sp q)
         (run_with Engine.default_opts sp q))
    eq_queries;
  (* and the translated predicate really runs as a code compare: the
     profile must say so for the hit queries *)
  let r =
    Engine.run ~opts:Engine.default_opts ~with_profile:true sp
      (List.assoc "attr eq hit" eq_queries)
  in
  match r.Engine.profile with
  | None -> Alcotest.fail "profile missing"
  | Some p ->
    let ph = Algebra.Profile.phys p in
    if ph.Algebra.Profile.code_preds <= 0 then
      Alcotest.fail "equality never ran on text ids"

(* Dictionary-hostile vocabulary: the encoder rejects per-fragment
   dictionaries, so value ids are stored as global pool ids — results
   must not move. *)
let test_code_eval_oracle_hostile () =
  let xml, _ = gen_xml ~seed:42 ~names:400 ~max_children:8 ~depth:3 () in
  let queries =
    [ {|count(for $e in doc("d.xml")//* where $e/@a1 eq "v5" return $e)|};
      {|count(for $e in doc("d.xml")//* where $e/@a1 ne "v5" return $e)|};
      {|count(for $e in doc("d.xml")//* where $e/@a1 eq "" return $e)|} ]
  in
  let st = build xml in
  List.iter
    (fun q ->
       Alcotest.(check string) "hostile: on = off"
         (run_with code_eval_off st q)
         (run_with Engine.default_opts st q))
    queries

(* The invariant that lets -1 stand for "absent" among text ids: the
   store interns every attribute, text, comment and PI value, ""
   included, so every one of those rows has a text id >= 0 — in parsed,
   constructed and snapshot-loaded fragments alike. An [eq ""] predicate
   over their ids then keeps exactly the empty-valued rows: on ids (the
   profile counts a code predicate), and as the materialized path
   does. *)
let empty_values_xml = {|<r a="" b="x"><!----><?p?><?q d?><e c=""/>t</r>|}

(* (query, the empty-valued rows it counts) *)
let empty_value_queries =
  [ ({|count(doc("d.xml")//@*[. eq ""])|}, 2);
    ({|count(doc("d.xml")//comment()[. eq ""])|}, 1);
    ({|count(doc("d.xml")//processing-instruction()[. eq ""])|}, 1);
    ({|count(doc("d.xml")//text()[. eq ""])|}, 0);
    ({|count(<n z="" y="v">{attribute w {""}}</n>/@*[. eq ""])|}, 2);
    ({|count(<n><!---->{comment {""}}<?p?>{processing-instruction q {""}}
              </n>/node()[. eq ""])|},
     4);
    ({|count(text {""}[. eq ""])|}, 1);
    ({|count(attribute z {""}[. eq ""])|}, 1);
    ({|count(comment {""}[. eq ""])|}, 1);
    ({|count(processing-instruction p {""}[. eq ""])|}, 1) ]

let check_value_ids label st =
  for fi = 0 to DS.n_frags st - 1 do
    let f = DS.frag st fi in
    for pre = 0 to DS.frag_length f - 1 do
      match DS.kind_at f pre with
      | K.Attribute | K.Text | K.Comment | K.Processing_instruction ->
        if DS.value_at f pre < 0 then
          Alcotest.failf "%s frag %d row %d: value id %d" label fi pre
            (DS.value_at f pre)
      | K.Element | K.Document -> ()
    done
  done

let test_empty_value_codes () =
  let parsed = build empty_values_xml in
  let loaded = DS.Snapshot.of_string (DS.Snapshot.to_string parsed) in
  List.iter
    (fun (label, st) ->
       List.iter
         (fun (q, want) ->
            let r = Engine.run ~with_profile:true st q in
            Alcotest.(check string) (label ^ ": " ^ q) (string_of_int want)
              r.Engine.serialized;
            Alcotest.(check string)
              (label ^ ": code-eval on = off")
              (run_with code_eval_off st q)
              ("ok: " ^ r.Engine.serialized);
            match r.Engine.profile with
            | Some p
              when (Algebra.Profile.phys p).Algebra.Profile.code_preds > 0 ->
              ()
            | _ -> Alcotest.failf "%s: %s never ran on text ids" label q)
         empty_value_queries;
       (* the queries' constructors appended fragments to [st] *)
       check_value_ids label st)
    [ ("parsed", parsed); ("loaded", loaded) ];
  check_value_ids "reloaded"
    (DS.Snapshot.of_string (DS.Snapshot.to_string parsed))

(* --------------------------------------------------- 5. corruption *)

let expect_dynamic label thunk =
  match Basis.Err.protect_kind thunk with
  | Ok _ -> Alcotest.failf "%s: corrupt snapshot loaded successfully" label
  | Error (Basis.Err.Dynamic, msg) ->
    if not (String.length msg >= 16 && String.sub msg 0 16 = "corrupt snapshot")
    then Alcotest.failf "%s: unexpected message %S" label msg
  | Error (k, msg) ->
    Alcotest.failf "%s: wrong error class %s: %s" label
      (Basis.Err.kind_label k) msg

let test_corrupt_truncations () =
  let st = build (List.hd (sample_xml ())) in
  let s = DS.Snapshot.to_string st in
  let n = String.length s in
  List.iter
    (fun k ->
       let k = min k (n - 1) in
       expect_dynamic
         (Printf.sprintf "truncated to %d" k)
         (fun () -> DS.Snapshot.of_string (String.sub s 0 k)))
    [ 0; 3; 8; 11; n / 4; n / 2; n - 1 ]

let test_corrupt_bitflips () =
  let st = build (List.hd (sample_xml ())) in
  let s = DS.Snapshot.to_string st in
  let n = String.length s in
  let step = max 1 (n / 97) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string s in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x40));
    (match Basis.Err.protect_kind (fun () ->
         DS.Snapshot.of_string (Bytes.to_string b)) with
     | Error (Basis.Err.Dynamic, _) -> ()
     | Error (k, msg) ->
       Alcotest.failf "flip at %d: wrong error class %s: %s" !pos
         (Basis.Err.kind_label k) msg
     | Ok st' ->
       (* a flip inside pool *string payloads* changes content the CRC
          protects — any successful load is a checksum hole *)
       ignore st';
       Alcotest.failf "flip at %d loaded successfully" !pos);
    pos := !pos + step
  done

let test_corrupt_version_and_magic () =
  let st = build "<a/>" in
  let s = DS.Snapshot.to_string st in
  let with_byte i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (* bytes 0-7 are the magic, 8-11 the little-endian version *)
  expect_dynamic "bad magic" (fun () ->
      DS.Snapshot.of_string (with_byte 0 'Y'));
  expect_dynamic "future version" (fun () ->
      DS.Snapshot.of_string (with_byte 8 '\xFF'));
  expect_dynamic "trailing garbage" (fun () ->
      DS.Snapshot.of_string (s ^ "junk"));
  expect_dynamic "empty input" (fun () -> DS.Snapshot.of_string "")

let test_corrupt_missing_file () =
  match
    Basis.Err.protect_kind (fun () ->
        DS.Snapshot.load "/nonexistent/xrq-no-such-file.xrqs")
  with
  | Ok _ -> Alcotest.fail "load of missing file succeeded"
  | Error (Basis.Err.Dynamic, _) -> ()
  | Error (k, msg) ->
    Alcotest.failf "missing file: wrong error class %s: %s"
      (Basis.Err.kind_label k) msg

let () =
  Alcotest.run "store-roundtrip"
    [ ("1. accessors vs generator rows",
       [ Alcotest.test_case "random documents" `Quick test_generator_rows;
         Alcotest.test_case "xmark invariants (and the 2x bar)" `Quick
           test_xmark_structure;
         Alcotest.test_case "runtime-constructed invariants" `Quick
           test_constructed_structure ]);
      ("2. snapshot identity",
       [ Alcotest.test_case "save -> load -> save byte-identical" `Quick
           test_snapshot_roundtrip;
         Alcotest.test_case "file round-trip + deterministic save" `Quick
           test_snapshot_file_roundtrip;
         Alcotest.test_case "pinned snapshot bytes" `Quick pinned_snapshots ]);
      ("3. chunk invariance",
       [ Alcotest.test_case "reader chunks {1,7,64K,whole}" `Quick
           test_chunk_invariance;
         Alcotest.test_case "load_file chunk sizes" `Quick
           test_chunk_invariance_load_file ]);
      ("4. engine parity across stores",
       [ Alcotest.test_case "corpus x {serial, jobs4}, parsed/loaded" `Slow
           test_corpus_parity ]);
      ("6. bulk accessors and the code-eval oracle",
       [ Alcotest.test_case "bulk range = per-row, scan accounting" `Quick
           test_bulk_accessor_parity;
         Alcotest.test_case "bulk ranges across chunk seams" `Quick
           test_bulk_accessor_parity_chunked;
         Alcotest.test_case "code-eval on = off over the corpus" `Slow
           test_code_eval_oracle_corpus;
         Alcotest.test_case "equality shapes (hit/miss/empty/ne)" `Quick
           test_code_eval_oracle_eq_shapes;
         Alcotest.test_case "dictionary-hostile fallback" `Quick
           test_code_eval_oracle_hostile;
         Alcotest.test_case "empty values keep a code" `Quick
           test_empty_value_codes ]);
      ("5. corruption is a clean dynamic error",
       [ Alcotest.test_case "truncations" `Quick test_corrupt_truncations;
         Alcotest.test_case "bit flips" `Quick test_corrupt_bitflips;
         Alcotest.test_case "version, magic, trailing, empty" `Quick
           test_corrupt_version_and_magic;
         Alcotest.test_case "missing file" `Quick test_corrupt_missing_file ])
    ]

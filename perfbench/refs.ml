(* Expected outputs from the reference interpreter — the oracle, never
   the engine under test — keyed by (workload, document seed, query).

   A reference file holds one line per query: the query's name, the MD5
   of its text, the item count, the MD5 of the serialized result and the
   MD5 of the sorted per-item serializations (the multiset, checked for
   order-free queries). Its header pins the workload, document seed,
   scale and the MD5 of the generated document, so a file whose document
   or query text no longer matches is regenerated, never trusted. *)

open Corpus

type entry = { items : int; full : string; bag : string }

let md5 s = Digest.to_hex (Digest.string s)

let bag store items =
  List.map (fun it -> Interp.Xdm.serialize store [ it ]) items
  |> List.sort compare |> String.concat "\n" |> md5

let file_name w seed = Printf.sprintf "%s-s%d.tsv" (name w) (doc_seed w seed)

(* shipped with the benchmark / regenerated into the checkout *)
let committed_dir = Filename.concat "perfbench" "refs"
let regen_dir = Filename.concat cache_dir "refs"

let header w seed src =
  Printf.sprintf
    "# perfbench interpreter references: workload=%s doc_seed=%d scale=%g \
     doc_md5=%s"
    (name w) (doc_seed w seed) (scale w) (md5 src)

let line q e =
  String.concat "\t"
    [ q.qname; md5 q.text; string_of_int e.items; e.full; e.bag ]

(* The entries of [path] for [queries], in order, or [None] when the file
   is missing, stale or incomplete. *)
let read path ~header queries =
  if not (Sys.file_exists path) then None
  else
    match String.split_on_char '\n' (read_file path) with
    | h :: rows when h = header ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun row ->
           match String.split_on_char '\t' row with
           | [ qname; text_md5; items; full; bag ] ->
             Hashtbl.replace tbl qname
               (text_md5, { items = int_of_string items; full; bag })
           | _ -> ())
        rows;
      let found =
        List.map
          (fun q ->
             match Hashtbl.find_opt tbl q.qname with
             | Some (m, e) when m = md5 q.text -> Some e
             | _ -> None)
          queries
      in
      if List.for_all Option.is_some found then
        Some (Array.of_list (List.map Option.get found))
      else None
    | _ -> None

let lookup w seed src queries =
  let header = header w seed src in
  let from dir = read (Filename.concat dir (file_name w seed)) ~header queries in
  match from committed_dir with
  | Some r -> Some r
  | None -> from regen_dir

(* Run every query on the interpreter, each against a freshly loaded
   store, and write the reference file into [dir]. *)
let generate ?(dir = regen_dir) w seed src queries =
  let rows =
    List.map
      (fun q ->
         let st = load_store src in
         let t0 = Basis.Clock.now () in
         let items = Interp.Interpreter.run st q.text in
         let serialized = Interp.Xdm.serialize st items in
         Printf.eprintf "perfbench: reference %s %s: %.1f ms\n%!" (name w)
           q.qname ((Basis.Clock.now () -. t0) *. 1e3);
         line q
           { items = List.length items; full = md5 serialized;
             bag = bag st items })
      queries
  in
  write_file
    (Filename.concat dir (file_name w seed))
    (String.concat "\n" ((header w seed src :: rows) @ [ "" ]))

(* The references of a run: shipped or cached ones when they still match
   the document and the query texts, else regenerated first (untimed). *)
let ensure w seed src queries =
  match lookup w seed src queries with
  | Some r -> r
  | None ->
    generate w seed src queries;
    Option.get (lookup w seed src queries)

(* Whether a compiled result matches its reference: the item count, and
   the serialized bytes — or, for an order-free query, the item multiset. *)
let matches q e store (items : Algebra.Value.t list) serialized =
  List.length items = e.items
  && (if order_free q then bag store items = e.bag else md5 serialized = e.full)

(* XDM item sequences for the reference interpreter: plain value lists in
   sequence order. Items reuse the algebra's Value.t so results from the
   interpreter and the compiled plans compare directly. *)

type item = Algebra.Value.t
type seq = item list

let atomize store (v : item) : item =
  match v with
  | Algebra.Value.Node n -> Algebra.Value.Str (Xmldb.Doc_store.string_value store n)
  | v -> v

let atomize_seq store s = List.map (atomize store) s

let node_of = function
  | Algebra.Value.Node n -> n
  | v -> Algebra.Value.not_node v

let singleton = function
  | [ v ] -> v
  | s -> Algebra.Value.not_singleton (List.length s)

let opt_singleton = function
  | [] -> None
  | [ v ] -> Some v
  | s -> Algebra.Value.not_singleton (List.length s)

(* Effective boolean value, per spec (ordered definition). *)
let ebv = function
  | [] -> false
  | Algebra.Value.Node _ :: _ -> true
  | [ v ] -> Algebra.Value.ebv_atomic v
  | s -> Algebra.Value.ebv_of_atomics (List.length s)

(* Sort into document order and remove duplicates; raises on atomics. *)
let distinct_doc_order (s : seq) : seq =
  let nodes = List.map node_of s in
  let sorted = List.sort_uniq Xmldb.Node_id.compare nodes in
  List.map (fun n -> Algebra.Value.Node n) sorted

let path_result (s : seq) : seq =
  List.iter
    (fun v ->
       if not (Algebra.Value.is_node v) then Algebra.Value.path_not_node v)
    s;
  distinct_doc_order s

let string_of_item store (v : item) =
  Algebra.Value.to_string (atomize store v)

(* Serialize a sequence: nodes serialize as XML, adjacent atomics are
   separated by a single space (standard XQuery serialization). *)
let serialize store (s : seq) : string =
  let buf = Buffer.create 128 in
  let prev_atomic = ref false in
  List.iter
    (fun v ->
       match v with
       | Algebra.Value.Node n ->
         Xmldb.Serialize.node_to_buf store buf n;
         prev_atomic := false
       | atom ->
         if !prev_atomic then Buffer.add_char buf ' ';
         Buffer.add_string buf (Algebra.Value.to_string atom);
         prev_atomic := true)
    s;
  Buffer.contents buf

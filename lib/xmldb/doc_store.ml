(* The document store: Pathfinder's schema-oblivious XML encoding.

   Every XML fragment (a parsed document or a run of constructed nodes)
   is one contiguous pre/size/level table (paper, Section 3 / Figure 5):

     pre    - implicit row index: preorder rank
     kind   - node kind
     name   - name-pool id (elements, attributes, PI targets), -1 otherwise
     value  - text-pool id (text, attribute, comment, PI content), -1
     size   - number of table rows in the node's subtree (descendants,
              including inlined attribute rows)
     level  - depth (roots of the fragment are at level 0)
     parent - preorder rank of the parent inside this fragment, -1 for roots

   Attributes are inlined immediately after their owner element and before
   its children with size 0; axes other than [attribute] skip them.

   Fragments are append-only once finished; runtime node construction
   allocates fresh fragments, giving constructed trees a document order
   after all existing nodes — the seq->doc order interaction (paper 2(2))
   is realized by the *order of content rows* fed to the builder.

   Physical layout (paper Section 3: the MonetDB/X100-style encoded
   relational back-end). A finished fragment is frozen into bit-width
   minimal packed columns: each integer column picks the narrowest of
   u8/u16/u32 that holds its actual maximum, kinds are one byte per row,
   and the name/value columns are dictionary-encoded per fragment on top
   of the global pools whenever the local dictionary shrinks the column
   (a scale-10 XMark document has ~80 distinct tag names, so tag columns
   drop from 32 to 8 bits per row). Word-per-cell arrays exist only as the
   builder's working form; every finished fragment is packed. *)

open Basis

(* -- fragments ------------------------------------------------------------ *)

(* A packed integer column: u8 / u16 / u32 little-endian, chosen at freeze
   time from the column's actual maximum. *)
type col = C8 of Bytes.t | C16 of Bytes.t | C32 of Bytes.t

type frag = {
  p_len : int;
  p_kinds : Bytes.t;       (* Node_kind code, one byte per row *)
  p_names : col;           (* 0 = no name; see [decode_dict] *)
  p_name_dict : int array; (* local code - 1 -> global pool id; [||] = identity *)
  p_values : col;
  p_value_dict : int array;
  p_sizes : col;
  p_levels : col;
  p_parents : col;         (* parent pre + 1, 0 for roots *)
}

let frag_length f = f.p_len

let[@inline] col_get c i =
  match c with
  | C8 b -> Char.code (Bytes.get b i)
  | C16 b -> Bytes.get_uint16_le b (i * 2)
  | C32 b -> Int32.to_int (Bytes.get_int32_le b (i * 4)) land 0xFFFFFFFF

(* Name/value column codes: 0 means "none" (pool id -1). With a
   dictionary, code k > 0 stands for dict.(k - 1); without one the code is
   the global pool id + 1. *)
let[@inline] decode_dict dict code =
  if code = 0 then -1
  else if Array.length dict = 0 then code - 1
  else Array.unsafe_get dict (code - 1)

let[@inline] kind_at f pre = Node_kind.of_int (Char.code (Bytes.get f.p_kinds pre))
let[@inline] name_at f pre = decode_dict f.p_name_dict (col_get f.p_names pre)
let[@inline] value_at f pre = decode_dict f.p_value_dict (col_get f.p_values pre)
let[@inline] size_at f pre = col_get f.p_sizes pre
let[@inline] level_at f pre = col_get f.p_levels pre
let[@inline] parent_at f pre = col_get f.p_parents pre - 1

(* -- bulk range decoding --------------------------------------------------- *)

(* Decode one packed column slice [lo, hi) into [buf.(off .. off+hi-lo-1)]:
   the bit-width dispatch happens once per call instead of once per row,
   and each width gets its own tight loop. *)
let col_range c lo hi (buf : int array) off =
  let d = off - lo in
  match c with
  | C8 b ->
    for i = lo to hi - 1 do
      Array.unsafe_set buf (i + d) (Char.code (Bytes.unsafe_get b i))
    done
  | C16 b ->
    for i = lo to hi - 1 do
      Array.unsafe_set buf (i + d) (Bytes.get_uint16_le b (i * 2))
    done
  | C32 b ->
    for i = lo to hi - 1 do
      Array.unsafe_set buf (i + d)
        (Int32.to_int (Bytes.get_int32_le b (i * 4)) land 0xFFFFFFFF)
    done

let check_range what f lo hi buf_len =
  let n = frag_length f in
  if lo < 0 || hi < lo || hi > n then
    Err.internal "Doc_store.%s: range [%d,%d) outside fragment of %d rows"
      what lo hi n;
  if hi - lo > buf_len then
    Err.internal "Doc_store.%s: scratch buffer too small (%d < %d)"
      what buf_len (hi - lo)

let kinds_range f lo hi (buf : Node_kind.t array) =
  check_range "kinds_range" f lo hi (Array.length buf);
  for i = lo to hi - 1 do
    Array.unsafe_set buf (i - lo)
      (Node_kind.of_int (Char.code (Bytes.unsafe_get f.p_kinds i)))
  done

let sizes_range f lo hi buf =
  check_range "sizes_range" f lo hi (Array.length buf);
  col_range f.p_sizes lo hi buf 0

(* Local name-code column slice: the raw per-fragment codes, no dictionary
   expansion. *)
let name_codes_range f lo hi buf =
  check_range "name_codes_range" f lo hi (Array.length buf);
  col_range f.p_names lo hi buf 0

(* -- dictionary-code access ------------------------------------------------ *)

(* The per-row local name codes (0 = none). Code equality coincides with
   name equality: the pool interns, dictionaries are injective into the
   pool, hence local codes are injective into names per fragment. *)
let[@inline] name_code_at f pre = col_get f.p_names pre

(* -- freezing builder columns into a packed fragment ----------------------- *)

let width_for maxv = if maxv < 0x100 then 1 else if maxv < 0x10000 then 2 else 4

(* Pack [a.(i) + add] for the rows [i < n] of a non-negative integer
   column at the narrowest width that holds its maximum. *)
let pack_col ?(add = 0) (a : int array) n : col =
  let maxv = ref 0 in
  for i = 0 to n - 1 do
    let v = a.(i) + add in
    if v > !maxv then maxv := v
  done;
  let maxv = !maxv in
  match width_for maxv with
  | 1 ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do Bytes.unsafe_set b i (Char.unsafe_chr (a.(i) + add)) done;
    C8 b
  | 2 ->
    let b = Bytes.create (2 * n) in
    for i = 0 to n - 1 do Bytes.set_uint16_le b (2 * i) (a.(i) + add) done;
    C16 b
  | _ ->
    if maxv > 0xFFFFFFFF then
      Err.internal "Doc_store: column value %d exceeds u32" maxv;
    let b = Bytes.create (4 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int32_le b (4 * i) (Int32.of_int (a.(i) + add))
    done;
    C32 b

(* Dictionary-encode the first [n] rows of a pool-id column (-1 = none)
   into a packed code column and its dictionary; the dictionary is [||]
   (identity coding: global id + 1) whenever it would not shrink the
   bytes. Local codes are dense in first-occurrence order
   ([Int_index.number]), so the encoding is deterministic. *)
let dict_encode (ids : int array) n : col * int array =
  let codes, dict = Int_index.number ids n in
  let k = Array.length dict in
  let maxg = Array.fold_left max (-1) dict in
  let with_dict = (n * width_for k) + (8 * k) in
  let without = n * width_for (maxg + 1) in
  if k > 0 && with_dict < without then (pack_col codes n, dict)
  else (pack_col ~add:1 ids n, [||])

(* Freeze the first [n] rows of word-per-cell columns (pool ids, -1 =
   none; parent -1 = root) and a kind-code column of exactly [n] bytes
   into a packed fragment. The columns may be longer than [n]: they are
   read in place, never trimmed. *)
let pack_frag ~n ~kinds ~names ~values ~sizes ~levels ~parents : frag =
  let p_names, p_name_dict = dict_encode names n in
  let p_values, p_value_dict = dict_encode values n in
  {
    p_len = n;
    p_kinds = kinds;
    p_names;
    p_name_dict;
    p_values;
    p_value_dict;
    p_sizes = pack_col sizes n;
    p_levels = pack_col levels n;
    p_parents = pack_col ~add:1 parents n;
  }

let col_bytes = function C8 b | C16 b | C32 b -> Bytes.length b

(* Table bytes of one fragment as held in memory (dictionaries count at
   one word per entry). *)
let frag_bytes p =
  Bytes.length p.p_kinds
  + col_bytes p.p_names + (8 * Array.length p.p_name_dict)
  + col_bytes p.p_values + (8 * Array.length p.p_value_dict)
  + col_bytes p.p_sizes + col_bytes p.p_levels + col_bytes p.p_parents

(* -- the store ------------------------------------------------------------ *)

type t = {
  mu : Mutex.t;
      (* guards frags appends and the documents list; the pools carry
         their own locks. Readers of already-published fragments do not
         take it — fragments are immutable once pushed, and cross-thread
         visibility of the push itself is the lock's job on the writing
         side (server-level store locks keep whole queries from racing a
         concurrent append). *)
  name_pool : Qname_pool.t;
  text_pool : String_pool.t;
  frags : frag Vec.t;
  mutable documents : (string * Node_id.t) list; (* uri -> document node *)
}

let empty_frag =
  pack_frag ~n:0 ~kinds:Bytes.empty ~names:[||] ~values:[||] ~sizes:[||]
    ~levels:[||] ~parents:[||]

let create () = {
  mu = Mutex.create ();
  name_pool = Qname_pool.create ();
  text_pool = String_pool.create ();
  frags = Vec.create empty_frag;
  documents = [];
}

let[@inline] locked t f =
  Mutex.lock t.mu;
  match f () with
  | v -> Mutex.unlock t.mu; v
  | exception e -> Mutex.unlock t.mu; raise e

let n_frags t = Vec.length t.frags
let frag t i = Vec.get t.frags i

let encoded_bytes t = Vec.fold_left (fun acc f -> acc + frag_bytes f) 0 t.frags

(* -- name/text pools ----------------------------------------------------- *)

let intern_name t q = Qname_pool.intern t.name_pool q
let name_of_id t id = Qname_pool.get t.name_pool id

(* Name id for a node test: if the name never occurs in the store, return
   -2 which matches no node. *)
let name_test_id t q =
  match Qname_pool.find_opt t.name_pool q with
  | Some id -> id
  | None -> -2

let text_of_id t id = String_pool.get t.text_pool id

let text_pool t = t.text_pool

(* -- name-test-to-code translation ----------------------------------------- *)

(* Reverse probe: translate a name id into the fragment's local code, once
   per (name test, fragment), so the per-row test is an integer compare
   on the stored codes. [None] means the name cannot occur in this
   fragment — the test is decided without touching a single row.
   Dictionary scans are linear, but local dictionaries are small by
   construction (they only exist when they shrink the column) and the
   probe runs once per fragment, not per row. *)

let code_of_id dict id =
  if Array.length dict = 0 then Some (id + 1)
  else
    let n = Array.length dict in
    let rec find i =
      if i >= n then None
      else if Array.unsafe_get dict i = id then Some (i + 1)
      else find (i + 1)
    in
    find 0

let name_code_of_id f id = if id < 0 then None else code_of_id f.p_name_dict id

(* -- node accessors ------------------------------------------------------ *)

let kind t (n : Node_id.t) = kind_at (frag t (Node_id.frag n)) (Node_id.pre n)
let name_id t (n : Node_id.t) = name_at (frag t (Node_id.frag n)) (Node_id.pre n)
let size t (n : Node_id.t) = size_at (frag t (Node_id.frag n)) (Node_id.pre n)
let level t (n : Node_id.t) = level_at (frag t (Node_id.frag n)) (Node_id.pre n)

let name t n =
  let id = name_id t n in
  if id < 0 then None else Some (name_of_id t id)

let value t (n : Node_id.t) =
  let id = value_at (frag t (Node_id.frag n)) (Node_id.pre n) in
  if id < 0 then "" else text_of_id t id

let parent t (n : Node_id.t) =
  let p = parent_at (frag t (Node_id.frag n)) (Node_id.pre n) in
  if p < 0 then None else Some (Node_id.make ~frag:(Node_id.frag n) ~pre:p)

(* String value per XDM: elements and documents concatenate the text
   descendants in document order, other kinds carry their own value. *)
let string_value t (n : Node_id.t) =
  match kind t n with
  | Node_kind.Element | Node_kind.Document ->
    let f = frag t (Node_id.frag n) in
    let pre = Node_id.pre n in
    let buf = Buffer.create 32 in
    for p = pre + 1 to pre + size_at f pre do
      if kind_at f p = Node_kind.Text then
        Buffer.add_string buf (text_of_id t (value_at f p))
    done;
    Buffer.contents buf
  | Node_kind.Attribute | Node_kind.Text | Node_kind.Comment
  | Node_kind.Processing_instruction -> value t n

(* -- documents ----------------------------------------------------------- *)

let register_document t uri root =
  locked t (fun () -> t.documents <- (uri, root) :: t.documents)

let find_document t uri = locked t (fun () -> List.assoc_opt uri t.documents)

let documents t = locked t (fun () -> List.rev t.documents)

(* -- builder ------------------------------------------------------------- *)

module Builder = struct
  (* The fragment under construction, as word-per-cell columns (kind
     codes one byte per row) of a common capacity, [len] rows used. A
     caller that knows its row count presizes them ([create ?capacity]);
     otherwise they double. [freeze] packs them where they lie. *)
  type nonrec t = {
    store : t;
    mutable kinds : Bytes.t;
    mutable names : int array;
    mutable values : int array;
    mutable sizes : int array;
    mutable levels : int array;
    mutable parents : int array;
    mutable len : int;
    mutable stack : int list;      (* open nodes, innermost first *)
    mutable depth : int;           (* [List.length stack] *)
    mutable last_text : int;       (* pre of a trailing mergeable text node, -1 *)
    mutable last_qname : Qname.t;  (* the name [last_name_id] interns *)
    mutable last_name_id : int;
    mutable finished : bool;
  }

  let create ?(capacity = 16) store =
    let cap = max capacity 1 in
    {
      store;
      kinds = Bytes.create cap;
      names = Array.make cap 0;
      values = Array.make cap 0;
      sizes = Array.make cap 0;
      levels = Array.make cap 0;
      parents = Array.make cap 0;
      len = 0;
      stack = [];
      depth = 0;
      last_text = -1;
      last_qname = Qname.make "";
      last_name_id = -1;
      finished = false;
    }

  let length b = b.len

  (* Room for [k] more rows. *)
  let reserve b k =
    let cap = Bytes.length b.kinds in
    if b.len + k > cap then begin
      let cap = max (2 * cap) (b.len + k) in
      let grow a =
        let a' = Array.make cap 0 in
        Array.blit a 0 a' 0 b.len;
        a'
      in
      let kinds = Bytes.create cap in
      Bytes.blit b.kinds 0 kinds 0 b.len;
      b.kinds <- kinds;
      b.names <- grow b.names;
      b.values <- grow b.values;
      b.sizes <- grow b.sizes;
      b.levels <- grow b.levels;
      b.parents <- grow b.parents
    end

  let cur_parent b = match b.stack with [] -> -1 | p :: _ -> p

  (* A node's name id. A constructor that names many nodes with one
     [Qname.t] value interns it once. *)
  let name_id b q =
    if q != b.last_qname then begin
      b.last_name_id <- intern_name b.store q;
      b.last_qname <- q
    end;
    b.last_name_id

  let emit b kind name value =
    reserve b 1;
    let pre = b.len in
    Bytes.unsafe_set b.kinds pre (Char.unsafe_chr (Node_kind.to_int kind));
    b.names.(pre) <- name;
    b.values.(pre) <- value;
    b.sizes.(pre) <- 0;
    b.levels.(pre) <- b.depth;
    b.parents.(pre) <- cur_parent b;
    b.len <- pre + 1;
    pre

  let kind_of b pre = Node_kind.of_int (Char.code (Bytes.get b.kinds pre))

  let open_node b pre =
    b.stack <- pre :: b.stack;
    b.depth <- b.depth + 1

  let start_document b =
    b.last_text <- -1;
    open_node b (emit b Node_kind.Document (-1) (-1))

  let start_element b qname =
    b.last_text <- -1;
    open_node b (emit b Node_kind.Element (name_id b qname) (-1))

  (* Standalone attribute construction (computed attribute constructors
     yield parentless attribute nodes) is allowed on an empty stack. *)
  let check_attribute b =
    match b.stack with
    | [] -> ()
    | top :: _ ->
      if kind_of b top <> Node_kind.Element then
        Err.internal "Builder.attribute: owner is not an element";
      (* Attributes must precede any content of the open element. *)
      if b.len <> top + 1 && kind_of b (b.len - 1) <> Node_kind.Attribute then
        Err.dynamic "attribute node constructed after non-attribute content"

  let attribute b qname v =
    check_attribute b;
    let vid = String_pool.intern b.store.text_pool v in
    ignore (emit b Node_kind.Attribute (name_id b qname) vid)

  let attribute_id b qname vid =
    check_attribute b;
    ignore (emit b Node_kind.Attribute (name_id b qname) vid)

  (* Merge [s] into the trailing text node, as XDM requires after
     construction: the merged value is a new pool string. *)
  let merge b s =
    let old = text_of_id b.store b.values.(b.last_text) in
    b.values.(b.last_text) <- String_pool.intern b.store.text_pool (old ^ s)

  let text b s =
    if s <> "" then begin
      if b.last_text >= 0 then merge b s
      else
        b.last_text <-
          emit b Node_kind.Text (-1) (String_pool.intern b.store.text_pool s)
    end

  (* [text] of the pool string [vid]: a text node that starts a new node
     keeps the id, with nothing interned. *)
  let text_id b vid =
    let s = text_of_id b.store vid in
    if s <> "" then begin
      if b.last_text >= 0 then merge b s
      else b.last_text <- emit b Node_kind.Text (-1) vid
    end

  (* Emit a text node even when its value is empty and without merging:
     computed text constructors (text { "" }) create a node regardless. *)
  let force_text_id b vid =
    b.last_text <- -1;
    ignore (emit b Node_kind.Text (-1) vid)

  let force_text b s = force_text_id b (String_pool.intern b.store.text_pool s)

  let comment_id b vid =
    b.last_text <- -1;
    ignore (emit b Node_kind.Comment (-1) vid)

  let comment b s = comment_id b (String_pool.intern b.store.text_pool s)

  let pi b target content =
    b.last_text <- -1;
    let nid = intern_name b.store (Qname.make target) in
    ignore (emit b Node_kind.Processing_instruction nid
              (String_pool.intern b.store.text_pool content))

  let close b =
    match b.stack with
    | [] -> Err.internal "Builder: unbalanced end of node"
    | top :: rest ->
      b.sizes.(top) <- b.len - top - 1;
      b.stack <- rest;
      b.depth <- b.depth - 1;
      b.last_text <- -1

  let end_element b = close b
  let end_document b = close b

  (* Copy the subtree rooted at [pre0] of fragment [src] into the builder
     as one range: each packed column is decoded straight into the
     builder's column ([col_range]), then names and values are mapped
     through the fragment's dictionaries, levels shifted and parent
     pointers rebased. *)
  let copy_node b (src : frag) pre0 =
    b.last_text <- -1;
    let n = col_get src.p_sizes pre0 + 1 in
    reserve b n;
    let dst0 = b.len and hi = pre0 + n in
    Bytes.blit src.p_kinds pre0 b.kinds dst0 n;
    let decode col dict (a : int array) =
      col_range col pre0 hi a dst0;
      if Array.length dict = 0 then
        for i = dst0 to dst0 + n - 1 do
          Array.unsafe_set a i (Array.unsafe_get a i - 1)
        done
      else
        for i = dst0 to dst0 + n - 1 do
          let code = Array.unsafe_get a i in
          Array.unsafe_set a i (if code = 0 then -1 else dict.(code - 1))
        done
    in
    decode src.p_names src.p_name_dict b.names;
    decode src.p_values src.p_value_dict b.values;
    col_range src.p_sizes pre0 hi b.sizes dst0;
    let levels = b.levels in
    col_range src.p_levels pre0 hi levels dst0;
    let delta = b.depth - levels.(dst0) in
    if delta <> 0 then
      for i = dst0 to dst0 + n - 1 do
        Array.unsafe_set levels i (Array.unsafe_get levels i + delta)
      done;
    (* stored parents are pre + 1: row [pre0 + k]'s parent [p] lands at
       [p - pre0 + dst0] *)
    let parents = b.parents in
    col_range src.p_parents pre0 hi parents dst0;
    parents.(dst0) <- cur_parent b;
    let shift = dst0 - pre0 - 1 in
    for i = dst0 + 1 to dst0 + n - 1 do
      Array.unsafe_set parents i (Array.unsafe_get parents i + shift)
    done;
    b.len <- dst0 + n

  (* Deep-copy the subtree rooted at [n] (from any fragment of the same
     store) as content of the currently open node. Implements the node
     copying of XQuery constructors. Copying a text node merges with an
     adjacent text sibling; copying a document node copies its children. *)
  let copy b (n : Node_id.t) =
    let src = frag b.store (Node_id.frag n) in
    let pre0 = Node_id.pre n in
    match kind_at src pre0 with
    | Node_kind.Text -> text_id b (value_at src pre0)
    | Node_kind.Attribute ->
      check_attribute b;
      ignore
        (emit b Node_kind.Attribute (name_at src pre0) (value_at src pre0))
    | Node_kind.Document ->
      b.last_text <- -1;
      let p = ref (pre0 + 1) in
      let stop = pre0 + size_at src pre0 in
      while !p <= stop do
        if kind_at src !p = Node_kind.Text then text_id b (value_at src !p)
        else copy_node b src !p;
        p := !p + size_at src !p + 1
      done
    | Node_kind.Element | Node_kind.Comment | Node_kind.Processing_instruction ->
      copy_node b src pre0

  (* Freeze the builder into a new fragment and return its id. The freeze
     step is where the packed columns are built, straight from the
     builder's columns. The builder must be balanced and is dead
     afterwards. *)
  let freeze b =
    if b.finished then Err.internal "Builder.finish called twice";
    if b.stack <> [] then Err.internal "Builder.finish with open nodes";
    b.finished <- true;
    let n = b.len in
    let kinds =
      if Bytes.length b.kinds = n then b.kinds else Bytes.sub b.kinds 0 n
    in
    let f =
      pack_frag ~n ~kinds ~names:b.names ~values:b.values ~sizes:b.sizes
        ~levels:b.levels ~parents:b.parents
    in
    locked b.store (fun () ->
      let fid = Vec.length b.store.frags in
      Vec.push b.store.frags f;
      fid)

  (* [freeze], plus the node ids of the fragment's roots. *)
  let finish b =
    let fid = freeze b in
    let roots = Vec.create (-1) in
    let p = ref 0 in
    while !p < b.len do
      Vec.push roots !p;
      p := !p + b.sizes.(!p) + 1
    done;
    (fid, Array.map (fun pre -> Node_id.make ~frag:fid ~pre) (Vec.to_array roots))
end

(* -- total node count (for stats / benchmarks) --------------------------- *)

let total_nodes t =
  Vec.fold_left (fun acc f -> acc + frag_length f) 0 t.frags

(* -- snapshots ------------------------------------------------------------ *)

(* A versioned, checksummed on-disk image of a whole store. Layout:

     magic "XRQSNAP1" | u32 version
     qname pool   : u32 count | blob of (u32 plen, prefix, u32 llen, local)*
     text pool    : u32 count | blob of (u32 len, bytes)*
     documents    : u32 count | blob of (u32 len, uri, u32 frag, u32 pre)*
     fragments    : u32 count | per fragment:
                      u32 rows
                      kinds   : u8 width=1 | blob
                      names   : u8 width | blob ; u32 dict count | blob
                      values  : u8 width | blob ; u32 dict count | blob
                      sizes   : u8 width | blob
                      levels  : u8 width | blob
                      parents : u8 width | blob
     trailer "XRQEND1\n"

   where blob = u64 byte length | payload | u32 crc32(payload). Column
   payloads are the packed column bytes verbatim, so a fragment loads
   with one read per column and no re-encoding, and save -> load -> save
   is byte-identical. Pools are written in
   dense id order and re-interned in that order at load, reproducing ids
   exactly. All corruption — bad magic, version skew, truncation, a
   checksum mismatch, out-of-range structure — raises [Err.Dynamic_error]
   ("the input is bad", exit code 1); a failed load never publishes a
   partial store because the store is only returned after every section
   validated. *)
module Snapshot = struct
  let magic = "XRQSNAP1"
  let trailer = "XRQEND1\n"
  let format_version = 1

  (* CRC-32 (IEEE 802.3, reflected), table-driven. *)
  let crc_table = lazy (Array.init 256 (fun n ->
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    !c))

  let crc32 b ofs len =
    let t = Lazy.force crc_table in
    let c = ref 0xFFFFFFFF in
    for i = ofs to ofs + len - 1 do
      c := Array.unsafe_get t
             ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
           lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  (* --- writing --- *)

  type sink = Bytes.t -> int -> int -> unit

  let put_bytes (out : sink) b = out b 0 (Bytes.length b)
  let put_string out s = put_bytes out (Bytes.unsafe_of_string s)

  let put_u8 out v =
    let b = Bytes.create 1 in
    Bytes.set_uint8 b 0 v;
    put_bytes out b

  let put_u32 out v =
    if v < 0 || v > 0xFFFFFFFF then Err.internal "snapshot: u32 overflow (%d)" v;
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    put_bytes out b

  let put_u64 out v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    put_bytes out b

  let put_blob out payload =
    put_u64 out (Bytes.length payload);
    put_bytes out payload;
    put_u32 out (crc32 payload 0 (Bytes.length payload))

  let put_col out c =
    let width, payload =
      match c with C8 b -> (1, b) | C16 b -> (2, b) | C32 b -> (4, b)
    in
    put_u8 out width;
    put_blob out payload

  let put_dict out d =
    put_u32 out (Array.length d);
    let payload = Bytes.create (4 * Array.length d) in
    Array.iteri
      (fun i v -> Bytes.set_int32_le payload (4 * i) (Int32.of_int v)) d;
    put_blob out payload

  let add_u32 buf v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Buffer.add_bytes buf b

  let write (out : sink) t =
    (* Capture fragments and documents under the lock first, pool sizes
       after: every id referenced by a captured fragment was interned
       before that fragment finished, hence before the capture. *)
    let frags, docs =
      locked t (fun () ->
        (Array.init (Vec.length t.frags) (Vec.get t.frags),
         List.rev t.documents))
    in
    put_string out magic;
    put_u32 out format_version;
    (* qname pool, dense id order; prefix and local part separately so
       colons in either survive the round trip *)
    let n_names = Qname_pool.size t.name_pool in
    put_u32 out n_names;
    let buf = Buffer.create 1024 in
    for id = 0 to n_names - 1 do
      let q = Qname_pool.get t.name_pool id in
      let p = Qname.prefix q and l = Qname.local q in
      add_u32 buf (String.length p); Buffer.add_string buf p;
      add_u32 buf (String.length l); Buffer.add_string buf l
    done;
    put_blob out (Buffer.to_bytes buf);
    (* text pool *)
    let n_texts = String_pool.size t.text_pool in
    put_u32 out n_texts;
    let buf = Buffer.create 4096 in
    for id = 0 to n_texts - 1 do
      let s = String_pool.get t.text_pool id in
      add_u32 buf (String.length s); Buffer.add_string buf s
    done;
    put_blob out (Buffer.to_bytes buf);
    (* document registry, registration order *)
    put_u32 out (List.length docs);
    let buf = Buffer.create 256 in
    List.iter
      (fun (uri, n) ->
         add_u32 buf (String.length uri); Buffer.add_string buf uri;
         add_u32 buf (Node_id.frag n); add_u32 buf (Node_id.pre n))
      docs;
    put_blob out (Buffer.to_bytes buf);
    (* fragments *)
    put_u32 out (Array.length frags);
    Array.iter
      (fun p ->
         put_u32 out p.p_len;
         put_u8 out 1; put_blob out p.p_kinds;
         put_col out p.p_names; put_dict out p.p_name_dict;
         put_col out p.p_values; put_dict out p.p_value_dict;
         put_col out p.p_sizes;
         put_col out p.p_levels;
         put_col out p.p_parents)
      frags;
    put_string out trailer

  (* --- reading --- *)

  let corrupt fmt = Err.dynamic ("corrupt snapshot: " ^^ fmt)

  type source = {
    read_exact : Bytes.t -> int -> int -> unit;
    remaining : unit -> int; (* bytes left, for length sanity checks *)
  }

  let source_of_channel ic =
    { read_exact =
        (fun b ofs len ->
           try really_input ic b ofs len
           with End_of_file -> corrupt "truncated (unexpected end of file)");
      remaining = (fun () -> in_channel_length ic - pos_in ic) }

  let source_of_string s =
    let pos = ref 0 in
    { read_exact =
        (fun b ofs len ->
           if !pos + len > String.length s then
             corrupt "truncated (unexpected end of data)";
           Bytes.blit_string s !pos b ofs len;
           pos := !pos + len);
      remaining = (fun () -> String.length s - !pos) }

  let get_bytes src n =
    let b = Bytes.create n in
    src.read_exact b 0 n;
    b

  let get_u8 src = Bytes.get_uint8 (get_bytes src 1) 0

  let get_u32 src =
    Int32.to_int (Bytes.get_int32_le (get_bytes src 4) 0) land 0xFFFFFFFF

  let get_blob src =
    let len = Int64.to_int (Bytes.get_int64_le (get_bytes src 8) 0) in
    if len < 0 || len > src.remaining () then
      corrupt "section length %d exceeds remaining input" len;
    let payload = get_bytes src len in
    let stored = get_u32 src in
    let actual = crc32 payload 0 len in
    if stored <> actual then
      corrupt "checksum mismatch (stored %08lx, computed %08lx)"
        (Int32.of_int stored) (Int32.of_int actual);
    payload

  let get_col src rows =
    let width = get_u8 src in
    let payload = get_blob src in
    if Bytes.length payload <> rows * width then
      corrupt "column has %d bytes, expected %d rows at width %d"
        (Bytes.length payload) rows width;
    match width with
    | 1 -> C8 payload
    | 2 -> C16 payload
    | 4 -> C32 payload
    | w -> corrupt "invalid column width %d" w

  let get_dict src =
    let k = get_u32 src in
    let payload = get_blob src in
    if Bytes.length payload <> 4 * k then
      corrupt "dictionary has %d bytes, expected %d entries"
        (Bytes.length payload) k;
    Array.init k
      (fun i -> Int32.to_int (Bytes.get_int32_le payload (4 * i)) land 0xFFFFFFFF)

  (* Cursor over a validated section payload. *)
  let c_u32 payload pos =
    if !pos + 4 > Bytes.length payload then corrupt "section truncated";
    let v = Int32.to_int (Bytes.get_int32_le payload !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v

  let c_str payload pos n =
    if n < 0 || !pos + n > Bytes.length payload then corrupt "section truncated";
    let s = Bytes.sub_string payload !pos n in
    pos := !pos + n;
    s

  let c_end payload pos what =
    if !pos <> Bytes.length payload then corrupt "trailing bytes in %s section" what

  (* Bounds-validate one loaded fragment so that no accessor, axis scan or
     serialization over it can index out of range: kind codes, dictionary
     codes, pool ids, subtree extents and parent pointers are all checked.
     Structural coherence beyond bounds (size nesting, level arithmetic)
     is the byte-identity tests' job, not the loader's. *)
  let validate_frag p ~n_names ~n_texts =
    let rows = p.p_len in
    Array.iter
      (fun id -> if id < 0 || id >= n_names then corrupt "name dictionary entry out of range")
      p.p_name_dict;
    Array.iter
      (fun id -> if id < 0 || id >= n_texts then corrupt "text dictionary entry out of range")
      p.p_value_dict;
    let nk = Array.length p.p_name_dict in
    let vk = Array.length p.p_value_dict in
    for pre = 0 to rows - 1 do
      let k = Char.code (Bytes.get p.p_kinds pre) in
      if k > 5 then corrupt "invalid node kind code %d" k;
      let nc = col_get p.p_names pre in
      if (if nk > 0 then nc > nk else nc > n_names) then
        corrupt "name code out of range at row %d" pre;
      let vc = col_get p.p_values pre in
      if (if vk > 0 then vc > vk else vc > n_texts) then
        corrupt "text code out of range at row %d" pre;
      if pre + col_get p.p_sizes pre > rows - 1 then
        corrupt "subtree size out of range at row %d" pre;
      if col_get p.p_parents pre > rows then
        corrupt "parent out of range at row %d" pre
    done

  let read src =
    let m = get_bytes src (String.length magic) in
    if not (Bytes.equal m (Bytes.of_string magic)) then
      corrupt "bad magic (not a snapshot file)";
    let v = get_u32 src in
    if v <> format_version then
      Err.dynamic
        "corrupt snapshot: unsupported format version %d (this build reads %d)"
        v format_version;
    let st = create () in
    (* qname pool *)
    let n_names = get_u32 src in
    let payload = get_blob src in
    let pos = ref 0 in
    for id = 0 to n_names - 1 do
      let p = c_str payload pos (c_u32 payload pos) in
      let l = c_str payload pos (c_u32 payload pos) in
      if intern_name st (Qname.make ~prefix:p l) <> id then
        corrupt "duplicate qname pool entry"
    done;
    c_end payload pos "qname pool";
    (* text pool *)
    let n_texts = get_u32 src in
    let payload = get_blob src in
    let pos = ref 0 in
    for id = 0 to n_texts - 1 do
      let s = c_str payload pos (c_u32 payload pos) in
      if String_pool.intern st.text_pool s <> id then
        corrupt "duplicate text pool entry"
    done;
    c_end payload pos "text pool";
    (* document registry (applied after fragments are known) *)
    let n_docs = get_u32 src in
    let payload = get_blob src in
    let pos = ref 0 in
    let docs = ref [] in
    for _ = 1 to n_docs do
      let uri = c_str payload pos (c_u32 payload pos) in
      let fid = c_u32 payload pos in
      let pre = c_u32 payload pos in
      docs := (uri, fid, pre) :: !docs
    done;
    let docs = List.rev !docs in
    c_end payload pos "document registry";
    (* fragments: decode and validate everything before publishing any *)
    let nf = get_u32 src in
    let frags = ref [] in
    for _ = 1 to nf do
      let rows = get_u32 src in
      let kw = get_u8 src in
      if kw <> 1 then corrupt "invalid kind column width %d" kw;
      let kinds = get_blob src in
      if Bytes.length kinds <> rows then
        corrupt "kind column has %d bytes, expected %d rows"
          (Bytes.length kinds) rows;
      let names = get_col src rows in
      let name_dict = get_dict src in
      let values = get_col src rows in
      let value_dict = get_dict src in
      let sizes = get_col src rows in
      let levels = get_col src rows in
      let parents = get_col src rows in
      let p = {
        p_len = rows; p_kinds = kinds;
        p_names = names; p_name_dict = name_dict;
        p_values = values; p_value_dict = value_dict;
        p_sizes = sizes; p_levels = levels; p_parents = parents;
      } in
      validate_frag p ~n_names ~n_texts;
      frags := p :: !frags
    done;
    let frags = List.rev !frags in
    let tr = get_bytes src (String.length trailer) in
    if not (Bytes.equal tr (Bytes.of_string trailer)) then
      corrupt "bad trailer";
    if src.remaining () <> 0 then corrupt "trailing garbage after snapshot";
    (* everything validated: publish *)
    List.iter (Vec.push st.frags) frags;
    List.iter
      (fun (uri, fid, pre) ->
         if fid >= nf then corrupt "document fragment id out of range";
         if pre >= frag_length (frag st fid) then
           corrupt "document root out of range";
         register_document st uri (Node_id.make ~frag:fid ~pre))
      docs;
    st

  (* --- public entry points --- *)

  let save t path =
    let tmp = path ^ ".tmp" in
    let oc =
      try open_out_bin tmp
      with Sys_error m -> Err.dynamic "cannot write snapshot: %s" m
    in
    (try write (fun b ofs len -> output oc b ofs len) t
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    close_out oc;
    Sys.rename tmp path

  let load path =
    let ic =
      try open_in_bin path
      with Sys_error m -> Err.dynamic "cannot open snapshot: %s" m
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic)
      (fun () -> read (source_of_channel ic))

  let to_string t =
    let buf = Buffer.create 4096 in
    write (fun b ofs len -> Buffer.add_subbytes buf b ofs len) t;
    Buffer.contents buf

  let of_string s = read (source_of_string s)
end

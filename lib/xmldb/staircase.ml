(* Staircase-join style XPath axis evaluation over the pre/size/level
   encoding (Grust/van Keulen/Teubner, VLDB 2003 — reference [12] of the
   paper). This is the implementation behind the algebraic step operator
   "⊘ ax::nt": per iteration, it consumes an arbitrary set of context
   nodes and returns a duplicate-free set of result nodes in document
   order, and one call evaluates every iteration of an iter|item table
   (the loop-lifted walk at the end of this file).

   The staircase tricks used:
     - contexts are sorted by (frag, pre) and deduplicated up front;
     - [descendant]/[descendant-or-self] prune context nodes whose subtree
       is covered by an earlier context ("pruning"), making the scan of
       the pre range emit each result exactly once, already sorted;
     - [following] only needs the earliest context per fragment;
     - [preceding] only needs the latest context per fragment;
   axes whose per-context results can interleave (parent, ancestor,
   siblings, child with nested contexts) fall back to collect + sort +
   adjacent-dedup, which is still O(out log out). *)

open Basis

(* Sort the context set and group it per fragment: (fragment id, sorted
   deduplicated context pres) in ascending fragment order. *)
let group_contexts (nodes : Node_id.t array) : (int * int array) list =
  let sorted = Array.copy nodes in
  Array.sort Node_id.compare sorted;
  let groups = ref [] and cur = ref [] and cur_frag = ref (-1) in
  let flush () =
    if !cur <> [] then
      groups := (!cur_frag, Array.of_list (List.rev !cur)) :: !groups
  in
  Array.iter
    (fun n ->
       let f = Node_id.frag n and p = Node_id.pre n in
       if f <> !cur_frag then begin flush (); cur_frag := f; cur := [ p ] end
       else match !cur with
         | q :: _ when q = p -> () (* duplicate *)
         | _ -> cur := p :: !cur)
    sorted;
  flush ();
  List.rev !groups

let principal_kind (axis : Axis.t) =
  match axis with
  | Axis.Attribute -> Node_kind.Attribute
  | _ -> Node_kind.Element

(* A node test resolved against the store once per step call: every name
   test becomes the node kind it selects plus the name id the row must
   carry. A name test selects the axis' principal kind; a PI target test
   selects processing instructions, whose target is stored as their
   name. *)
type rtest =
  | R_any                          (* node() *)
  | R_kind of Node_kind.t          (* kind test, or "*" on the principal kind *)
  | R_name of Node_kind.t * int    (* rows of this kind carrying this name *)

let resolve_test store (axis : Axis.t) (test : Node_test.t) =
  match test with
  | Node_test.Any_node -> R_any
  | Node_test.Kind k -> R_kind k
  | Node_test.Name_wild -> R_kind (principal_kind axis)
  | Node_test.Name id -> R_name (principal_kind axis, id)
  | Node_test.Pi_target t ->
    R_name
      ( Node_kind.Processing_instruction,
        Doc_store.name_test_id store (Qname.make t) )

let matches (f : Doc_store.frag) test pre =
  match test with
  | R_any -> true
  | R_kind k -> Node_kind.equal (Doc_store.kind_at f pre) k
  | R_name (k, id) ->
    Node_kind.equal (Doc_store.kind_at f pre) k && Doc_store.name_at f pre = id

(* -- batched contiguous scans --------------------------------------------- *)

(* The three axes whose staircase form is one contiguous pre-range scan
   ([descendant](-or-self), [following], [preceding]) can consume the
   store's bulk range accessors: decode a window of the kind column (and
   the raw name-code column when the test is a name test) in one pass,
   then run a branch-light match loop over the scratch buffers. The node
   test is translated to the fragment's dictionary code once per
   (step, fragment), so a name test is an integer compare per row — no
   per-row dictionary expansion, no string in sight. Results are
   bit-identical to the scalar loops.

   The caller may pass a [decoded] counter, owned by its run, that
   receives one count per column row the scan decodes. Counting per row
   (not per window) keeps the figure independent of how a run splits its
   work, and a per-run counter keeps concurrent runs out of each other's
   counts. *)

let window = 4096
let batch_threshold = 64 (* below this a windowed decode is pure overhead *)

type scratch = {
  kbuf : Node_kind.t array;  (* kinds of the current window *)
  cbuf : int array;          (* raw local name codes *)
  sbuf : int array;          (* subtree sizes (preceding only) *)
  decoded : int Atomic.t option;  (* the run's bulk-decode counter *)
}

let mk_scratch decoded = {
  kbuf = Array.make window Node_kind.Text;
  cbuf = Array.make window 0;
  sbuf = Array.make window 0;
  decoded;
}

(* A node test translated against one fragment's dictionary. *)
type tr_test =
  | T_none                        (* cannot match any row of this fragment *)
  | T_any                         (* any non-attribute row *)
  | T_kind of Node_kind.t
  | T_name of Node_kind.t * int   (* rows of this kind carrying this code *)

let translate f test : tr_test =
  match test with
  | R_any -> T_any
  | R_kind k | R_name (k, _) when Node_kind.equal k Node_kind.Attribute ->
    T_none (* the batched axes never yield attribute rows *)
  | R_kind k -> T_kind k
  | R_name (k, id) ->
    (match Doc_store.name_code_of_id f id with
     | Some c -> T_name (k, c)
     | None -> T_none)

(* Emit every p in [lo, hi] (inclusive) that is not an attribute row and
   satisfies [tr]; with [~before_ctx:(Some mc)], additionally require
   [p + size(p) < mc] (the [preceding] non-ancestor condition). *)
let scan_batched scr f tr lo hi ~before_ctx emit =
  let w0 = ref lo in
  while !w0 <= hi do
    let w1 = min (hi + 1) (!w0 + window) in (* exclusive *)
    Doc_store.kinds_range f !w0 w1 scr.kbuf;
    (match tr with
     | T_name _ -> Doc_store.name_codes_range f !w0 w1 scr.cbuf
     | _ -> ());
    (match before_ctx with
     | Some _ -> Doc_store.sizes_range f !w0 w1 scr.sbuf
     | None -> ());
    let base = !w0 in
    let len = w1 - base in
    for i = 0 to len - 1 do
      let k = Array.unsafe_get scr.kbuf i in
      if (not (Node_kind.equal k Node_kind.Attribute))
         && (match before_ctx with
             | None -> true
             | Some mc -> base + i + Array.unsafe_get scr.sbuf i < mc)
         && (match tr with
             | T_any -> true
             | T_kind k' -> Node_kind.equal k k'
             | T_name (k', c) ->
               Node_kind.equal k k' && Array.unsafe_get scr.cbuf i = c
             | T_none -> false)
      then emit (base + i)
    done;
    w0 := w1
  done;
  Option.iter
    (fun c ->
       let cols =
         1
         + (match tr with T_name _ -> 1 | _ -> 0)
         + (match before_ctx with Some _ -> 1 | None -> 0)
       in
       ignore (Atomic.fetch_and_add c (cols * (hi + 1 - lo))))
    scr.decoded

(* -- the output buffer ---------------------------------------------------- *)

(* One loop-lifted call writes its result rows in place: row [k < len]
   is result [pre.(k)] of fragment [frag.(k)] in iteration [iter.(k)].
   A slice's evaluation stores only pres ([emit]); the walk then tags
   the slice's rows with their iter and fragment ([tag]), so the scan
   loops write one int per result. The three arrays grow separately:
   a single large slice grows [pre] while it is scanned and the other
   two once, to its size. *)
type out = {
  mutable o_iter : int array;
  mutable o_frag : int array;
  mutable o_pre : int array;
  mutable len : int;
}

let out_create cap =
  { o_iter = Array.make cap 0; o_frag = Array.make cap 0;
    o_pre = Array.make cap 0; len = 0 }

(* [a], or a copy of its first [keep] ints with room for [need]. *)
let grown a need keep =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 keep;
    b
  end

let emit o pre =
  if o.len = Array.length o.o_pre then
    o.o_pre <- grown o.o_pre (o.len + 1) o.len;
  Array.unsafe_set o.o_pre o.len pre;
  o.len <- o.len + 1

(* Tag the rows from [start] on as iteration [it]'s, in fragment [f]. *)
let tag o start it f =
  o.o_iter <- grown o.o_iter o.len start;
  o.o_frag <- grown o.o_frag o.len start;
  Array.fill o.o_iter start (o.len - start) it;
  Array.fill o.o_frag start (o.len - start) f

(* One fragment's share of one iteration: [ctxs] are its context pres,
   ascending and duplicate-free. Result pres are emitted into [out]; the
   return value says whether they came out ascending and duplicate-free.
   [scr] is the call's lazily allocated scan scratch ([None]: batching
   off, or not a contiguous-range axis). *)
let eval_group scr store (axis : Axis.t) test frag_id (ctxs : int array) out =
  let f = Doc_store.frag store frag_id in
  let n = Doc_store.frag_length f in
  let m pre = matches f test pre in
  let emit pre = emit out pre in
  let size_ pre = Doc_store.size_at f pre in
  let parent_ pre = Doc_store.parent_at f pre in
  let is_attr pre =
    Node_kind.equal (Doc_store.kind_at f pre) Node_kind.Attribute in
  let tr = lazy (translate f test) in
  (* Try the bulk-decoding scan for a contiguous range; false = caller
     falls back to the scalar loop (batching off, or range too small to
     amortize the window setup). *)
  let batched lo hi ~before_ctx =
    match scr with
    | Some s when hi - lo >= batch_threshold ->
      (match Lazy.force tr with
       | T_none -> ()
       | t -> scan_batched (Lazy.force s) f t lo hi ~before_ctx emit);
      true
    | _ -> false
  in
  let sorted_output = ref true in
  (match axis with
   | Axis.Self ->
     Array.iter (fun pre -> if m pre then emit pre) ctxs
   | Axis.Child ->
     (* Nested contexts make per-context child runs interleave. *)
     let covered_end = ref (-1) in
     Array.iter
       (fun pre ->
          if pre <= !covered_end then sorted_output := false;
          covered_end := max !covered_end (pre + size_ pre);
          let p = ref (pre + 1) in
          let stop = pre + size_ pre in
          while !p <= stop do
            if is_attr !p then incr p
            else begin
              if m !p then emit !p;
              p := !p + size_ !p + 1
            end
          done)
       ctxs
   | Axis.Attribute ->
     Array.iter
       (fun pre ->
          if Node_kind.equal (Doc_store.kind_at f pre) Node_kind.Element then begin
            let p = ref (pre + 1) in
            while !p < n && is_attr !p do
              if m !p then emit !p;
              incr p
            done
          end)
       ctxs
   | Axis.Descendant | Axis.Descendant_or_self ->
     (* staircase pruning: skip the part of the scan already covered *)
     let covered_end = ref (-1) in
     Array.iter
       (fun pre ->
          if axis = Axis.Descendant_or_self && is_attr pre then begin
            (* an attribute context contributes only itself; it may land
               after nodes already emitted by a covering ancestor scan *)
            if pre <= !covered_end then sorted_output := false;
            if m pre then emit pre
          end else begin
            let lo =
              if axis = Axis.Descendant_or_self then pre else pre + 1 in
            let lo = max lo (!covered_end + 1) in
            let hi = pre + size_ pre in
            (* the context row itself is never an attribute here (attribute
               contexts took the special branch), so the batched scan's
               uniform skip-attributes rule coincides with the scalar
               or-self condition *)
            if not (batched lo hi ~before_ctx:None) then
              for p = lo to hi do
                if (axis = Axis.Descendant_or_self && p = pre) || not (is_attr p)
                then (if m p then emit p)
              done;
            covered_end := max !covered_end hi
          end)
       ctxs
   | Axis.Parent ->
     sorted_output := false;
     Array.iter
       (fun pre ->
          let pa = parent_ pre in
          if pa >= 0 && m pa then emit pa)
       ctxs
   | Axis.Ancestor | Axis.Ancestor_or_self ->
     sorted_output := false;
     Array.iter
       (fun pre ->
          if axis = Axis.Ancestor_or_self && m pre then emit pre;
          let p = ref (parent_ pre) in
          while !p >= 0 do
            if m !p then emit !p;
            p := parent_ !p
          done)
       ctxs
   | Axis.Following_sibling ->
     sorted_output := false;
     Array.iter
       (fun pre ->
          if not (is_attr pre) && parent_ pre >= 0 then begin
            let parent = parent_ pre in
            let stop = parent + size_ parent in
            let p = ref (pre + size_ pre + 1) in
            while !p <= stop do
              if is_attr !p then incr p
              else begin
                if m !p then emit !p;
                p := !p + size_ !p + 1
              end
            done
          end)
       ctxs
   | Axis.Preceding_sibling ->
     sorted_output := false;
     Array.iter
       (fun pre ->
          if not (is_attr pre) && parent_ pre >= 0 then begin
            let parent = parent_ pre in
            let p = ref (parent + 1) in
            while !p < pre do
              if is_attr !p then incr p
              else begin
                if m !p then emit !p;
                p := !p + size_ !p + 1
              end
            done
          end)
       ctxs
   | Axis.Following ->
     (* only the earliest context matters: its following set covers all *)
     if Array.length ctxs > 0 then begin
       let start =
         Array.fold_left
           (fun acc pre -> min acc (pre + size_ pre + 1))
           max_int ctxs
       in
       if not (batched start (n - 1) ~before_ctx:None) then
         for p = start to n - 1 do
           if (not (is_attr p)) && m p then emit p
         done
     end
   | Axis.Preceding ->
     (* p precedes some context iff it precedes the latest one and is not
        one of its ancestors: max_ctx > p + size(p) *)
     if Array.length ctxs > 0 then begin
       let max_ctx = ctxs.(Array.length ctxs - 1) in
       if not (batched 0 (max_ctx - 1) ~before_ctx:(Some max_ctx)) then
         for p = 0 to max_ctx - 1 do
           if p + size_ p < max_ctx && (not (is_attr p)) && m p then emit p
         done
     end);
  !sorted_output

(* Sort + adjacent-dedup a Vec of node ids in place (returns fresh array). *)
let sort_dedup (v : Node_id.t Vec.t) =
  let a = Vec.to_array v in
  Array.sort Node_id.compare a;
  let out = Vec.create (Node_id.make ~frag:0 ~pre:0) ~capacity:(Array.length a) in
  Array.iter
    (fun n ->
       if Vec.length out = 0 || not (Node_id.equal (Vec.last out) n) then
         Vec.push out n)
    a;
  Vec.to_array out

(* -- loop-lifted evaluation ------------------------------------------------ *)

(* The step operator consumes a whole iter|item table (the paper's ⊘):
   [drive] evaluates every iteration in one pass over (iter, frag, pre)
   rows whose iters are non-decreasing, so each iteration is one run of
   consecutive rows. Rows come out run by run, in input order; within a
   run, in document order without duplicates — exactly what evaluating
   the runs one by one and tagging each result with its iter gives.

   A run already strictly ascending in document order (always so for a
   one-row run) is cut into per-fragment slices as it stands; any other
   run is sorted and deduplicated first. Every fragment's slice goes
   through [group], which emits result pres into the call's output; a
   slice whose results come back unsorted is sort-deduplicated in
   place. A one-row run's context goes to [group] in one shared
   one-slot array, with no [Array.sub]. *)

type rows = { iter : int array; frag : int array; pre : int array }

type group_eval = int -> int array -> out -> bool

(* Sort and adjacent-dedup the pres from [start] on. *)
let sort_dedup_tail o start =
  let seg = Array.sub o.o_pre start (o.len - start) in
  Array.sort Int.compare seg;
  o.len <- start;
  Array.iteri (fun k p -> if k = 0 || seg.(k - 1) <> p then emit o p) seg

let drive (group : group_eval) (r : rows) : rows =
  let n = Array.length r.iter in
  let o = out_create (max n 16) in
  let slice it f ctxs =
    let start = o.len in
    if not (group f ctxs o) then sort_dedup_tail o start;
    tag o start it f
  in
  let one = [| 0 |] in
  let i = ref 0 in
  while !i < n do
    let it = r.iter.(!i) in
    let j = ref (!i + 1) and ascending = ref true in
    while !j < n && r.iter.(!j) = it do
      let f0 = r.frag.(!j - 1) and f1 = r.frag.(!j) in
      if f1 < f0 || (f1 = f0 && r.pre.(!j) <= r.pre.(!j - 1)) then
        ascending := false;
      incr j
    done;
    if !j < n && r.iter.(!j) < it then
      Err.internal "Staircase.drive: iters are not non-decreasing";
    if !j = !i + 1 then begin
      one.(0) <- r.pre.(!i);
      slice it r.frag.(!i) one
    end
    else if !ascending then begin
      let k = ref !i in
      while !k < !j do
        let f = r.frag.(!k) in
        let e = ref (!k + 1) in
        while !e < !j && r.frag.(!e) = f do incr e done;
        slice it f (Array.sub r.pre !k (!e - !k));
        k := !e
      done
    end
    else begin
      let i0 = !i in
      let nodes =
        Array.init (!j - i0) (fun d ->
            Node_id.make ~frag:r.frag.(i0 + d) ~pre:r.pre.(i0 + d))
      in
      List.iter (fun (f, ctxs) -> slice it f ctxs) (group_contexts nodes)
    end;
    i := !j
  done;
  let fit a = if Array.length a = o.len then a else Array.sub a 0 o.len in
  { iter = fit o.o_iter; frag = fit o.o_frag; pre = fit o.o_pre }

let of_nodes (contexts : Node_id.t array) =
  { iter = Array.make (Array.length contexts) 0;
    frag = Array.map Node_id.frag contexts;
    pre = Array.map Node_id.pre contexts }

let to_nodes r =
  Array.init (Array.length r.pre) (fun k ->
      Node_id.make ~frag:r.frag.(k) ~pre:r.pre.(k))

let step_lifted ?(batch = true) ?decoded store (axis : Axis.t)
    (test : Node_test.t) rows =
  let scr =
    match (batch, axis) with
    | true, (Axis.Descendant | Axis.Descendant_or_self
            | Axis.Following | Axis.Preceding) ->
      Some (lazy (mk_scratch decoded))
    | _ -> None
  in
  drive (eval_group scr store axis (resolve_test store axis test)) rows

let step ?batch ?decoded store axis test contexts =
  to_nodes (step_lifted ?batch ?decoded store axis test (of_nodes contexts))

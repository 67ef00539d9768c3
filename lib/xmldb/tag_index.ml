(* Tag-name indexed step evaluation — the "element streams" alternative
   implementation of the step operator that the paper attributes to
   TwigStack [5] (Section 3: "Several existing XPath step evaluation
   techniques may be plugged in to realize ⊘").

   For every (fragment, tag name) pair touched, the index materializes the
   sorted array of preorder ranks carrying that name (elements and
   attributes indexed separately, matching the principal node kind).
   Descendant steps then binary-search the stream for each context
   subtree instead of scanning the pre range — a large win for selective
   tags in wide documents; child steps additionally filter the stream by
   parent. Axes and tests outside this profile fall back to the
   staircase scan. *)

open Basis

type t = {
  store : Doc_store.t;
  (* (frag, name id, attr?) -> sorted pres *)
  streams : (int * int * bool, int array) Hashtbl.t;
}

let create store = { store; streams = Hashtbl.create 64 }

let stream t frag_id name_id ~attr =
  let key = (frag_id, name_id, attr) in
  match Hashtbl.find_opt t.streams key with
  | Some s -> s
  | None ->
    let f = Doc_store.frag t.store frag_id in
    let acc = Vec.create 0 in
    let wanted_kind =
      if attr then Node_kind.Attribute else Node_kind.Element
    in
    for pre = 0 to Doc_store.frag_length f - 1 do
      if Doc_store.name_at f pre = name_id
         && Node_kind.equal (Doc_store.kind_at f pre) wanted_kind
      then Vec.push acc pre
    done;
    let s = Vec.to_array acc in
    Hashtbl.add t.streams key s;
    s

(* Index of the first stream element >= x. *)
let lower_bound (s : int array) x =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Does the (axis, test) profile have an indexed implementation? *)
let applicable (axis : Axis.t) (test : Node_test.t) =
  match (axis, test) with
  | (Axis.Child | Axis.Descendant | Axis.Descendant_or_self | Axis.Attribute),
    Node_test.Name _ -> true
  | _ -> false

(* One fragment's share of one iteration (a [Staircase.group_eval]):
   results are ascending and duplicate-free except for child steps over
   nested contexts, which say so. *)
let eval_group t (axis : Axis.t) name_id frag_id (ctxs : int array) out =
  let f = Doc_store.frag t.store frag_id in
  let s = stream t frag_id name_id ~attr:(axis = Axis.Attribute) in
  let emit pre = Staircase.emit out pre in
  match axis with
  | Axis.Descendant | Axis.Descendant_or_self ->
    (* staircase pruning over the streams: never rescan a region *)
    let covered_end = ref (-1) in
    Array.iter
      (fun pre ->
         let hi = pre + Doc_store.size_at f pre in
         let lo =
           if axis = Axis.Descendant_or_self then pre else pre + 1
         in
         let lo = max lo (!covered_end + 1) in
         let i = ref (lower_bound s lo) in
         while !i < Array.length s && s.(!i) <= hi do
           emit s.(!i);
           incr i
         done;
         covered_end := max !covered_end hi)
      ctxs;
    true
  | Axis.Child ->
    (* stream positions inside the subtree whose parent is the context
       node *)
    let last = ref (-1) in
    let sorted = ref true in
    Array.iter
      (fun pre ->
         let hi = pre + Doc_store.size_at f pre in
         let i = ref (lower_bound s (pre + 1)) in
         while !i < Array.length s && s.(!i) <= hi do
           if Doc_store.parent_at f s.(!i) = pre then begin
             if s.(!i) < !last then sorted := false;
             last := s.(!i);
             emit s.(!i)
           end;
           incr i
         done)
      ctxs;
    !sorted
  | Axis.Attribute ->
    Array.iter
      (fun pre ->
         (* attributes sit immediately after their owner *)
         let i = ref (lower_bound s (pre + 1)) in
         let continue_ = ref true in
         while !continue_ && !i < Array.length s do
           let p = s.(!i) in
           if Doc_store.parent_at f p = pre then begin
             emit p;
             incr i
           end
           else if p <= pre + Doc_store.size_at f pre then incr i
           else continue_ := false
         done)
      ctxs;
    true
  | _ -> Err.internal "Tag_index.step: unsupported axis"

(* Indexed evaluation through the staircase's loop-lifted walk; same
   contract as Staircase.step_lifted. The caller guarantees
   [applicable]. *)
let step_lifted t (axis : Axis.t) (test : Node_test.t) rows =
  let name_id =
    match test with
    | Node_test.Name id -> id
    | _ -> Err.internal "Tag_index.step: name test expected"
  in
  if name_id < 0 then { Staircase.iter = [||]; frag = [||]; pre = [||] }
  else Staircase.drive (eval_group t axis name_id) rows

let step t axis test contexts =
  Staircase.to_nodes (step_lifted t axis test (Staircase.of_nodes contexts))

(* The plan-property analysis: one record per plan node, one propagation
   rule per operator.

   A record answers two questions about a node's output table.

   What VALUES can its columns hold?
     - schema: the static column set;
     - consts: columns carrying one known value on every row;
     - keys: columns whose values are pairwise distinct;
     - one_row: at most one row (zero rows included);
     - arbitrary: columns born from # (Rowid), whose numbers carry no
       semantic order — the paper's Section 7 turns a % whose criteria
       are all arbitrary into a free #.

   In what ORDER do its rows come out? A fact is a lexicographic
   sortedness claim: the rows, in physical row order, are non-strictly
   sorted by a list of (column, direction) keys under
   [Value.compare_total]. Physical row order is deterministic and
   identical across the reference executor, the physical kernels and
   every morsel width, so one analysis serves every backend. Every fact
   encodes a row-order invariant of the kernels themselves, never the
   query's ordering mode:

     - the staircase/tag-index step emits, per input row group, result
       nodes in document order, groups in first-seen iter order — so an
       iter-sorted input yields (iter, item)-sorted output;
     - # (Rowid) appends a 1..n stamp in row order: a sorted key;
     - @ (Attach), Fun*, % (Rownum) append a column and keep the carrier
       rows in place;
     - equi-joins and × probe the left side in row order (left-major
       pair order), so the outer side's facts survive;
     - Union is an append: facts die (each side stays a sorted run,
       which a surviving [%] observes at run time and merges);
     - Select/Distinct/Semijoin/Antijoin emit a subsequence of their
       (left) input, and subsequences of sorted rows stay sorted.

   Keys, consts and facts license rewrites (keyed δ elision, % criteria
   dropping, sort elision), so every rule must be exact: a missing fact
   costs a sort that was already paid for, a wrong one changes
   answers. Facts are computed only when asked for: column dependency
   analysis and the rewriter read the value half on every round and do
   not need them. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type req = (Plan.col * Plan.dir) list

type t = {
  schema : SSet.t;
  consts : Value.t SMap.t;
  keys : SSet.t;
  one_row : bool;
  arbitrary : SSet.t;
  facts : req list Lazy.t;
}

(* ----------------------------------------------------- order reasoning *)

(* Keep the analysis O(plan size): a handful of short facts per node. *)
let max_facts = 8
let max_fact_len = 4

let clip facts =
  List.filteri (fun i _ -> i < max_facts) facts
  |> List.map (fun f -> List.filteri (fun i _ -> i < max_fact_len) f)
  |> List.sort_uniq compare

(* Constant columns are order-neutral: all rows carry one value, so they
   can be dropped both from a requirement and from a fact. *)
let strip_consts consts l =
  List.filter (fun (c, _) -> not (SMap.mem c consts)) l

(* Does [fact] prove [req]? Walk matching (col, dir) prefixes; a matched
   key column sorts strictly, pinning every remaining requirement key. *)
let fact_proves keys fact req =
  let rec go fact req =
    match req with
    | [] -> true
    | (c, d) :: req' -> (
      match fact with
      | [] -> false
      | (fc, fd) :: fact' ->
        String.equal fc c && fd = d && (SSet.mem c keys || go fact' req'))
  in
  go fact req

let proves p req =
  p.one_row
  ||
  let req = strip_consts p.consts req in
  req = []
  || List.exists
       (fun f -> fact_proves p.keys (strip_consts p.consts f) req)
       (Lazy.force p.facts)

(* Facts truncated at the first column [kept] rejects (a prefix of a lex
   ordering is a lex ordering). *)
let truncate_facts kept facts =
  List.map
    (fun f ->
       let rec go acc = function
         | (c, d) :: rest when kept c -> go ((c, d) :: acc) rest
         | _ -> List.rev acc
       in
       go [] f)
    facts
  |> List.filter (fun f -> f <> [])

(* Rename a fact through a projection; it survives as its longest
   projected prefix. *)
let remap_fact cols fact =
  let rec go acc = function
    | [] -> List.rev acc
    | (c, d) :: rest -> (
      match List.find_opt (fun (_, src) -> String.equal src c) cols with
      | Some (nw, _) -> go ((nw, d) :: acc) rest
      | None -> List.rev acc)
  in
  go [] fact

(* ---------------------------------------------------------- propagation *)

let only cols m = SMap.filter (fun c _ -> SSet.mem c cols) m

let iter_only = SSet.singleton "iter"

(* Exact single-column facts of a literal table (loop relations, small
   constant sequences), bounded so the analysis stays linear on big
   literals. *)
let lit_props schema rows =
  let nrows = List.length rows in
  let base =
    { schema = SSet.of_list (Array.to_list schema); consts = SMap.empty;
      keys = SSet.empty; one_row = nrows <= 1; arbitrary = SSet.empty;
      facts = Lazy.from_val [] }
  in
  if nrows = 0 || nrows > 64 then base
  else begin
    let facts = ref [] and keys = ref SSet.empty and consts = ref SMap.empty in
    Array.iteri
      (fun ci name ->
         let vs = List.map (fun r -> r.(ci)) rows in
         let rec pairs f = function
           | a :: (b :: _ as rest) -> f a b && pairs f rest
           | _ -> true
         in
         if pairs (fun a b -> Value.compare_total a b = 0) vs then
           consts := SMap.add name (List.hd vs) !consts
         else begin
           if pairs (fun a b -> Value.compare_total a b <= 0) vs then
             facts := [ (name, Plan.Asc) ] :: !facts;
           if pairs (fun a b -> Value.compare_total a b >= 0) vs then
             facts := [ (name, Plan.Desc) ] :: !facts
         end;
         if List.length (List.sort_uniq Value.compare_total vs) = nrows then
           keys := SSet.add name !keys)
      schema;
    { base with consts = !consts; keys = !keys; facts = Lazy.from_val !facts }
  end

(* The output of an operator that yields iter|item (steps, node
   construction, fn:doc, fn:id): only [iter] can inherit anything from
   the [src] side; [item] holds nodes. *)
let node_output src =
  { schema = SSet.of_list [ "iter"; "item" ];
    consts = only iter_only src.consts;
    keys = SSet.empty;
    one_row = false;
    arbitrary = SSet.inter src.arbitrary iter_only;
    facts = Lazy.from_val [] }

(* ...and of one that builds at most one node per [src] row, in [src]
   row order: [iter]'s keys and facts survive too. *)
let node_per_row src =
  { (node_output src) with
    keys = SSet.inter src.keys iter_only;
    one_row = src.one_row;
    facts = lazy (truncate_facts (String.equal "iter") (Lazy.force src.facts)) }

(* Append a computed column [res] to the carrier rows, which stay in
   place. *)
let append p res = { p with schema = SSet.add res p.schema }

let union_first a b = SMap.union (fun _ v _ -> Some v) a b

let derive get (n : Plan.node) : t =
  match n.Plan.op with
  | Plan.Lit { schema; rows } -> lit_props schema rows
  | Plan.Project { input; cols } ->
    let p = get input in
    (* row count unchanged, so per-column facts just rename *)
    let rename_set s =
      List.fold_left
        (fun acc (nw, src) -> if SSet.mem src s then SSet.add nw acc else acc)
        SSet.empty cols
    in
    let rename_map m =
      List.fold_left
        (fun acc (nw, src) ->
           match SMap.find_opt src m with
           | Some v -> SMap.add nw v acc
           | None -> acc)
        SMap.empty cols
    in
    { schema = SSet.of_list (List.map fst cols);
      consts = rename_map p.consts;
      keys = rename_set p.keys;
      one_row = p.one_row;
      arbitrary = rename_set p.arbitrary;
      facts =
        lazy
          (List.filter (fun f -> f <> [])
             (List.map (remap_fact cols) (Lazy.force p.facts))) }
  | Plan.Select { input; col } ->
    (* a subsequence of the input; the filter column is all-true after *)
    let p = get input in
    { p with consts = SMap.add col (Value.Bool true) p.consts }
  | Plan.Distinct { input } -> get input
  | Plan.Semijoin { left; right; on } ->
    (* a subsequence of the left input; every surviving row matched some
       right row on [on], so a constant right column pins its left
       partner (vacuously sound when no row survives) *)
    let pl = get left and pr = get right in
    { pl with
      consts =
        List.fold_left
          (fun acc (lcol, rcol) ->
             match SMap.find_opt rcol pr.consts with
             | Some v -> SMap.add lcol v acc
             | None -> acc)
          pl.consts on }
  | Plan.Antijoin { left; _ } -> get left
  | Plan.Join { left; right; lcol; rcol } ->
    let pl = get left and pr = get right in
    (* a side's keys survive iff the other side's join column is a key
       (each row then matches at most once); output rows satisfy
       lcol = rcol, so a const on one join column is a const on the
       other *)
    let consts =
      let merged = union_first pl.consts pr.consts in
      match (SMap.find_opt lcol merged, SMap.find_opt rcol merged) with
      | Some v, None -> SMap.add rcol v merged
      | None, Some v -> SMap.add lcol v merged
      | _ -> merged
    in
    { schema = SSet.union pl.schema pr.schema;
      consts;
      keys =
        SSet.union
          (if SSet.mem rcol pr.keys then pl.keys else SSet.empty)
          (if SSet.mem lcol pl.keys then pr.keys else SSet.empty);
      one_row = pl.one_row && pr.one_row;
      arbitrary = SSet.union pl.arbitrary pr.arbitrary;
      (* pair order is left-major with right matches in right-row order
         (hash buckets accumulate probe hits in scan order) *)
      facts =
        lazy
          (Lazy.force pl.facts
           @ if pl.one_row then Lazy.force pr.facts else []) }
  | Plan.Thetajoin { left; right; _ } ->
    let pl = get left and pr = get right in
    (* left-major, each left row's matches in right-row order (every
       kernel path emits the nested loop's pairs); right facts are not
       passed even under a one-row left side, which keeps plans as they
       are *)
    { schema = SSet.union pl.schema pr.schema;
      consts = union_first pl.consts pr.consts;
      keys = SSet.empty;
      one_row = false;
      arbitrary = SSet.union pl.arbitrary pr.arbitrary;
      facts = pl.facts }
  | Plan.Cross { left; right } ->
    let pl = get left and pr = get right in
    (* products repeat rows, except against a one-row side *)
    { schema = SSet.union pl.schema pr.schema;
      consts = union_first pl.consts pr.consts;
      keys =
        SSet.union
          (if pr.one_row then pl.keys else SSet.empty)
          (if pl.one_row then pr.keys else SSet.empty);
      one_row = pl.one_row && pr.one_row;
      arbitrary = SSet.union pl.arbitrary pr.arbitrary;
      facts =
        lazy
          (Lazy.force pl.facts
           @ if pl.one_row then Lazy.force pr.facts else []) }
  | Plan.Union { left; right } ->
    (* an append: rows of both sides interleave, so keys and global facts
       die; a column is constant iff it is so, identically, on both
       sides *)
    let pl = get left and pr = get right in
    { schema = pl.schema;
      consts =
        SMap.merge
          (fun _ a b ->
             match (a, b) with
             | Some va, Some vb when Value.equal va vb -> Some va
             | _ -> None)
          pl.consts pr.consts;
      keys = SSet.empty;
      one_row = false;
      arbitrary = SSet.inter pl.arbitrary pr.arbitrary;
      facts = Lazy.from_val [] }
  | Plan.Rownum { input; res; order; part } ->
    let p = get input in
    let extra () =
      match part with
      | None ->
        (* input already in the requested order: ranks are 1..n in row
           order — exactly # *)
        if proves p order then [ [ (res, Plan.Asc) ] ] else []
      | Some pc ->
        (* input grouped-and-sorted by the partition: per-partition ranks
           ascend within each run of the partition column *)
        List.filter_map
          (fun d ->
             if proves p ((pc, d) :: order) then
               Some [ (pc, d); (res, Plan.Asc) ]
             else None)
          [ Plan.Asc; Plan.Desc ]
    in
    { (append p res) with
      (* unpartitioned ranks are unique *)
      keys = (if part = None then SSet.add res p.keys else p.keys);
      facts = lazy (extra () @ Lazy.force p.facts) }
  | Plan.Rowid { input; res } ->
    let p = get input in
    { (append p res) with
      keys = SSet.add res p.keys;
      arbitrary = SSet.add res p.arbitrary;
      facts = lazy ([ (res, Plan.Asc) ] :: Lazy.force p.facts) }
  | Plan.Attach { input; res; value } ->
    let p = get input in
    { (append p res) with consts = SMap.add res value p.consts }
  | Plan.Fun1 { input; res; _ } | Plan.Fun2 { input; res; _ }
  | Plan.Fun3 { input; res; _ } ->
    append (get input) res
  | Plan.Aggr { input; res; part; _ } -> (
    let p = get input in
    match part with
    | None ->
      (* a single output row *)
      { schema = SSet.singleton res; consts = SMap.empty;
        keys = SSet.empty; one_row = true; arbitrary = SSet.empty;
        facts = Lazy.from_val [] }
    | Some pc ->
      (* one output row per group, groups in first-seen order — which is
         sorted iff the input was sorted by the partition column *)
      let keep = SSet.singleton pc in
      { schema = SSet.of_list [ pc; res ];
        consts = only keep p.consts;
        keys = keep;
        one_row = p.one_row;
        arbitrary = SSet.inter p.arbitrary keep;
        facts =
          lazy
            (List.filter_map
               (fun d -> if proves p [ (pc, d) ] then Some [ (pc, d) ] else None)
               [ Plan.Asc; Plan.Desc ]) })
  | Plan.Step { input; _ } ->
    (* per-iteration results in document order (the staircase /
       tag-index contract), iteration groups in first-seen iter order,
       duplicate-free within a group *)
    let p = get input in
    { (node_output p) with
      keys =
        (if p.one_row || SMap.mem "iter" p.consts then SSet.singleton "item"
         else SSet.empty);
      facts =
        lazy
          (if proves p [ ("iter", Plan.Asc) ] then
             [ [ ("iter", Plan.Asc); ("item", Plan.Asc) ] ]
           else []) }
  | Plan.Id_lookup { context; _ } -> node_output (get context)
  | Plan.Doc { input } | Plan.Textnode { input } | Plan.Commentnode { input }
  | Plan.Pinode { input } ->
    node_per_row (get input)
  | Plan.Elem { qnames; _ } | Plan.Attr { qnames; _ } ->
    node_per_row (get qnames)
  | Plan.Range { input; _ } ->
    (* each input row expands to pos = 1..k with ascending items *)
    let p = get input in
    { schema = SSet.of_list [ "iter"; "pos"; "item" ];
      consts = only iter_only p.consts;
      keys = SSet.empty;
      one_row = false;
      arbitrary = SSet.inter p.arbitrary iter_only;
      facts =
        lazy
          (let iter_sorted = proves p [ ("iter", Plan.Asc) ] in
           if iter_sorted && SSet.mem "iter" p.keys then
             [ [ ("iter", Plan.Asc); ("pos", Plan.Asc) ];
               [ ("iter", Plan.Asc); ("item", Plan.Asc) ] ]
           else if iter_sorted then [ [ ("iter", Plan.Asc) ] ]
           else []) }
  | Plan.Textify { input } ->
    (* atomic runs become text nodes, node items pass through; emits rows
       explicitly sorted by (iter, pos) *)
    let p = get input in
    { schema = SSet.of_list [ "iter"; "pos"; "item" ];
      consts = only iter_only p.consts;
      keys = SSet.empty;
      one_row = p.one_row;
      arbitrary = SSet.inter p.arbitrary iter_only;
      facts = Lazy.from_val [ [ ("iter", Plan.Asc); ("pos", Plan.Asc) ] ] }

(* ------------------------------------------------------------ analyzer *)

type analyzer = (int, t) Hashtbl.t

let make () : analyzer = Hashtbl.create 64

let rec props (a : analyzer) (n : Plan.node) : t =
  match Hashtbl.find_opt a n.Plan.id with
  | Some p -> p
  | None ->
    let p = derive (props a) n in
    (* at most one row: every column is vacuously duplicate-free *)
    let facts = p.facts in
    let p =
      { p with
        keys = (if p.one_row then p.schema else p.keys);
        facts = lazy (clip (Lazy.force facts)) }
    in
    Hashtbl.replace a n.Plan.id p;
    p

let schema a n = (props a n).schema

let satisfies a n req = proves (props a n) req

(* ----------------------------------------------------------- rendering *)

let dir_arrow = function
  | Plan.Asc -> "\xE2\x86\x91"
  | Plan.Desc -> "\xE2\x86\x93"

let req_to_string req =
  String.concat "," (List.map (fun (c, d) -> c ^ dir_arrow d) req)

(* The facts (shortest first, at most two), or the one-row marker. *)
let annotate a n =
  let p = props a n in
  if p.one_row then "ord:1row"
  else
    match
      List.sort
        (fun f g -> compare (List.length f, f) (List.length g, g))
        (Lazy.force p.facts)
    with
    | [] -> ""
    | fs ->
      "ord:"
      ^ String.concat "; "
          (List.filteri (fun i _ -> i < 2) (List.map req_to_string fs))

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
       are all arbitrary into a free #;
     - ctypes: statically known value types, which only decorate the
       physical plan dump (execution re-detects types dynamically).

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
     - Union is an append: facts die, but each side keeps its own, which
       [sorted_runs] recovers for k-way merges;
     - Select/Distinct/Semijoin/Antijoin emit a subsequence of their
       (left) input, and subsequences of sorted rows stay sorted.

   Keys, consts and facts license rewrites (keyed δ elision, % criteria
   dropping, sort elision, the root-sort skip), so every rule must be
   exact: a missing fact costs a sort that was already paid for, a wrong
   one changes answers. Facts and column types are computed only when
   asked for: column dependency analysis and the rewriter read the rest
   of the value half on every round and need neither. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type req = (Plan.col * Plan.dir) list

type t = {
  schema : SSet.t;
  consts : Value.t SMap.t;
  keys : SSet.t;
  one_row : bool;
  arbitrary : SSet.t;
  ctypes : Column.ty SMap.t Lazy.t;
  facts : req list Lazy.t;
}

let ctypes p = Lazy.force p.ctypes

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

(* ------------------------------------------------------- column types *)

(* [None] means "statically unknown" (= T_mixed). These mirror the
   promotion rules of [Value]'s arithmetic: Int op Int stays Int except
   for [div], which yields Int or Dbl depending on exactness. *)

let atomize_ty = function
  | Some Column.T_node -> Some Column.T_str
  | Some (Column.T_int | Column.T_dbl | Column.T_bool | Column.T_str) as t -> t
  | _ -> None

let prim1_ty (f : Plan.prim1) (arg : Column.ty option) : Column.ty option =
  let open Column in
  match f with
  | Plan.P_not | Plan.P_is_node | Plan.P_cast_bool | Plan.P_check_zero_one
  | Plan.P_check_exactly_one | Plan.P_check_one_or_more | Plan.P_castable _
  | Plan.P_instance_item _ | Plan.P_check_treat -> Some T_bool
  | Plan.P_string | Plan.P_cast_str | Plan.P_normalize_space | Plan.P_upper
  | Plan.P_lower | Plan.P_serialize | Plan.P_name | Plan.P_local_name ->
    Some T_str
  | Plan.P_string_length | Plan.P_cast_int -> Some T_int
  | Plan.P_number | Plan.P_cast_dbl -> Some T_dbl
  | Plan.P_neg | Plan.P_round | Plan.P_floor | Plan.P_ceiling | Plan.P_abs ->
    (match arg with Some (T_int | T_dbl) -> arg | _ -> None)
  | Plan.P_atomize -> atomize_ty arg
  | Plan.P_node_check -> Some T_node
  | Plan.P_cast_as ty ->
    (match ty with
     | Plan.Ty_integer -> Some T_int
     | Plan.Ty_double -> Some T_dbl
     | Plan.Ty_string | Plan.Ty_untyped -> Some T_str
     | Plan.Ty_boolean -> Some T_bool
     | Plan.Ty_any_atomic -> atomize_ty arg)
  | Plan.P_error -> None

let prim2_ty (f : Plan.prim2) a b : Column.ty option =
  let open Column in
  let numeric =
    match (a, b) with
    | Some T_int, Some T_int -> Some T_int
    | Some (T_int | T_dbl), Some (T_int | T_dbl) -> Some T_dbl
    | _ -> None
  in
  match f with
  | Plan.P_eq | Plan.P_ne | Plan.P_lt | Plan.P_le | Plan.P_gt | Plan.P_ge
  | Plan.P_and | Plan.P_or | Plan.P_is | Plan.P_before | Plan.P_after
  | Plan.P_contains | Plan.P_starts_with | Plan.P_ends_with -> Some T_bool
  | Plan.P_concat | Plan.P_substr_before | Plan.P_substr_after -> Some T_str
  | Plan.P_add | Plan.P_sub | Plan.P_mul | Plan.P_mod -> numeric
  | Plan.P_div ->
    (* Int/Int yields Int when exact, Dbl otherwise: unknown statically *)
    (match (a, b) with
     | Some T_dbl, Some (T_int | T_dbl) | Some T_int, Some T_dbl -> Some T_dbl
     | _ -> None)
  | Plan.P_idiv -> Some T_int

let agg_ty (agg : Plan.agg) (arg : Column.ty option) : Column.ty option =
  let open Column in
  match agg with
  | Plan.A_count -> Some T_int
  | Plan.A_ebv -> Some T_bool
  | Plan.A_str_join _ -> Some T_str
  | Plan.A_the -> arg
  (* an empty group sums to Int 0, so T_dbl input does not give T_dbl *)
  | Plan.A_sum -> (match arg with Some T_int -> Some T_int | _ -> None)
  | Plan.A_max | Plan.A_min ->
    (match arg with Some (T_int | T_dbl) -> arg | _ -> None)
  | Plan.A_avg -> (match arg with Some T_dbl -> Some T_dbl | _ -> None)

(* add a type only when it is informative *)
let add_ty res ty m =
  match ty with
  | Some t when t <> Column.T_mixed -> SMap.add res t m
  | _ -> SMap.remove res m

(* ---------------------------------------------------------- propagation *)

let only cols m = SMap.filter (fun c _ -> SSet.mem c cols) m

let iter_only = SSet.singleton "iter"

(* Exact single-column facts of a literal table (loop relations, small
   constant sequences), bounded so the analysis stays linear on big
   literals; column types are read off every row. *)
let lit_props schema rows =
  let nrows = List.length rows in
  let schema_set = SSet.of_list (Array.to_list schema) in
  let ctypes =
    lazy
      (match rows with
       | [] -> SMap.empty
       | first :: rest ->
         let tys = Array.map Column.ty_of_value first in
         List.iter
           (Array.iteri (fun i v ->
                tys.(i) <- Column.ty_union tys.(i) (Column.ty_of_value v)))
           rest;
         Array.to_seq schema
         |> Seq.mapi (fun i c -> (c, tys.(i)))
         |> Seq.filter (fun (_, ty) -> ty <> Column.T_mixed)
         |> SMap.of_seq)
  in
  let base =
    { schema = schema_set; consts = SMap.empty; keys = SSet.empty;
      one_row = nrows <= 1; arbitrary = SSet.empty; ctypes;
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
    ctypes = lazy (SMap.add "item" Column.T_node (only iter_only (ctypes src)));
    facts = Lazy.from_val [] }

(* ...and of one that builds at most one node per [src] row, in [src]
   row order: [iter]'s keys and facts survive too. *)
let node_per_row src =
  { (node_output src) with
    keys = SSet.inter src.keys iter_only;
    one_row = src.one_row;
    facts = lazy (truncate_facts (String.equal "iter") (Lazy.force src.facts)) }

(* Append a computed column [res], typed by [ty] from the input's column
   types, to the carrier rows, which stay in place. *)
let append p res ty =
  { p with
    schema = SSet.add res p.schema;
    ctypes = lazy (let ct = ctypes p in add_ty res (ty ct) ct) }

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
      ctypes = lazy (rename_map (ctypes p));
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
      ctypes = lazy (union_first (ctypes pl) (ctypes pr));
      (* pair order is left-major with right matches in right-row order
         (hash buckets accumulate probe hits in scan order) *)
      facts =
        lazy
          (Lazy.force pl.facts
           @ if pl.one_row then Lazy.force pr.facts else []) }
  | Plan.Thetajoin { left; right; _ } ->
    let pl = get left and pr = get right in
    (* left-major; inequality matches need not come out in right-row
       order (the sort-based path reorders), so right facts never pass *)
    { schema = SSet.union pl.schema pr.schema;
      consts = union_first pl.consts pr.consts;
      keys = SSet.empty;
      one_row = false;
      arbitrary = SSet.union pl.arbitrary pr.arbitrary;
      ctypes = lazy (union_first (ctypes pl) (ctypes pr));
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
      ctypes = lazy (union_first (ctypes pl) (ctypes pr));
      facts =
        lazy
          (Lazy.force pl.facts
           @ if pl.one_row then Lazy.force pr.facts else []) }
  | Plan.Union { left; right } ->
    (* an append: rows of both sides interleave, so keys and global facts
       die (per-side facts become runs, see [sorted_runs]); a column is
       constant or typed iff it is so, identically, on both sides *)
    let pl = get left and pr = get right in
    let agree eq =
      SMap.merge (fun _ a b ->
          match (a, b) with
          | Some va, Some vb when eq va vb -> Some va
          | _ -> None)
    in
    { schema = pl.schema;
      consts = agree Value.equal pl.consts pr.consts;
      keys = SSet.empty;
      one_row = false;
      arbitrary = SSet.inter pl.arbitrary pr.arbitrary;
      ctypes = lazy (agree ( = ) (ctypes pl) (ctypes pr));
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
    { (append p res (fun _ -> Some Column.T_int)) with
      (* unpartitioned ranks are unique *)
      keys = (if part = None then SSet.add res p.keys else p.keys);
      facts = lazy (extra () @ Lazy.force p.facts) }
  | Plan.Rowid { input; res } ->
    let p = get input in
    { (append p res (fun _ -> Some Column.T_int)) with
      keys = SSet.add res p.keys;
      arbitrary = SSet.add res p.arbitrary;
      facts = lazy ([ (res, Plan.Asc) ] :: Lazy.force p.facts) }
  | Plan.Attach { input; res; value } ->
    let p = get input in
    { (append p res (fun _ -> Some (Column.ty_of_value value))) with
      consts = SMap.add res value p.consts }
  | Plan.Fun1 { input; res; f; arg } ->
    append (get input) res (fun ct -> prim1_ty f (SMap.find_opt arg ct))
  | Plan.Fun2 { input; res; f; arg1; arg2 } ->
    append (get input) res (fun ct ->
        prim2_ty f (SMap.find_opt arg1 ct) (SMap.find_opt arg2 ct))
  | Plan.Fun3 { input; res; _ } ->
    (* both ternary primitives build strings *)
    append (get input) res (fun _ -> Some Column.T_str)
  | Plan.Aggr { input; res; agg; arg; part; _ } -> (
    let p = get input in
    let res_ty () =
      agg_ty agg (Option.bind arg (fun a -> SMap.find_opt a (ctypes p)))
    in
    match part with
    | None ->
      (* a single output row *)
      { schema = SSet.singleton res; consts = SMap.empty;
        keys = SSet.empty; one_row = true; arbitrary = SSet.empty;
        ctypes = lazy (add_ty res (res_ty ()) SMap.empty);
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
        ctypes = lazy (add_ty res (res_ty ()) (only keep (ctypes p)));
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
      ctypes =
        lazy
          (SMap.add "pos" Column.T_int
             (SMap.add "item" Column.T_int (only iter_only (ctypes p))));
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
       explicitly sorted by (iter, pos), with pos values a subset of the
       input's (so its type survives) *)
    let p = get input in
    { schema = SSet.of_list [ "iter"; "pos"; "item" ];
      consts = only iter_only p.consts;
      keys = SSet.empty;
      one_row = p.one_row;
      arbitrary = SSet.inter p.arbitrary iter_only;
      ctypes =
        lazy
          (SMap.add "item" Column.T_node
             (only (SSet.of_list [ "iter"; "pos" ]) (ctypes p)));
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

let col_ty a n c =
  Option.value ~default:Column.T_mixed (SMap.find_opt c (ctypes (props a n)))

let satisfies a n req = proves (props a n) req

(* How many sorted runs (w.r.t. [req]) is this node's output a
   concatenation of? [Some 1] = globally sorted; [Some k] licenses a
   k-way merge instead of a full sort; [None] = nothing provable. Unions
   are the producers (each side contributes its own runs); row-preserving
   and subsequence operators pass the count through. *)
let sorted_runs a node req =
  let cap = 64 in
  let rec runs (n : Plan.node) req =
    let p = props a n in
    let req = strip_consts p.consts req in
    if proves p req then Some 1
    else
      match n.Plan.op with
      | Plan.Union { left; right } -> (
        match (runs left req, runs right req) with
        | Some k1, Some k2 when k1 + k2 <= cap -> Some (k1 + k2)
        | _ -> None)
      | Plan.Select { input; _ } | Plan.Distinct { input } ->
        (* a subsequence of k sorted runs is at most k sorted runs *)
        runs input req
      | Plan.Semijoin { left; _ } | Plan.Antijoin { left; _ } ->
        runs left req
      | Plan.Project { input; cols } ->
        let rec back acc = function
          | [] -> Some (List.rev acc)
          | (c, d) :: rest -> (
            match List.assoc_opt c cols with
            | Some src -> back ((src, d) :: acc) rest
            | None -> None)
        in
        Option.bind (back [] req) (fun req' -> runs input req')
      | Plan.Rownum { input; res; _ }
      | Plan.Rowid { input; res }
      | Plan.Attach { input; res; _ }
      | Plan.Fun1 { input; res; _ }
      | Plan.Fun2 { input; res; _ }
      | Plan.Fun3 { input; res; _ } ->
        if List.mem_assoc res req then None else runs input req
      | _ -> None
  in
  runs node req

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

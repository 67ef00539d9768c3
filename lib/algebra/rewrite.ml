(* Property- and cardinality-aware logical rewriting, between column
   dependency analysis and lowering.

   CDA (Icols) prunes what order indifference makes dead; this pass
   reshapes what is left, in the spirit of the classical rewrites
   Pathfinder ran before lowering and of "XQuery Join Graph Isolation":

     - selections migrate through Attach/Fun/Project/Distinct and into
       the join/cross side that owns their column;
     - error-free Fun/Attach operators and projections distribute over
       Cross, so value computations run per input row instead of per
       pair;
     - sigma over an equality/comparison over a cross product becomes a
       theta join (the physical layer's hash / sort paths then fire
       instead of the quadratic cross-then-filter);
     - a join whose condition touches only one factor of a Cross operand
       commutes with the Cross — the rewrite that actually removes the
       quadratic iteration spaces loop-lifting builds for existential
       predicates;
     - join inputs are reordered so the hash build side is the smaller
       one (cardinality estimates from [Plan.Card]);
     - the join-graph isolation rules ([Joingraph]) collapse the
       count-then-filter scaffolds of where-empty / quantifier
       existentials into Semijoin/Antijoin operators.

   Soundness and row order. Every rule preserves the result multiset
   exactly. The first three groups also preserve row order bit-for-bit
   (filtering and per-row computation commute with append/cross order;
   a theta join enumerates pairs in the same left-major order the
   filtered cross did). The last two change row order, so they are gated
   on an order-insensitivity analysis: a node may be reordered only when
   EVERY path from it to the root passes through an operator that
   provably erases row order (a Distinct, a Semijoin/Antijoin right
   input, an order-indifferent aggregate) before anything order-sensitive
   (Rownum's tie-break, Rowid's numbering, node construction) sees it.
   This is plan-internal order indifference: it holds in ordering mode
   ordered too, no fn:unordered context needed.

   Errors: rules never evaluate a row-wise operator over more rows than
   the original plan did. Selections pushed below a Fun filter rows
   before the Fun sees them, which can only suppress dynamic errors —
   the latitude XQuery 2.3.4 grants and that CDA's existing select
   pushdown already uses. Fun pushdown through Cross would evaluate the
   Fun on rows the product may have dropped (an empty other side), so it
   is restricted to primitives that cannot raise. *)

module SSet = Set.Make (String)

(* ------------------------------------------------------------- analysis *)

(* Top-down order-insensitivity: true for a node iff every consumer path
   to the root erases its row order. Meet over parent edges (a single
   order-sensitive consumer pins the node).

   The root itself is insensitive by default: every executor in this
   engine extracts the result sequence by sorting the final iter|pos|item
   table on pos (order is encoded in data, not in physical row order —
   the paper's thesis, made literal). A consumer that does read the final
   table in physical row order must pass ~root_ordered:true. *)
let order_insensitive ?(root_ordered = false) (root : Plan.node) :
    Plan.node -> bool =
  let insens : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let note (c : Plan.node) v =
    Hashtbl.replace insens c.Plan.id
      (v && Option.value ~default:true (Hashtbl.find_opt insens c.Plan.id))
  in
  Hashtbl.replace insens root.Plan.id (not root_ordered);
  List.iter
    (fun (n : Plan.node) ->
       let pi =
         Option.value ~default:false (Hashtbl.find_opt insens n.Plan.id)
       in
       match n.Plan.op with
       (* membership tests: right-side order and multiplicity invisible *)
       | Plan.Semijoin { left; right; _ } | Plan.Antijoin { left; right; _ }
         ->
         note left pi;
         note right true
       (* order producers observe their input order (tie-breaks, dense
          numbering) *)
       | Plan.Rownum { input; _ } | Plan.Rowid { input; _ } ->
         note input false
       | Plan.Aggr { input; agg; _ } -> (
         match agg with
         (* order-indifferent aggregates; A_the demands a singleton *)
         | Plan.A_count | Plan.A_sum | Plan.A_min | Plan.A_max | Plan.A_avg
         | Plan.A_the ->
           note input pi
         (* first-item EBV, separator joining: group order observable *)
         | Plan.A_ebv | Plan.A_str_join _ -> note input false)
       (* constructed content order is document order: keep it *)
       | Plan.Elem _ | Plan.Attr _ | Plan.Textnode _ | Plan.Commentnode _
       | Plan.Pinode _ | Plan.Textify _ | Plan.Id_lookup _ ->
         List.iter (fun c -> note c false) (Plan.children n.Plan.op)
       (* row-wise / structural operators pass their own status down *)
       | op -> List.iter (fun c -> note c pi) (Plan.children op))
    (List.rev (Plan.topo_order root));
  fun n ->
    Option.value ~default:false (Hashtbl.find_opt insens n.Plan.id)

(* ----------------------------------------------------------------- rules *)

(* Primitives that cannot raise a dynamic error, on any input row: only
   these may be evaluated on rows the original plan might never have
   materialized (Fun pushdown through Cross). *)
let prim1_total : Plan.prim1 -> bool = function
  | Plan.P_atomize | Plan.P_string | Plan.P_cast_str
  | Plan.P_normalize_space | Plan.P_upper | Plan.P_lower | Plan.P_serialize
  | Plan.P_is_node | Plan.P_castable _ | Plan.P_instance_item _ ->
    true
  | _ -> false

let mirror_cmp : Plan.prim2 -> Plan.prim2 = function
  | Plan.P_lt -> Plan.P_gt
  | Plan.P_le -> Plan.P_ge
  | Plan.P_gt -> Plan.P_lt
  | Plan.P_ge -> Plan.P_le
  | other -> other

let is_cmp : Plan.prim2 -> bool = function
  | Plan.P_eq | Plan.P_ne | Plan.P_lt | Plan.P_le | Plan.P_gt | Plan.P_ge ->
    true
  | _ -> false

type stats = {
  rounds : int;
  ops_before : int;
  ops_after : int;
  fires : (string * int) list;  (* rule name -> fire count, sorted *)
}

let empty_stats =
  { rounds = 0; ops_before = 0; ops_after = 0; fires = [] }

let total_fires s = List.fold_left (fun acc (_, k) -> acc + k) 0 s.fires

(* One bottom-up rebuild pass. [fire] counts rule applications.
   [props] is the property analyzer shared by every pass (it memoizes by
   node id, so it answers for the pass's freshly built nodes too);
   [order_props] enables "sort-elision". [jg] enables the
   join-graph isolation rules ([Joingraph]), consulted first: their
   patterns (sigma over its own attached constant, Distinct over a
   left-only projection of a join, ...) are disjoint from the arms below,
   so the order only decides who answers, never what. *)
let rewrite_once b ~est ~fire ~props ~order_props ~jg (root : Plan.node) :
    Plan.node =
  let schema_of = Props.schema props in
  let insensitive = order_insensitive root in
  let mapped : (int, Plan.node) Hashtbl.t = Hashtbl.create 64 in
  let owns side col = SSet.mem col (schema_of side) in
  (* pre-pass parent counts, for the Joingraph prune gate: a node with
     two parents entering the pass keeps its other reference when one is
     discarded. Nodes created during the pass miss the table and count
     as unshared — erring toward vetoing a prune. *)
  let parents : (int, int) Hashtbl.t = Hashtbl.create 64 in
  if jg then
    List.iter
      (fun (n : Plan.node) ->
         List.iter
           (fun (c : Plan.node) ->
              Hashtbl.replace parents c.Plan.id
                (1 + Option.value ~default:0
                       (Hashtbl.find_opt parents c.Plan.id)))
           (Plan.children n.Plan.op))
      (Plan.topo_order root);
  let shared (n : Plan.node) =
    Option.value ~default:0 (Hashtbl.find_opt parents n.Plan.id) > 1
  in
  List.iter
    (fun (orig : Plan.node) ->
       let op' =
         Plan.map_children
           (fun c -> Hashtbl.find mapped c.Plan.id)
           orig.Plan.op
       in
       let keep op = Plan.mk b op in
       let joingraph_result =
         if jg then Joingraph.try_rule b ~schema_of ~shared ~fire op'
         else None
       in
       let result =
         match joingraph_result with
         | Some n -> n
         | None ->
         match op' with
         (* -- selection pushdown --------------------------------------- *)
         | Plan.Select { input; col } -> (
           match input.Plan.op with
           | Plan.Attach { input = i; res; value } when res <> col ->
             fire "select-pushdown";
             keep
               (Plan.Attach
                  { input = keep (Plan.Select { input = i; col }); res; value })
           | Plan.Fun1 { input = i; res; f; arg } when res <> col ->
             fire "select-pushdown";
             keep
               (Plan.Fun1
                  { input = keep (Plan.Select { input = i; col });
                    res; f; arg })
           | Plan.Fun3 { input = i; res; f; arg1; arg2; arg3 }
             when res <> col ->
             fire "select-pushdown";
             keep
               (Plan.Fun3
                  { input = keep (Plan.Select { input = i; col });
                    res; f; arg1; arg2; arg3 })
           | Plan.Project { input = i; cols } when List.mem_assoc col cols ->
             fire "select-pushdown";
             let src = List.assoc col cols in
             keep
               (Plan.Project
                  { input = keep (Plan.Select { input = i; col = src });
                    cols })
           | Plan.Distinct { input = i } ->
             fire "select-pushdown";
             keep
               (Plan.Distinct { input = keep (Plan.Select { input = i; col }) })
           | Plan.Semijoin { left; right; on } when owns left col ->
             fire "select-pushdown";
             keep
               (Plan.Semijoin
                  { left = keep (Plan.Select { input = left; col });
                    right; on })
           | Plan.Antijoin { left; right; on } when owns left col ->
             fire "select-pushdown";
             keep
               (Plan.Antijoin
                  { left = keep (Plan.Select { input = left; col });
                    right; on })
           | Plan.Union { left; right } ->
             fire "select-pushdown";
             keep
               (Plan.Union
                  { left = keep (Plan.Select { input = left; col });
                    right = keep (Plan.Select { input = right; col }) })
           | Plan.Cross { left; right }
             when owns left col && not (owns right col) ->
             fire "select-pushdown";
             keep
               (Plan.Cross
                  { left = keep (Plan.Select { input = left; col }); right })
           | Plan.Cross { left; right }
             when owns right col && not (owns left col) ->
             fire "select-pushdown";
             keep
               (Plan.Cross
                  { left; right = keep (Plan.Select { input = right; col }) })
           | Plan.Join { left; right; lcol; rcol }
             when owns left col && not (owns right col) ->
             fire "select-pushdown";
             keep
               (Plan.Join
                  { left = keep (Plan.Select { input = left; col });
                    right; lcol; rcol })
           | Plan.Join { left; right; lcol; rcol }
             when owns right col && not (owns left col) ->
             fire "select-pushdown";
             keep
               (Plan.Join
                  { left;
                    right = keep (Plan.Select { input = right; col });
                    lcol; rcol })
           (* -- join synthesis: sigma over cmp over cross -------------- *)
           | Plan.Fun2 { input = j; res; f; arg1; arg2 }
             when res = col && is_cmp f -> (
             match j.Plan.op with
             | Plan.Cross { left; right }
               when owns left arg1 && owns right arg2 ->
               fire "join-synthesis";
               let tj =
                 keep
                   (Plan.Thetajoin
                      { left; right; lcol = arg1; cmp = f; rcol = arg2 })
               in
               keep (Plan.Attach { input = tj; res = col; value = Value.Bool true })
             | Plan.Cross { left; right }
               when owns left arg2 && owns right arg1 ->
               fire "join-synthesis";
               let tj =
                 keep
                   (Plan.Thetajoin
                      { left; right; lcol = arg2; cmp = mirror_cmp f;
                        rcol = arg1 })
               in
               keep (Plan.Attach { input = tj; res = col; value = Value.Bool true })
             | _ -> keep op')
           | Plan.Fun2 { input = i; res; f; arg1; arg2 } when res <> col ->
             fire "select-pushdown";
             keep
               (Plan.Fun2
                  { input = keep (Plan.Select { input = i; col });
                    res; f; arg1; arg2 })
           | _ -> keep op')
         (* -- error-free Fun/Attach distribution over Cross ------------- *)
         | Plan.Attach { input; res; value } -> (
           match input.Plan.op with
           | Plan.Cross { left; right } when not (owns right res) ->
             fire "fun-pushdown";
             keep
               (Plan.Cross
                  { left = keep (Plan.Attach { input = left; res; value });
                    right })
           | _ -> keep op')
         | Plan.Fun1 { input; res; f; arg } when prim1_total f -> (
           match input.Plan.op with
           | Plan.Cross { left; right }
             when owns left arg && not (owns right res) ->
             fire "fun-pushdown";
             keep
               (Plan.Cross
                  { left = keep (Plan.Fun1 { input = left; res; f; arg });
                    right })
           | Plan.Cross { left; right }
             when owns right arg && not (owns left res) ->
             fire "fun-pushdown";
             keep
               (Plan.Cross
                  { left;
                    right = keep (Plan.Fun1 { input = right; res; f; arg }) })
           | _ -> keep op')
         (* -- projections: fuse, and split over Cross ------------------- *)
         | Plan.Project { input; cols } -> (
           match input.Plan.op with
           | Plan.Project { input = inner; cols = inner_cols }
             when List.for_all (fun (_, s) -> List.mem_assoc s inner_cols) cols
             ->
             fire "project-fuse";
             keep
               (Plan.Project
                  { input = inner;
                    cols =
                      List.map
                        (fun (nw, src) -> (nw, List.assoc src inner_cols))
                        cols })
           | Plan.Cross { left; right } ->
             let lcols =
               List.filter (fun (_, src) -> owns left src) cols
             in
             let rcols =
               List.filter (fun (_, src) -> not (owns left src)) cols
             in
             if lcols <> [] && rcols <> []
                && List.for_all (fun (_, src) -> owns right src) rcols
             then begin
               fire "project-split";
               keep
                 (Plan.Cross
                    { left = keep (Plan.Project { input = left; cols = lcols });
                      right =
                        keep (Plan.Project { input = right; cols = rcols }) })
             end
             else keep op'
           | _ -> keep op')
         (* -- join/cross commutation and input ordering ----------------- *)
         | Plan.Join { left; right; lcol; rcol } when insensitive orig -> (
           match (left.Plan.op, right.Plan.op) with
           | _, Plan.Cross { left = a; right = b2 } when owns a rcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left = keep (Plan.Join { left; right = a; lcol; rcol });
                    right = b2 })
           | _, Plan.Cross { left = a; right = b2 } when owns b2 rcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left = a;
                    right = keep (Plan.Join { left; right = b2; lcol; rcol })
                  })
           | Plan.Cross { left = a; right = b2 }, _ when owns a lcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left = keep (Plan.Join { left = a; right; lcol; rcol });
                    right = b2 })
           | Plan.Cross { left = a; right = b2 }, _ when owns b2 lcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left = a;
                    right = keep (Plan.Join { left = b2; right; lcol; rcol })
                  })
           | _ when est right > 2 * est left ->
             (* hash builds on the right: make the smaller side the build *)
             fire "join-swap";
             keep (Plan.Join { left = right; right = left; lcol = rcol; rcol = lcol })
           | _ -> keep op')
         | Plan.Thetajoin { left; right; lcol; cmp; rcol }
           when insensitive orig -> (
           match (left.Plan.op, right.Plan.op) with
           | _, Plan.Cross { left = a; right = b2 } when owns a rcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left =
                      keep
                        (Plan.Thetajoin { left; right = a; lcol; cmp; rcol });
                    right = b2 })
           | _, Plan.Cross { left = a; right = b2 } when owns b2 rcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left = a;
                    right =
                      keep
                        (Plan.Thetajoin { left; right = b2; lcol; cmp; rcol })
                  })
           | Plan.Cross { left = a; right = b2 }, _ when owns a lcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left =
                      keep
                        (Plan.Thetajoin { left = a; right; lcol; cmp; rcol });
                    right = b2 })
           | Plan.Cross { left = a; right = b2 }, _ when owns b2 lcol ->
             fire "join-cross-elim";
             keep
               (Plan.Cross
                  { left = a;
                    right =
                      keep
                        (Plan.Thetajoin { left = b2; right; lcol; cmp; rcol })
                  })
           | _ when est right > 2 * est left ->
             fire "join-swap";
             keep
               (Plan.Thetajoin
                  { left = right; right = left; lcol = rcol;
                    cmp = mirror_cmp cmp; rcol = lcol })
           | _ -> keep op')
         (* -- sort elision: % whose order already holds becomes # ------- *)
         | Plan.Rownum { input; res; order; part = None }
           when order_props && Props.satisfies props input order ->
           (* the input provably arrives sorted by [order] under
              compare_total; the sort comparator ends in a row-position
              tie-break, so the stable sort of an already-sorted input is
              the identity permutation and the rank column is exactly the
              1..n row stamp # produces — bit-identical, breaker-free,
              and ∥-eligible after lowering *)
           fire "sort-elision";
           keep (Plan.Rowid { input; res })
         | _ -> keep op'
       in
       if result.Plan.label = "" then Plan.set_label result orig.Plan.label;
       Hashtbl.replace mapped orig.Plan.id result)
    (Plan.topo_order root);
  Hashtbl.find mapped root.Plan.id

(* --------------------------------------------------------------- driver *)

let optimize ?(max_rounds = 50) ?(order_props = true)
  ?(join_isolation = true) ?stats:card_stats b
  (root : Plan.node) : Plan.node * stats =
  let est = Plan.Card.estimator ?stats:card_stats () in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let fire rule =
    Hashtbl.replace counts rule
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule))
  in
  let ops_before = Plan.count_ops root in
  let props = Props.make () in
  let rec go i root =
    if i >= max_rounds then (root, i)
    else
      let root' =
        rewrite_once b ~est ~fire ~props ~order_props ~jg:join_isolation root
      in
      if root'.Plan.id = root.Plan.id then (root, i) else go (i + 1) root'
  in
  let root', rounds = go 0 root in
  let fires =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
  in
  (root', { rounds; ops_before; ops_after = Plan.count_ops root'; fires })

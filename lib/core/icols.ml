(* Column dependency analysis and plan simplification (paper, Section 4.1,
   plus the Section 4.2 / Section 7 rewrites it enables).

   Phase 1 (analysis) walks the DAG top-down and infers, for every
   operator, the set of strictly required columns — seeded at the root
   with {pos, item}, the columns needed to serialize the query result.

   Phase 2 (rewrite) rebuilds the DAG bottom-up:
     - operators producing unrequired columns (%, #, @, fun) are pruned —
       this is what actually cashes in the order indifference that Rules
       LOC#/BIND#/FN:UNORDERED introduced (Figures 6(b) -> 9);
     - projections are narrowed to the required columns and fused;
     - rownum order criteria drop constant columns; a rownum left with
       only arbitrary (#-born) criteria and constant partitioning
       degrades into a free # (the paper's Section 7 wrap-up; a % over a
       dense criterion — a key the rows ascend in — is the rewriter's
       sort elision);
     - adjacent steps merge: descendant-or-self::node()/child::nt
       becomes descendant::nt once no order-establishing operator remains
       between them (the Q6/Q7 "exceptional speedup" of Section 5).

   Selection pushdown, join recognition over cross products and the
   empty-side union belong to the logical rewriter ([Algebra.Rewrite]),
   which runs after CDA.

   The optimize loop alternates analysis and rewriting to a fixpoint;
   the properties come from one [Algebra.Props] analyzer shared by every
   round (it memoizes by node id, so it also answers for rebuilt nodes). *)

module A = Algebra.Plan
module SSet = Set.Make (String)
module P = Algebra.Props

(* ------------------------------------------------------------- analysis *)

let required (props : P.analyzer) (root : A.node) : (int, SSet.t) Hashtbl.t =
  let req : (int, SSet.t) Hashtbl.t = Hashtbl.create 64 in
  let get n = Option.value ~default:SSet.empty (Hashtbl.find_opt req n.A.id) in
  let add n cols =
    Hashtbl.replace req n.A.id (SSet.union (get n) cols)
  in
  Hashtbl.replace req root.A.id (SSet.of_list [ "pos"; "item" ]);
  let schema = P.schema props in
  (* root first: topo_order lists children before parents *)
  List.iter
    (fun (n : A.node) ->
       let rs = get n in
       match n.A.op with
       | A.Lit _ -> ()
       | A.Project { input; cols } ->
         (* mirror the rewrite: a projection that keeps no required column
            still keeps its first column (for row cardinality) *)
         let kept = List.filter (fun (nw, _) -> SSet.mem nw rs) cols in
         let kept = if kept = [] then [ List.hd cols ] else kept in
         add input (SSet.of_list (List.map snd kept))
       | A.Select { input; col } -> add input (SSet.add col rs)
       | A.Join { left; right; lcol; rcol }
       | A.Thetajoin { left; right; lcol; rcol; _ } ->
         add left (SSet.add lcol (SSet.inter rs (schema left)));
         add right (SSet.add rcol (SSet.inter rs (schema right)))
       | A.Semijoin { left; right; on } | A.Antijoin { left; right; on } ->
         add left (SSet.union rs (SSet.of_list (List.map fst on)));
         add right (SSet.of_list (List.map snd on))
       | A.Cross { left; right } ->
         add left (SSet.inter rs (schema left));
         add right (SSet.inter rs (schema right))
       | A.Union { left; right } ->
         add left rs;
         add right rs
       | A.Distinct { input } ->
         (* duplicate elimination observes every column *)
         add input (schema input)
       | A.Rownum { input; res; order; part } ->
         if SSet.mem res rs then
           add input
             (SSet.union
                (SSet.remove res rs)
                (SSet.of_list
                   (List.map fst order @ Option.to_list part)))
         else add input rs
       | A.Rowid { input; res } | A.Attach { input; res; _ } ->
         add input (SSet.remove res rs)
       | A.Fun1 { input; res; arg; _ } ->
         if SSet.mem res rs then
           add input (SSet.add arg (SSet.remove res rs))
         else add input rs
       | A.Fun2 { input; res; arg1; arg2; _ } ->
         if SSet.mem res rs then
           add input (SSet.add arg1 (SSet.add arg2 (SSet.remove res rs)))
         else add input rs
       | A.Fun3 { input; res; arg1; arg2; arg3; _ } ->
         if SSet.mem res rs then
           add input
             (SSet.add arg1
                (SSet.add arg2 (SSet.add arg3 (SSet.remove res rs))))
         else add input rs
       | A.Aggr { input; arg; part; order; _ } ->
         add input
           (SSet.of_list
              (Option.to_list arg @ Option.to_list part @ Option.to_list order))
       | A.Step { input; _ } | A.Doc { input } ->
         add input (SSet.of_list [ "iter"; "item" ])
       | A.Elem { qnames; content } ->
         add qnames (SSet.of_list [ "iter"; "item" ]);
         add content (SSet.of_list [ "iter"; "pos"; "item" ])
       | A.Attr { qnames; values } ->
         add qnames (SSet.of_list [ "iter"; "item" ]);
         add values (SSet.of_list [ "iter"; "item" ])
       | A.Textnode { input } | A.Commentnode { input } ->
         add input (SSet.of_list [ "iter"; "item" ])
       | A.Pinode { input } ->
         add input (SSet.of_list [ "iter"; "target"; "value" ])
       | A.Range { input; lo; hi } ->
         add input (SSet.of_list [ "iter"; lo; hi ])
       | A.Textify { input } ->
         add input (SSet.of_list [ "iter"; "pos"; "item" ])
       | A.Id_lookup { values; context } ->
         add values (SSet.of_list [ "iter"; "item" ]);
         add context (SSet.of_list [ "iter"; "item" ]))
    (List.rev (A.topo_order root));
  req

(* -------------------------------------------------------------- rewriting *)

let is_identity_pair (nw, src) = String.equal nw src

let rewrite b (props : P.analyzer) req (root : A.node) : A.node =
  let schema_of = P.schema props in
  let mapped : (int, A.node) Hashtbl.t = Hashtbl.create 64 in
  let rs_of (orig : A.node) =
    Option.value ~default:SSet.empty (Hashtbl.find_opt req orig.A.id)
  in
  List.iter
    (fun (orig : A.node) ->
       let op' = A.map_children (fun c -> Hashtbl.find mapped c.A.id) orig.A.op in
       let rs = rs_of orig in
       let keep op = A.mk b op in
       let result =
         match op' with
         (* dead order/column producers *)
         | A.Rownum { input; res; _ } when not (SSet.mem res rs) -> input
         | A.Rowid { input; res } when not (SSet.mem res rs) -> input
         | A.Attach { input; res; _ } when not (SSet.mem res rs) -> input
         | A.Fun1 { input; res; _ } when not (SSet.mem res rs) -> input
         | A.Fun2 { input; res; _ } when not (SSet.mem res rs) -> input
         | A.Fun3 { input; res; _ } when not (SSet.mem res rs) -> input
         (* rownum: drop constant order criteria and constant grouping;
            degrade to # when only arbitrary criteria remain (Section 7) *)
         | A.Rownum { input; res; order; part } ->
           let iprops =
             match orig.A.op with
             | A.Rownum { input = oi; _ } -> P.props props oi
             | _ -> assert false
           in
           let order' =
             List.filter
               (fun (c, _) -> not (P.SMap.mem c iprops.P.consts))
               order
           in
           let part' =
             match part with
             | Some p when P.SMap.mem p iprops.P.consts -> None
             | p -> p
           in
           let all_arbitrary =
             List.for_all (fun (c, _) -> SSet.mem c iprops.P.arbitrary) order'
           in
           if order' = [] || (all_arbitrary && part' = None)
           then keep (A.Rowid { input; res })
           else keep (A.Rownum { input; res; order = order'; part = part' })
         (* projection: narrow, fuse, and drop identities *)
         | A.Project { input; cols } ->
           let cols' = List.filter (fun (nw, _) -> SSet.mem nw rs) cols in
           let cols' = if cols' = [] then [ List.hd cols ] else cols' in
           (match input.A.op with
            | A.Project { input = inner; cols = inner_cols } ->
              let cols'' =
                List.map
                  (fun (nw, src) -> (nw, List.assoc src inner_cols))
                  cols'
              in
              keep (A.Project { input = inner; cols = cols'' })
            | A.Step _ | A.Doc _ | A.Elem _ | A.Attr _ | A.Textnode _
            | A.Commentnode _
              when List.for_all is_identity_pair cols'
                   && List.length cols' = 2
                   && List.mem_assoc "iter" cols'
                   && List.mem_assoc "item" cols' ->
              input
            | _ -> keep (A.Project { input; cols = cols' }))
         (* step fusion: descendant-or-self::node() followed by child /
            descendant / descendant-or-self *)
         | A.Step { input; axis; test } ->
           (match input.A.op with
            | A.Step { input = deeper; axis = Xmldb.Axis.Descendant_or_self;
                       test = A.N_any } ->
              (match axis with
               | Xmldb.Axis.Child | Xmldb.Axis.Descendant ->
                 keep (A.Step { input = deeper; axis = Xmldb.Axis.Descendant; test })
               | Xmldb.Axis.Descendant_or_self when test = A.N_any ->
                 input
               | _ -> keep op')
            | _ -> keep op')
         (* duplicate duplicate elimination; and delta over rows carrying
            a provably duplicate-free column passes every row through in
            order — exact, delta keeps first occurrences in row order *)
         | A.Distinct { input } ->
           (* the key must lie inside the columns the CONSUMERS require
              of this delta (rs), not merely inside the input's current
              schema: the delta's input keeps its full schema only
              because the delta itself demands it, so once the delta is
              elided the key column is pruned on the next round — and a
              key outside rs then guarantees nothing about duplicates
              among the rows restricted to rs *)
           let keyed =
             match orig.A.op with
             | A.Distinct { input = oi } ->
               SSet.exists
                 (fun c -> SSet.mem c rs)
                 (P.props props oi).P.keys
             | _ -> false
           in
           (match input.A.op with
            | A.Distinct _ -> input
            | _ when keyed -> input
            | _ -> keep op')
         (* union: re-align schemas that the narrowing of one side may
            have made asymmetric *)
         | A.Union { left; right } ->
           let sl = schema_of left and sr = schema_of right in
           if SSet.equal sl sr then keep op'
           else begin
             let common = SSet.elements (SSet.inter sl sr) in
             let narrow side s =
               if SSet.equal s (SSet.of_list common) then side
               else
                 A.mk b
                   (A.Project
                      { input = side;
                        cols = List.map (fun c -> (c, c)) common })
             in
             keep (A.Union { left = narrow left sl; right = narrow right sr })
           end
         | _ -> keep op'
       in
       if result.A.label = "" then A.set_label result orig.A.label;
       Hashtbl.replace mapped orig.A.id result)
    (A.topo_order root);
  Hashtbl.find mapped root.A.id

(* --------------------------------------------------------------- driver *)

let optimize ?(max_rounds = 50) b root =
  let props = P.make () in
  let rec go i root =
    if i >= max_rounds then root
    else
      let root' = rewrite b props (required props root) root in
      if root'.A.id = root.A.id then root else go (i + 1) root'
  in
  go 0 root

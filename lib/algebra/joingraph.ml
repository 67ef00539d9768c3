(* Join-graph isolation: peel value joins out of the iteration scaffold.

   Loop-lifting encodes every FLWOR as iter-scaffolding — maps between
   iteration spaces, presence unions, count-then-filter existentials.
   "XQuery Join Graph Isolation" (Grust/Mayr/Rittinger) observes that the
   value joins buried in that scaffold form a small graph (vertices:
   iteration-independent table expressions; edges: value predicates) that
   can be peeled out and re-planned as hash joins. The source paper's
   order indifference is the license: the scaffold's row order is
   plan-internal, so the re-assembled join tree is freely shaped.

   This module holds the DAG-level half of the pass: local rules the
   rewriter ([Rewrite]) runs inside its fixpoint, each named and
   fire-counted like every other rewrite rule. Together they collapse the
   count-then-filter scaffolds that [where empty(for ...)] and
   [some ... satisfies] compile to into [Plan.Semijoin] / [Plan.Antijoin],
   which both executors run. The compile-level half (sliding a joinable
   where past intervening lets) lives in [Exrquy.Compile] behind the same
   [join_isolation] switch.

   Soundness. Every rule preserves the result multiset; all but the
   constant-selection rules are row-order-exact:

     - jg-select-const: sigma over its own attached constant keeps every
       row (true) or none (false) — the attach IS the predicate. The
       false case prunes the input subtree, which can only suppress
       dynamic errors: the XQuery 2.3.4 latitude the rewriter's select
       pushdown already uses.
     - jg-empty-prune: an operator fed an empty relation emits an empty
       relation (row-wise operators, joins; NOT unpartitioned Aggr, which
       emits one row from zero, and NOT Union, which jg-union-empty
       handles). Pruning the other join side is the same error latitude.

   The 2.3.4 latitude has a limit: errors demanded by a function's own
   semantics (fn:exactly-one over () MUST raise) are not optional, and
   loop-lifting implements them as check primitives inside exactly the
   attach-default scaffolds these prunes dismantle. So every rule that
   DISCARDS a subtree (select-const false; the empty-prunes of a join
   sibling) first proves the discarded subtree free of required-check
   operators ([carries_checks]); rules that merely re-route inputs
   (union-empty, semijoin synthesis/dedup, emptiness through row-wise
   operators) need no such proof.
     - jg-union-empty: appending an empty side is the identity.
     - jg-semijoin-synthesis: distinct-projecting only left columns of an
       equijoin never observes the right side beyond membership —
       delta(pi_L(join)) = delta(pi_L(semijoin)). Bit-identical row
       order: both sides enumerate left rows in probe order, and the
       first occurrence of each distinct L-tuple is the first left row
       producing it.
     - jg-semijoin-dedup: membership ignores right-side multiplicity, so
       a Distinct under a semi/anti-join's right input is dead work. *)

module SSet = Set.Make (String)

let rule_select_const = "jg-select-const"
let rule_empty_prune = "jg-empty-prune"
let rule_union_empty = "jg-union-empty"
let rule_semijoin_synthesis = "jg-semijoin-synthesis"
let rule_semijoin_dedup = "jg-semijoin-dedup"

let rules =
  [ rule_select_const; rule_empty_prune; rule_union_empty;
    rule_semijoin_synthesis; rule_semijoin_dedup ]

let is_empty_lit (n : Plan.node) =
  match n.Plan.op with Plan.Lit { rows = []; _ } -> true | _ -> false

(* Does discarding this subtree lose an operator whose purpose is
   raising a required dynamic error — the singleton-cardinality checks,
   casts, "treat as", the node checks, fn:error, division
   (by zero), the A_the aggregate? Discarding such an operator could
   swallow an error the spec demands (fn:exactly-one on a non-singleton),
   which the 2.3.4 "need not evaluate" latitude does not cover.

   Only nodes that actually become unreachable matter: the walk stops at
   [shared] nodes (more than one parent in the surrounding plan), because
   a shared node keeps its other reference and still evaluates — the
   existential scaffolds these rules target always share their inner
   query spine (and the query prolog's singleton checks hanging off it)
   with the surviving semijoin/antijoin side. Sharedness is judged
   against the plan entering the rewrite pass, a safe approximation: a
   fresh unshared node errs toward vetoing the prune. *)
let carries_checks ~shared (root : Plan.node) =
  let seen = Hashtbl.create 32 in
  let rec go (n : Plan.node) =
    (not (Hashtbl.mem seen n.Plan.id))
    && (not (shared n))
    && begin
      Hashtbl.add seen n.Plan.id ();
      (match n.Plan.op with
       | Plan.Fun1 { f; _ } -> (
         match f with
         | Plan.P_check_zero_one | Plan.P_check_exactly_one
         | Plan.P_check_one_or_more | Plan.P_check_treat
         | Plan.P_node_check | Plan.P_check_node | Plan.P_check_singleton
         | Plan.P_error | Plan.P_cast_as _
         | Plan.P_position | Plan.P_cast_dbl | Plan.P_cast_bool -> true
         | _ -> false)
       | Plan.Fun2 { f = Plan.P_div | Plan.P_idiv | Plan.P_mod; _ } -> true
       | Plan.Aggr { agg = Plan.A_the; _ } -> true
       | _ -> false)
      || List.exists go (Plan.children n.Plan.op)
    end
  in
  go root

(* One rewrite attempt on an operator whose children are already rebuilt
   (the rewriter's bottom-up contract). [schema_of] is the rewriter's
   memoized static-schema analysis; [shared] its pre-pass parent counts
   (for [carries_checks]); [fire] its rule counter. *)
let try_rule b ~(schema_of : Plan.node -> SSet.t)
    ~(shared : Plan.node -> bool) ~(fire : string -> unit) (op : Plan.op) :
    Plan.node option =
  let keep o = Plan.mk b o in
  (* a subtree may be discarded when it is already empty (nothing to
     lose) or it loses no required-check operator *)
  let droppable n = is_empty_lit n || not (carries_checks ~shared n) in
  (* the empty relation with the same static schema as [n] *)
  let empty_like (n : Plan.node) =
    keep
      (Plan.Lit
         { schema = Array.of_list (SSet.elements (schema_of n)); rows = [] })
  in
  (* ditto for the would-be result of [op] itself *)
  let empty_of op = empty_like (keep op) in
  match op with
  (* -- jg-select-const: sigma over its own attached boolean ------------- *)
  | Plan.Select { input; col } -> (
    match input.Plan.op with
    | Plan.Attach { res; value = Value.Bool true; _ } when res = col ->
      fire rule_select_const;
      Some input
    | Plan.Attach { res; input = inner; value = Value.Bool false; _ }
      when res = col && droppable inner ->
      fire rule_select_const;
      Some (empty_like input)
    | _ when is_empty_lit input ->
      fire rule_empty_prune;
      Some (empty_like input)
    | _ -> None)
  (* -- jg-union-empty: drop an empty append side ------------------------ *)
  | Plan.Union { left; right } when is_empty_lit left ->
    fire rule_union_empty;
    Some right
  | Plan.Union { left; right } when is_empty_lit right ->
    fire rule_union_empty;
    Some left
  (* -- jg-semijoin-synthesis: delta(pi_L(equijoin)) -> delta(pi_L(⋉)) -- *)
  | Plan.Distinct { input } -> (
    match input.Plan.op with
    | Plan.Project { input = j; cols } -> (
      match j.Plan.op with
      | Plan.Join { left; right; lcol; rcol }
        when List.for_all (fun (_, src) -> SSet.mem src (schema_of left)) cols
        ->
        fire rule_semijoin_synthesis;
        Some
          (keep
             (Plan.Distinct
                { input =
                    keep
                      (Plan.Project
                         { input =
                             keep
                               (Plan.Semijoin
                                  { left; right; on = [ (lcol, rcol) ] });
                           cols }) }))
      | _ when is_empty_lit j ->
        fire rule_empty_prune;
        Some (empty_like input)
      | _ -> None)
    | _ when is_empty_lit input ->
      fire rule_empty_prune;
      Some input
    | _ -> None)
  (* -- jg-semijoin-dedup: membership ignores right multiplicity --------- *)
  | Plan.Semijoin { left; right = { Plan.op = Plan.Distinct { input = r }; _ };
                    on }
    when not (is_empty_lit left) ->
    fire rule_semijoin_dedup;
    Some (keep (Plan.Semijoin { left; right = r; on }))
  | Plan.Antijoin { left; right = { Plan.op = Plan.Distinct { input = r }; _ };
                    on }
    when not (is_empty_lit left) ->
    fire rule_semijoin_dedup;
    Some (keep (Plan.Antijoin { left; right = r; on }))
  (* -- jg-empty-prune: emptiness propagates ----------------------------- *)
  | Plan.Project { input; _ } | Plan.Attach { input; _ }
  | Plan.Fun1 { input; _ } | Plan.Fun2 { input; _ } | Plan.Fun3 { input; _ }
  | Plan.Rowid { input; _ } | Plan.Rownum { input; _ }
    when is_empty_lit input ->
    fire rule_empty_prune;
    Some (empty_of op)
  | Plan.Join { left; right; _ } | Plan.Thetajoin { left; right; _ }
  | Plan.Cross { left; right }
    when (is_empty_lit left || is_empty_lit right)
         && droppable left && droppable right ->
    fire rule_empty_prune;
    Some (empty_of op)
  | Plan.Semijoin { left; right; _ }
    when (is_empty_lit left || is_empty_lit right)
         && droppable left && droppable right ->
    fire rule_empty_prune;
    Some (empty_like left)
  | Plan.Antijoin { left; right; _ }
    when is_empty_lit left && droppable right ->
    fire rule_empty_prune;
    Some (empty_like left)
  | Plan.Antijoin { left; right; _ } when is_empty_lit right ->
    (* nothing on the right: every left row survives, in place *)
    fire rule_empty_prune;
    Some left
  | _ -> None

(* ------------------------------------------------- join-graph extraction *)

type summary = {
  vertices : int;
  edges : int;
  equijoins : int;
  thetajoins : int;
  semijoins : int;
  antijoins : int;
  crosses : int;
}

let empty_summary =
  { vertices = 0; edges = 0; equijoins = 0; thetajoins = 0; semijoins = 0;
    antijoins = 0; crosses = 0 }

let is_join_op (n : Plan.node) =
  match n.Plan.op with
  | Plan.Join _ | Plan.Thetajoin _ | Plan.Semijoin _ | Plan.Antijoin _
  | Plan.Cross _ ->
    true
  | _ -> false

(* Walk the DAG once: join operators are the interior of the join graph,
   their non-join operands its vertices (iteration-independent table
   expressions, counted once each thanks to hash-consing), their
   predicates its edges (a Cross contributes none). *)
let summary (root : Plan.node) : summary =
  let vertex_ids = Hashtbl.create 16 in
  List.fold_left
    (fun acc (n : Plan.node) ->
       if not (is_join_op n) then acc
       else begin
         List.iter
           (fun (c : Plan.node) ->
              if not (is_join_op c) then
                Hashtbl.replace vertex_ids c.Plan.id ())
           (Plan.children n.Plan.op);
         match n.Plan.op with
         | Plan.Join _ ->
           { acc with edges = acc.edges + 1; equijoins = acc.equijoins + 1 }
         | Plan.Thetajoin _ ->
           { acc with edges = acc.edges + 1; thetajoins = acc.thetajoins + 1 }
         | Plan.Semijoin { on; _ } ->
           { acc with
             edges = acc.edges + List.length on;
             semijoins = acc.semijoins + 1 }
         | Plan.Antijoin { on; _ } ->
           { acc with
             edges = acc.edges + List.length on;
             antijoins = acc.antijoins + 1 }
         | Plan.Cross _ -> { acc with crosses = acc.crosses + 1 }
         | _ -> acc
       end)
    empty_summary (Plan.topo_order root)
  |> fun s -> { s with vertices = Hashtbl.length vertex_ids }

let summary_to_string s =
  Printf.sprintf
    "%d vertices, %d edges (%d \xE2\x8B\x88, %d \xCE\xB8, %d \xE2\x8B\x89, \
     %d \xE2\x96\xB7, %d \xC3\x97)"
    s.vertices s.edges s.equijoins s.thetajoins s.semijoins s.antijoins
    s.crosses

(* The end-to-end engine façade:

     parse -> normalize (J.K) -> compile (=>) -> optimize -> execute -> serialize

   [opts] exposes every knob the paper's experiments need:
     - [mode]: force ordering mode ordered/unordered (overrides the prolog)
     - [unordered_rules]: the Figure-7 rules FN:UNORDERED / LOC# / BIND#
     - [cda]: column dependency analysis + plan simplification (Section 4.1)
     - [hoist]: loop-invariant hoisting
     - [backend]: compiled plans or the reference interpreter
     - [budget]: resource governance (deadline / rows / bytes / op count /
       cancellation), armed afresh for every run
     - [fallback]: graceful degradation — an internal error in the
       compiled backend retries the query on the reference interpreter *)

module Value = Algebra.Value
module Budget = Basis.Budget

(* re-export: the library is wrapped, so this is the public path *)
module Plan_cache = Plan_cache

type backend = Compiled | Interpreted

type opts = {
  mode : Xquery.Ast.ordering_mode option;
  unordered_rules : bool;
  cda : bool;
  hoist : bool;
  backend : backend;
  step_impl : Algebra.Eval.step_impl;
  eval_mode : Algebra.Eval.mode;
  join_rec : bool;
  join_isolation : bool;
      (* join-graph isolation: the compile-level where-past-lets slide
         (Compile.cfg.join_isolation) plus the rewriter's Joingraph rules
         that collapse existential count-then-filter scaffolds into
         semijoin/antijoin operators *)
  budget : Budget.spec option;
  fallback : bool;
  jobs : int;
      (* domains for morsel-parallel physical execution; 1 = serial.
         Results, errors and profile counters are identical either way.
         The interpreter ignores it. *)
  rewrite : bool;
      (* the logical rewriter (Algebra.Rewrite): selection/fun pushdown,
         join synthesis over cross products, order-insensitive join
         reassociation and cardinality-driven input ordering, run between
         CDA and lowering *)
  order_props : bool;
      (* ordering-property reasoning (Algebra.Props): the rewriter's
         sort-elision rule, the root sort-on-pos skip, and merge-degraded
         % kernels. Pure optimization — a proof of an order already held
         can change no result *)
  code_eval : bool;
      (* compressed execution in the physical backend: batched staircase
         scans over bulk-decoded packed columns, atomize/string results
         kept as per-fragment dictionary codes, and equality predicates
         evaluated as integer code compares. Bit-identical results either
         way; off (--no-code-eval) is the materialized reference path *)
}

(* Engine-wide default parallelism, from XRQ_JOBS (CI runs the whole
   suite with XRQ_JOBS=4); absent or malformed means serial. *)
let default_jobs =
  match Sys.getenv_opt "XRQ_JOBS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let default_opts = {
  mode = None;
  unordered_rules = true;
  cda = true;
  hoist = true;
  backend = Compiled;
  step_impl = Algebra.Eval.Scan;
  eval_mode = Algebra.Eval.Dag;
  join_rec = true;
  join_isolation = true;
  budget = None;
  fallback = true;
  jobs = default_jobs;
  rewrite = true;
  order_props = true;
  code_eval = true;
}

(* Pathfinder with order indifference disabled: every plan is emitted as if
   ordering mode ordered were in effect, and no cleanup runs. *)
let ordered_baseline =
  { default_opts with
    unordered_rules = false; cda = false; rewrite = false;
    order_props = false }

type result = {
  items : Value.t list;        (* the result sequence *)
  serialized : string;
  plan : Algebra.Plan.node option;          (* after optimization *)
  raw_plan : Algebra.Plan.node option;      (* before optimization *)
  physical_plan : Algebra.Physical.pnode option;
      (* what actually ran; None when the interpreter answered *)
  profile : Algebra.Profile.t option;
  wall_seconds : float;
  degraded : string option;    (* Some reason: served by the fallback path *)
  cache_stats : Plan_cache.stats option;
      (* plan-cache counters as of this run's end, when a cache was used *)
}

let parse_and_normalize ?mode text =
  let q = Xquery.Parser.parse_query text in
  Xquery.Normalize.normalize_query ?mode_override:mode q

(* Cardinality statistics for the rewriter / lowering, read off a store.
   Estimates steer only performance decisions (join input order, hash
   build sides), never correctness — so feeding a prepared plan compiled
   against one store's statistics to another store stays sound, merely
   possibly slower. *)
let stats_of_store store : Algebra.Plan.Card.stats =
  { Algebra.Plan.Card.total_nodes = Xmldb.Doc_store.total_nodes store;
    name_count = (fun q -> Xmldb.Doc_store.name_occurrences store q) }

type analysis = {
  acfg : Exrquy.Compile.cfg;
  araw : Algebra.Plan.node;
  aoptimized : Algebra.Plan.node;
  arewrite : Algebra.Rewrite.stats;  (* what the rewriter did (plan dumps) *)
}

(* compile -> CDA -> rewrite -> CDA -> rewrite: the rewriter exposes new
   dead columns and projections (CDA's food), and CDA's narrowing exposes
   new rewrite sites; each pass is itself a fixpoint, and in practice one
   interleaving round suffices, so two bounds the loop. *)
let analyze ?(opts = default_opts) ?stats text =
  let core = parse_and_normalize ?mode:opts.mode text in
  let cfg =
    { (Exrquy.Compile.default_cfg ()) with
      unordered_rules = opts.unordered_rules;
      hoist = opts.hoist;
      join_rec = opts.join_rec;
      join_isolation = opts.join_isolation }
  in
  let _, raw = Exrquy.Compile.compile_core ~cfg core in
  let cda p = if opts.cda then Exrquy.Icols.optimize cfg.b p else p in
  let optimized = cda raw in
  let optimized, rstats =
    if not opts.rewrite then (optimized, Algebra.Rewrite.empty_stats)
    else begin
      let order_props = opts.order_props in
      let join_isolation = opts.join_isolation in
      let o1, s1 =
        Algebra.Rewrite.optimize ~order_props ~join_isolation ?stats cfg.b
          optimized
      in
      let o1 = if o1.Algebra.Plan.id <> optimized.Algebra.Plan.id then cda o1 else o1 in
      let o2, s2 =
        Algebra.Rewrite.optimize ~order_props ~join_isolation ?stats cfg.b o1
      in
      let o2 = if o2.Algebra.Plan.id <> o1.Algebra.Plan.id then cda o2 else o2 in
      let fires =
        List.fold_left
          (fun acc (r, k) ->
             let prev = Option.value ~default:0 (List.assoc_opt r acc) in
             (r, prev + k) :: List.remove_assoc r acc)
          s1.Algebra.Rewrite.fires s2.Algebra.Rewrite.fires
        |> List.sort compare
      in
      ( o2,
        { Algebra.Rewrite.rounds = s1.rounds + s2.rounds;
          ops_before = s1.ops_before;
          ops_after = Algebra.Plan.count_ops o2;
          fires } )
    end
  in
  { acfg = cfg; araw = raw; aoptimized = optimized; arewrite = rstats }

(* Compile a query text to an (unoptimized, optimized) plan pair. *)
let plans_of ?opts ?stats text =
  let a = analyze ?opts ?stats text in
  (a.acfg, a.araw, a.aoptimized)

(* ------------------------------------------------- prepared-plan cache *)

(* What a cache hit skips: parse -> normalize (-> compile -> optimize for
   the compiled backend). Plans hold no store references (documents are
   resolved by Doc at evaluation time), so a prepared entry is reusable
   against any store. *)
type prepared =
  | Prepared_plans of {
      raw : Algebra.Plan.node;
      optimized : Algebra.Plan.node;
      physical : Algebra.Physical.pnode;
          (* the lowered physical plan (lowering is cached with the
             plans) *)
      pos_sorted : bool;
          (* the ordering analysis proved the optimized plan delivers its
             rows already sorted by pos: the root sort is a no-op and the
             executors skip it. A plan property, cached with the plan. *)
      sorts_elided : int;
          (* "sort-elision" fires during optimization, stamped into the
             profile of every run of this prepared plan *)
    }
  | Prepared_core of Xquery.Core_ast.core

type cache = prepared Plan_cache.t

let create_cache ?(capacity = 64) () : cache = Plan_cache.create ~capacity

let cache_stats (c : cache) = Plan_cache.stats c

(* Only the knobs that shape the prepared artifact participate: budget,
   fallback, step_impl and eval_mode are pure execution concerns, and one
   cached plan serves every setting of them. The backend is in because the
   two backends cache different artifacts. Parallelism is in even though
   the lowered plan is identical either way: a prepared entry advertises
   the execution configuration it was created under, and keeping jobs out
   would make cache hits silently change a query's parallelism when a
   caller mixes widths in one cache. *)
let opts_fingerprint opts =
  Printf.sprintf "m%sr%bc%bh%bj%bb%sx%dw%bO%bg%be%b"
    (match opts.mode with
     | None -> "-"
     | Some Xquery.Ast.Ordered -> "o"
     | Some Xquery.Ast.Unordered -> "u")
    opts.unordered_rules opts.cda opts.hoist opts.join_rec
    (match opts.backend with Compiled -> "c" | Interpreted -> "i")
    opts.jobs opts.rewrite opts.order_props opts.join_isolation
    opts.code_eval

let cache_key opts text =
  opts_fingerprint opts ^ "\x00" ^ Plan_cache.normalize_query text

(* Attribute plan nodes to the profile buckets of the paper's Table 2. *)
let label_plan root =
  List.iter
    (fun (n : Algebra.Plan.node) ->
       if n.Algebra.Plan.label = "" then
         Algebra.Plan.set_label n
           (match n.Algebra.Plan.op with
            | Algebra.Plan.Step _ | Algebra.Plan.Doc _
            | Algebra.Plan.Id_lookup _ -> "path steps"
            | Algebra.Plan.Rownum _ -> "order (rownum %)"
            | Algebra.Plan.Join _ | Algebra.Plan.Thetajoin _
            | Algebra.Plan.Cross _ | Algebra.Plan.Semijoin _
            | Algebra.Plan.Antijoin _ -> "join"
            | Algebra.Plan.Elem _ | Algebra.Plan.Attr _
            | Algebra.Plan.Textnode _ | Algebra.Plan.Commentnode _
            | Algebra.Plan.Pinode _ | Algebra.Plan.Textify _ -> "construction"
            | Algebra.Plan.Aggr _ -> "aggregation"
            | Algebra.Plan.Fun1 _ | Algebra.Plan.Fun2 _
            | Algebra.Plan.Fun3 _ -> "arithmetic/comparison"
            | Algebra.Plan.Select _ -> "selection"
            | Algebra.Plan.Distinct _ -> "duplicate elimination"
            | Algebra.Plan.Project _ | Algebra.Plan.Attach _
            | Algebra.Plan.Rowid _ | Algebra.Plan.Lit _
            | Algebra.Plan.Union _ | Algebra.Plan.Range _ -> "plumbing"))
    (Algebra.Plan.topo_order root)

(* Lower an optimized logical plan to the physical-operator DAG: the
   cardinality estimates choose hash-build sides, and the property
   analyzer supplies the column-type annotations and, under
   [order_props], the merge hints. *)
let lower_physical ?stats ?order_props ?props optimized =
  Algebra.Lower.lower ~card:(Algebra.Plan.Card.estimator ?stats ())
    ?order_props ?props optimized

let prepared_of ?cache ?stats opts text =
  let build () =
    match opts.backend with
    | Interpreted -> Prepared_core (parse_and_normalize ?mode:opts.mode text)
    | Compiled ->
      let a = analyze ~opts ?stats text in
      let raw = a.araw and optimized = a.aoptimized in
      (* label before lowering so physical kernels inherit the profile
         buckets of their logical head operators *)
      label_plan optimized;
      let props = Algebra.Props.make () in
      let physical =
        lower_physical ?stats ~order_props:opts.order_props ~props optimized
      in
      (* The root sort exists to order items by pos; when the optimized
         plan already proves pos-order (non-strict suffices: the root
         sort is stable), the executor may serialize in row order.
         This is a structural fact about the plan — it never consults
         the query's ordering mode. *)
      let pos_sorted =
        opts.order_props
        && Algebra.Props.satisfies props optimized
             [ ("pos", Algebra.Plan.Asc) ]
      in
      let sorts_elided =
        Option.value ~default:0
          (List.assoc_opt "sort-elision" a.arewrite.Algebra.Rewrite.fires)
      in
      Prepared_plans { raw; optimized; physical; pos_sorted; sorts_elided }
  in
  match cache with
  | None -> build ()
  | Some c -> Plan_cache.find_or_add c (cache_key opts text) build

(* Whether evaluating [text] may append fragments to the store. True when
   the prepared plan contains construction operators, and conservatively
   for the interpreter backend (core expressions are not inspected). The
   query server uses this to pick the read or write side of a shared
   store's lock; sharing [cache] with the later [run] means the
   classification compile is the run's compile. *)
let constructs_nodes ?cache ?(opts = default_opts) store text =
  match opts.backend with
  | Interpreted -> true
  | Compiled ->
    (match prepared_of ?cache ~stats:(stats_of_store store) opts text with
     | Prepared_core _ -> true
     | Prepared_plans { optimized; _ } ->
       List.exists
         (fun (n : Algebra.Plan.node) ->
            match n.Algebra.Plan.op with
            | Algebra.Plan.Elem _ | Algebra.Plan.Attr _
            | Algebra.Plan.Textnode _ | Algebra.Plan.Commentnode _
            | Algebra.Plan.Pinode _ | Algebra.Plan.Textify _ -> true
            | _ -> false)
         (Algebra.Plan.topo_order optimized))

(* Extract the result sequence from the final iter|pos|item table.
   [pos_sorted] is the ordering analysis's verdict on the optimized plan:
   when the rows provably arrive sorted by pos, the (stable) root sort
   would be the identity and is skipped outright. *)
let items_of_table ?(pos_sorted = false) t =
  let n = Algebra.Table.nrows t in
  if pos_sorted then List.init n (fun i -> Algebra.Table.get t "item" i)
  else
    let rows =
      List.init n (fun i ->
          (Algebra.Value.int_value (Algebra.Table.get t "pos" i),
           Algebra.Table.get t "item" i))
    in
    List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) rows)

(* The fault-injection hook lives in the compiled executor's boundary
   checks only: the interpreter (and in particular the fallback retry)
   always runs with the hook disarmed, so injected faults prove the
   degradation path out rather than re-firing inside it. *)
let interp_guard opts =
  Option.map
    (fun spec -> Budget.start { spec with Budget.fault_at = None })
    opts.budget

let run ?cache ?(opts = default_opts) ?(with_profile = false) store text : result =
  (* Monotonic, like Budget deadlines: a wall-clock step (NTP) must not
     distort reported latency any more than it may fire a timeout. *)
  let t0 = Basis.Clock.now () in
  let stats () = Option.map Plan_cache.stats cache in
  let run_interpreted ~degraded core =
    let items =
      Interp.Interpreter.eval_core ?guard:(interp_guard opts) store core
    in
    { items;
      serialized = Interp.Xdm.serialize store items;
      plan = None; raw_plan = None; physical_plan = None; profile = None;
      wall_seconds = Basis.Clock.now () -. t0;
      degraded;
      cache_stats = stats () }
  in
  let card_stats = stats_of_store store in
  match opts.backend with
  | Interpreted ->
    let core =
      match prepared_of ?cache ~stats:card_stats opts text with
      | Prepared_core c -> c
      | Prepared_plans _ -> assert false  (* the key includes the backend *)
    in
    run_interpreted ~degraded:None core
  | Compiled ->
    let run_compiled () =
      let raw, optimized, physical, pos_sorted, sorts_elided =
        match prepared_of ?cache ~stats:card_stats opts text with
        | Prepared_plans { raw; optimized; physical; pos_sorted; sorts_elided }
          ->
          (raw, optimized, physical, pos_sorted, sorts_elided)
        | Prepared_core _ -> assert false
      in
      let profile = if with_profile then Some (Algebra.Profile.create ()) else None in
      Option.iter
        (fun p ->
           if sorts_elided > 0 then Algebra.Profile.add_sorts_elided p sorts_elided;
           if pos_sorted then Algebra.Profile.count_root_sort_elided p)
        profile;
      let guard = Option.map Budget.start opts.budget in
      let table =
        Algebra.Physical.run ?profile ?guard ~step_impl:opts.step_impl
          ~mode:opts.eval_mode ~jobs:opts.jobs ~code_eval:opts.code_eval
          store physical
      in
      let items = items_of_table ~pos_sorted table in
      { items;
        serialized = Interp.Xdm.serialize store items;
        plan = Some optimized; raw_plan = Some raw;
        physical_plan = Some physical;
        profile;
        wall_seconds = Basis.Clock.now () -. t0;
        degraded = None;
        cache_stats = stats () }
    in
    (match run_compiled () with
     | r -> r
     | exception Basis.Err.Internal_error m when opts.fallback ->
       (* graceful degradation: a compiler/executor bug must not take the
          query down — retry on the reference interpreter (its guard is
          re-armed: the fallback run gets a fresh budget; the plan cache is
          bypassed — this path exists because something we built is wrong,
          so nothing cached is trusted) *)
       run_interpreted
         ~degraded:
           (Some
              (Printf.sprintf
                 "compiled backend failed (internal error: %s); \
                  answered by the reference interpreter" m))
         (parse_and_normalize ?mode:opts.mode text))

let run_to_string ?cache ?opts store text =
  (run ?cache ?opts store text).serialized

(* ---------------------------------------------- classified error capture *)

type error = { kind : Basis.Err.kind; message : string }

(* Fold the front-end parsers' positioned exceptions into the uniform
   taxonomy: anything the query author wrote wrong is a static error. *)
let classify_error = function
  | Xquery.Parser.Syntax_error (m, pos) ->
    Some
      { kind = Basis.Err.Static;
        message = Printf.sprintf "syntax error at offset %d: %s" pos m }
  | Xmldb.Xml_parser.Parse_error (m, pos) ->
    Some
      { kind = Basis.Err.Static;
        message = Printf.sprintf "XML parse error at offset %d: %s" pos m }
  | e ->
    Option.map
      (fun (kind, message) -> { kind; message })
      (Basis.Err.classify e)

let run_result ?cache ?opts ?with_profile store text =
  match run ?cache ?opts ?with_profile store text with
  | r -> Ok r
  | exception e ->
    (match classify_error e with
     | Some err -> Error err
     | None -> raise e)

(* Compile once, execute many times (benchmark harness): returns the
   optimized plan and a closure that runs it against a fresh evaluation
   context, returning the item count. *)
let prepare ?cache ?(opts = default_opts) store text =
  match prepared_of ?cache ~stats:(stats_of_store store) opts text with
  | Prepared_core core ->
    ( None,
      fun () ->
        List.length
          (Interp.Interpreter.eval_core ?guard:(interp_guard opts) store core)
    )
  | Prepared_plans { optimized; physical; _ } ->
    ( Some optimized,
      fun () ->
        let guard = Option.map Budget.start opts.budget in
        Algebra.Table.nrows
          (Algebra.Physical.run ?guard ~step_impl:opts.step_impl
             ~mode:opts.eval_mode ~jobs:opts.jobs ~code_eval:opts.code_eval
             store physical) )

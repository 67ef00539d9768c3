(** The end-to-end engine façade:

    {v parse → normalize (J·K) → compile (⇒) → optimize → execute → serialize v}

    {!opts} exposes every knob the paper's experiments need; the two
    canonical settings are {!default_opts} (everything on) and
    {!ordered_baseline} (order indifference ignored — plans emitted as if
    ordering mode ordered, no cleanup — the comparison system of the
    paper's Section 5).

    The compiled backend runs the optimized plan on the physical layer
    ({!Algebra.Physical}: typed columns in dense batches, one kernel per
    plan node). {!Algebra.Eval} is the boxed logical executor the
    tests keep as a row-for-row reference over the same plan; the engine
    never runs it. *)

(** The LRU machinery behind the prepared-plan cache (re-exported: the
    library is wrapped, so this is its public path). *)
module Plan_cache : module type of Plan_cache

type backend = Compiled | Interpreted

type opts = {
  mode : Xquery.Ast.ordering_mode option;
      (** force the ordering mode (overrides the prolog) *)
  unordered_rules : bool;  (** the Figure-7 rules FN:UNORDERED/LOC#/BIND# *)
  cda : bool;              (** column dependency analysis (Section 4.1) *)
  hoist : bool;            (** loop-invariant hoisting *)
  backend : backend;       (** compiled plans or the reference interpreter *)
  step_impl : Algebra.Eval.step_impl;
      (** how the step operator ⊘ is realized: staircase scan or
          TwigStack-style tag-indexed streams *)
  eval_mode : Algebra.Eval.mode;
      (** [Dag] (default): shared subplans are evaluated once per run;
          [Tree]: sharing-oblivious re-evaluation, the differential
          oracle — results identical, costs not *)
  join_rec : bool;  (** value-join recognition on where clauses and predicates *)
  join_isolation : bool;
      (** join-graph isolation: the compile-level slide of a joinable
          [where] past intervening [let] clauses it does not depend on
          (so join recognition fires on for-let-where shapes), plus the
          {!Algebra.Joingraph} rewrite rules that collapse the
          count-then-filter scaffolds of [where empty(...)] and
          [some ... satisfies] existentials into semijoin/antijoin
          operators. Results, error choice and forced-ordered behaviour
          are identical on or off (default [true]). Participates in the
          plan-cache fingerprint. *)
  budget : Basis.Budget.spec option;
      (** resource governance — a fresh guard is armed per run (and per
          {!prepare} closure call); exhaustion raises
          {!Basis.Err.Resource_error} from either backend *)
  fallback : bool;
      (** graceful degradation: when the compiled backend raises
          {!Basis.Err.Internal_error}, retry on the reference interpreter
          and report via {!result.degraded} (default [true]) *)
  jobs : int;
      (** domains for morsel-parallel physical execution; [1] = serial.
          The default comes from the XRQ_JOBS environment variable
          (absent/malformed = 1). Results, error choice and profile
          counters are bit-identical to serial — only wall-clock time
          changes. The interpreter ignores it. Outside the plan-cache
          fingerprint: one prepared plan serves every width. *)
  rewrite : bool;
      (** run the logical rewriter ({!Algebra.Rewrite}) after CDA:
          selection/function pushdown, join synthesis over cross
          products and order-insensitive join reassociation. Pure
          optimization — results and error behaviour are unchanged
          (default [true]).
          Participates in the plan-cache fingerprint. *)
  order_props : bool;
      (** ordering-property reasoning ({!Algebra.Props}) for the
          rewriter's sort-elision rule ([%] → [#] when the required
          order already holds). Structural proofs about physical row
          order — never the query's ordering mode — so results are
          identical on or off (default [true]). The root sort-on-pos
          skip and merged [%] kernels do not depend on it: they observe
          their input at run time. Participates in the plan-cache
          fingerprint. *)
  code_eval : bool;
      (** compressed execution in the physical backend: batched staircase
          steps over bulk-decoded packed columns, atomize/string results
          over attribute, text, comment and PI nodes carried as the
          store's text-pool ids ({!Algebra.Column.t.Strs}), and string
          equalities evaluated as integer id compares, each comparand
          string looked up once, with strings materialized only at
          pipeline breakers and output. Results are bit-identical on or
          off; [false] ([--no-code-eval]) is the materialized reference
          path the parity oracle and benchmarks compare against, whose
          string equalities use [Value.equal] as {!Algebra.Eval} does
          (default [true]).
          Outside the plan-cache fingerprint: the plan is the same
          either way. *)
}

val default_opts : opts

(** Order indifference disabled end to end. *)
val ordered_baseline : opts

type result = {
  items : Algebra.Value.t list;  (** the result sequence *)
  serialized : string;
  plan : Algebra.Plan.node option;      (** after optimization *)
  raw_plan : Algebra.Plan.node option;  (** before optimization *)
  physical_plan : Algebra.Plan.node option;
      (** the plan the physical executor ran: always [plan], which it
          runs as it is. Kept for callers written when a lowered copy
          ran; [None] when the interpreter answered (interpreted backend
          or fallback) *)
  profile : Algebra.Profile.t option;
  wall_seconds : float;
  degraded : string option;
      (** [Some reason] when the compiled backend failed internally and
          the answer was served by the interpreter fallback *)
  cache_stats : Plan_cache.stats option;
      (** plan-cache hit/miss/eviction counters as of this run's end,
          when the run was given a cache *)
}

(** {2 Prepared-plan cache}

    An LRU cache over prepared queries, keyed by (normalized query text,
    options fingerprint): a hit skips parse → normalize → compile →
    optimize entirely. A prepared entry is the raw plan, the optimized
    plan the physical executor runs, and its sort-elision count. It is a
    function of the key alone: plans hold no store references, and
    optimization reads no document and no store statistics, so one cache
    serves runs against different stores and a hit returns the plan a
    fresh compile would. Only plan-shaping options participate in the
    fingerprint — budget, fallback, step implementation, evaluation
    mode, [jobs] and [code_eval] do not; the backend does (the two
    backends cache different artifacts). *)

type cache

(** [create_cache ~capacity ()] — default capacity 64 entries. *)
val create_cache : ?capacity:int -> unit -> cache

val cache_stats : cache -> Plan_cache.stats

(** The cache key's option part (exposed for tests). *)
val opts_fingerprint : opts -> string

val parse_and_normalize :
  ?mode:Xquery.Ast.ordering_mode -> string -> Xquery.Core_ast.core

(** Ignored: plans read no store statistics. It and the [?stats]
    parameters of {!analyze}, {!lower_physical} and
    {!Algebra.Rewrite.optimize} remain so that callers written when
    statistics steered join input order still compile. *)
val stats_of_store : Xmldb.Doc_store.t -> unit

(** Everything the compiler front half produces for one query: the
    compile configuration, the raw plan, the optimized plan (CDA
    interleaved with the logical rewriter when enabled), and the
    rewriter's per-rule fire counts for plan dumps. *)
type analysis = {
  acfg : Exrquy.Compile.cfg;
  araw : Algebra.Plan.node;
  aoptimized : Algebra.Plan.node;
  arewrite : Algebra.Rewrite.stats;
}

val analyze : ?opts:opts -> ?stats:unit -> string -> analysis

(** Compile a query text; returns (compiler cfg, raw plan, optimized
    plan). With [opts.cda = false] and [opts.rewrite = false] the
    optimized plan equals the raw plan. *)
val plans_of :
  ?opts:opts -> string ->
  Exrquy.Compile.cfg * Algebra.Plan.node * Algebra.Plan.node

(** The identity: the physical executor runs the optimized plan as it
    is. It, [stats] and [order_props] are ignored leftovers of a lowering
    pass, kept so that callers written against it still compile. *)
val lower_physical :
  ?stats:unit ->
  ?order_props:bool ->
  Algebra.Plan.node ->
  Algebra.Plan.node

(** Whether evaluating this query may append fragments to the store:
    true when the prepared plan contains construction operators, and
    conservatively for the interpreter backend. The query server uses
    this to decide between the shared (read) and exclusive (write) side
    of a store's lock; passing the same [cache] as the subsequent {!run}
    makes the classification compile and the run compile one compile. *)
val constructs_nodes : ?cache:cache -> ?opts:opts -> string -> bool

(** Evaluate a query against the store. [with_profile] attaches a
    per-bucket execution profile (the paper's Table 2 instrument).
    [cache] consults/populates a prepared-plan cache; the interpreter
    fallback path never uses it. *)
val run :
  ?cache:cache -> ?opts:opts -> ?with_profile:bool -> Xmldb.Doc_store.t ->
  string -> result

val run_to_string :
  ?cache:cache -> ?opts:opts -> Xmldb.Doc_store.t -> string -> string

(** A classified failure: one of the four {!Basis.Err.kind} classes plus
    a rendered message. *)
type error = { kind : Basis.Err.kind; message : string }

(** Classify an exception into the uniform error taxonomy: the four
    {!Basis.Err} classes plus the front-end parsers' positioned
    exceptions (both static). [None] for anything else. *)
val classify_error : exn -> error option

(** {!run}, with every classified error captured as [Error]; unknown
    exceptions still propagate. *)
val run_result :
  ?cache:cache -> ?opts:opts -> ?with_profile:bool -> Xmldb.Doc_store.t ->
  string -> (result, error) Stdlib.result

(** Compile once, execute many times (benchmarking): returns the optimized
    plan (when compiled) and a closure that evaluates it against a fresh
    context, returning the result's row count. *)
val prepare :
  ?cache:cache -> ?opts:opts -> Xmldb.Doc_store.t -> string ->
  Algebra.Plan.node option * (unit -> int)

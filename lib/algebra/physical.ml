(* The physical executor: evaluates a lowered physical-operator DAG over
   typed column batches instead of boxed value tables.

   Two mechanisms carry the speedup:

     - typed columns ([Column]): batches hold unboxed int/float/bool/
       string-id/node-id arrays, converted from the boxed representation
       on demand (per column, cached) and kept typed across operators —
       in particular across the [Column.gather]s that build join outputs;

     - selection vectors: Select, Distinct, Semijoin and Antijoin deliver
       a selection over their input's rows instead of materializing a new
       table, and Attach/Fun kernels append a column over the same base
       rows; materialization is forced only at pipeline breakers (joins,
       Rownum's sort, aggregation, Union, boxed-fallback kernels, and the
       final serialization).

   The lowering pass ([Lower]) maps every logical node to exactly one
   kernel, so every node's output is a batch of its own.

   Everything without a typed implementation falls back to the boxed
   kernels ([Kernels.eval_op]) through cached table conversions, so the
   physical layer never has to be complete to be correct. Matching
   semantics of joins are *shared* with the boxed executor
   ([Kernels.join_indices] / [theta_indices] / [semi_keep]): the physical
   layer only changes how inputs are fed and outputs are built, so both
   executors agree bit-for-bit, including row order (Rownum's stability
   tie-break makes row order observable) and NaN/negative-zero behavior
   (float comparisons replicate the boxed [Value] semantics: unordered on
   NaN, total [Float.compare] otherwise).

   Resource governance: one [Budget.check] per kernel invocation, and one
   kernel per logical node, so a physical run passes exactly the boxed
   executor's check boundaries and charges the same rows. Byte accounting
   deliberately charges the *boxed-equivalent* footprint, so a byte
   budget governs the same logical materialization on either executor
   rather than rewarding the cheaper representation.

   Morsel-driven parallelism ([jobs > 1]): kernels whose output order the
   optimizer proved immaterial — exactly the rowid/[#] shapes and
   order-indifferent aggregates of the paper, marked [ppar] by the
   lowering — split their row loops into contiguous row-range morsels
   executed on a fixed domain pool ([Basis.Pool]). Determinism is by
   construction, not by luck:

     - each morsel covers a contiguous range of the visible-row index
       space and writes either disjoint base rows of a shared output
       column or a private buffer; per-morsel buffers are concatenated in
       morsel order, so output row order is bit-identical to serial;
     - partial aggregates merge per-morsel tables in morsel order, which
       reproduces the serial first-seen group order (morsels are
       contiguous and in order);
     - a failing morsel does not abort its siblings; after all morsels
       finish, the exception of the lowest-indexed failing morsel is
       re-raised — rows within a morsel are scanned in ascending order,
       so that is the error the serial scan would have hit first;
     - all budget/profile accounting stays on the coordinating domain
       (one [Budget.check] per kernel, as serial), so op counts, fault
       injection, and profile counters are bit-identical too. Worker
       domains only *poll* [Budget.interrupted] between morsels and bail
       out early; the coordinator then re-raises the same cancellation/
       deadline error serial execution reports.

   Worker domains never touch [String_pool] (not thread-safe): retyping
   and typed-path dispatch happen on the coordinator before a row loop
   fans out; workers only read frozen columns and the document store
   (whose reads are pure). [%]-bearing kernels (Rownum), Distinct,
   build-flipped joins/semijoins and boxed fallbacks stay serial. *)

open Basis

(* ------------------------------------------------------ the physical plan *)

type pop =
  | K_select of string
  | K_attach of string * Value.t
  | K_fun1 of string * Plan.prim1 * string
  | K_fun2 of string * Plan.prim2 * string * string
  | K_fun3 of string * Plan.prim3 * string * string * string
  | K_project of (string * string) list
  | K_distinct
  | K_union
  | K_rowid of string
  | K_rownum of {
      res : string;
      order : (string * Plan.dir) list;
      part : string option;
      merge_hint : int option;
          (* ordering analysis proved the input piecewise sorted in at
             most this many runs: replace the O(n log n) sort with run
             detection + a k-way merge. None = no guarantee, full sort. *)
    }
  | K_join of { lcol : string; rcol : string; build_left : bool }
      (* [build_left]: hash the left column instead of the right (chosen
         by the lowering when estimates say the left side is smaller);
         output pair order is identical either way *)
  | K_thetajoin of { lcol : string; cmp : Plan.prim2; rcol : string }
  | K_semijoin of { anti : bool; on : (string * string) list; build_left : bool }
      (* [build_left]: hash the (smaller) left side's keys and mark them
         while scanning the right, instead of hashing the right and
         probing per left row. The marking scan is the output build
         itself, so a flipped semijoin stays serial; the default probe
         fans out over morsels like [K_join]. Either way the kept rows
         are an ascending subsequence of the left input. *)
  | K_aggr of {
      res : string;
      agg : Plan.agg;
      arg : string option;
      part : string option;
      order : string option;
    }
  | K_boxed of Plan.op           (* no typed implementation: boxed kernel *)

type pnode = {
  pid : int;           (* hash-cons id of the logical node *)
  pop : pop;
  pinputs : pnode list;
  plabel : string;     (* profile bucket (the logical node's label) *)
  ptypes : (string * Column.ty) list;
      (* statically inferred column types of the output (plan-dump aid) *)
  ppar : bool;
      (* order-indifferent kernel, licensed to fan out over morsels:
         per-row select/attach/fun kernels, rowid/[#] stamps, hash/theta
         join and semijoin probes, and count/sum/min/max aggregates —
         never [%]-bearing (Rownum) or boxed kernels. Set by the
         lowering ([Lower]). *)
}

let pop_name = function
  | K_select _ -> "select"
  | K_attach _ -> "attach"
  | K_fun1 _ -> "fun1"
  | K_fun2 _ -> "fun2"
  | K_fun3 _ -> "fun3"
  | K_project _ -> "project"
  | K_distinct -> "distinct"
  | K_union -> "union"
  | K_rowid _ -> "rowid"
  | K_rownum _ -> "rownum"
  | K_join { build_left = true; _ } -> "join(build:left)"
  | K_join _ -> "join"
  | K_thetajoin _ -> "thetajoin"
  | K_semijoin { anti = false; build_left = true; _ } -> "semijoin(build:left)"
  | K_semijoin { anti = false; _ } -> "semijoin"
  | K_semijoin { anti = true; build_left = true; _ } -> "antijoin(build:left)"
  | K_semijoin { anti = true; _ } -> "antijoin"
  | K_aggr _ -> "aggr"
  | K_boxed op -> "boxed:" ^ Plan.op_symbol op

(* ---------------------------------------------------------------- batches *)

(* A batch is a set of equal-length base columns plus an optional
   selection vector: the visible rows are [sel] (in that order) when
   present, all of [0 .. base-1] otherwise.

   A column entering from the boxed world stays [Mixed] in [cols] — the
   boxed view must remain zero-copy, because boxed kernels (steps,
   construction) sit between most typed ones and a retype that *replaced*
   the boxed array would force a full re-boxing pass at the next boxed
   boundary. Typed kernels instead consult [typed], a lazily filled
   per-column cache of the retyped view ([Some Mixed] records a scan that
   found the column genuinely heterogeneous, so it is never rescanned).
   [table] caches the whole-batch boxed view. *)
type batch = {
  schema : string array;
  cols : Column.t array;
  typed : Column.t option array; (* entries mutated by retype caching *)
  sel : int array option;
  nrows : int;                   (* visible rows ( = |sel| when present ) *)
  base : int;                    (* rows in the base columns *)
  mutable table : Table.t option;
}

(* Morsel-parallel execution state: the shared domain pool plus this
   query's fan-out width and minimum morsel size. *)
type par = {
  ppool : Pool.t;
  pjobs : int;
  pmorsel : int;  (* row loops shorter than this never fan out *)
}

type ctx = {
  env : Kernels.env;
  pool : String_pool.t;
  cache : (int, batch) Hashtbl.t;
  mode : Eval.mode;
  profile : Profile.t option;
  guard : Budget.t option;
  par : par option;       (* None = serial execution *)
  mutable kernels : int;  (* kernel invocations (cache hits excluded) *)
}

(* Minimum rows per morsel before a loop fans out. Overridable via
   XRQ_MORSEL so tests and the fuzzer can force tiny tables through the
   parallel paths; read once (first query), like an ordinary config. *)
let default_morsel =
  lazy
    (match Sys.getenv_opt "XRQ_MORSEL" with
     | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1024)
     | None -> 1024)

let create ?profile ?guard ?(step_impl = Eval.Scan) ?(mode = Eval.Dag)
    ?(jobs = 1) ?morsel ?(code_eval = true) store =
  let tag_index =
    match step_impl with
    | Eval.Scan -> None
    | Eval.Tag_index -> Some (Xmldb.Tag_index.create store)
  in
  let par =
    if jobs <= 1 then None
    else
      let pmorsel =
        match morsel with
        | Some m -> max 1 m
        | None -> Lazy.force default_morsel
      in
      Some { ppool = Pool.get (); pjobs = jobs; pmorsel }
  in
  { env = Kernels.env ?tag_index ~code_eval store;
    pool = String_pool.create ();
    cache = Hashtbl.create 64;
    mode;
    profile;
    guard;
    par;
    kernels = 0 }

let kernels ctx = ctx.kernels

let bump ctx f = match ctx.profile with Some p -> f p | None -> ()

(* ------------------------------------------------------ morsel scheduling *)

(* Contiguous [lo, hi) ranges covering [0, n): adaptive sizing lives in
   {!Basis.Pool.adaptive_spans}. Depends only on (n, morsel, jobs) —
   never on scheduling — so any run of the same plan splits
   identically. *)
let spans n ~morsel ~jobs = Pool.adaptive_spans n ~morsel ~jobs

let par_stop ctx =
  match ctx.guard with
  | Some g -> fun () -> Budget.interrupted g
  | None -> fun () -> false

(* After a parallel loop joins: if workers bailed out because the guard
   tripped, surface the same cancellation/deadline error serial execution
   reports (and never use the partially filled output). *)
let par_check ctx =
  match ctx.guard with Some g -> Budget.check_interrupted g | None -> ()

(* Run [fill lo hi] over index space [0, n): inline, or morsel-parallel
   when this kernel is order-indifferent ([par]) and [n] is big enough.
   [fill] must touch only state owned by its own range. *)
let run_spans ctx ~par n fill =
  match ctx.par with
  | Some pr when par && n > pr.pmorsel -> (
    let sp = spans n ~morsel:pr.pmorsel ~jobs:pr.pjobs in
    match Array.length sp with
    | 0 | 1 -> fill 0 n
    | k ->
      Pool.run pr.ppool ~jobs:pr.pjobs ~stop:(par_stop ctx) k (fun i ->
          let lo, hi = sp.(i) in
          fill lo hi);
      par_check ctx)
  | _ -> fill 0 n

(* Same, but each morsel produces a value; results come back in morsel
   order (serial = one morsel). *)
let map_spans ctx ~par n (produce : int -> int -> 'a) : 'a array =
  match ctx.par with
  | Some pr when par && n > pr.pmorsel -> (
    let sp = spans n ~morsel:pr.pmorsel ~jobs:pr.pjobs in
    match Array.length sp with
    | 0 | 1 -> [| produce 0 n |]
    | k ->
      let out = Array.make k None in
      Pool.run pr.ppool ~jobs:pr.pjobs ~stop:(par_stop ctx) k (fun i ->
          let lo, hi = sp.(i) in
          out.(i) <- Some (produce lo hi));
      par_check ctx;
      Array.map
        (function
          | Some v -> v
          | None ->
            (* unreachable: a skipped morsel implies [par_check] raised *)
            Err.internal "Physical: missing morsel result")
        out)
  | _ -> [| produce 0 n |]

(* Stitch per-morsel (left, right) index pairs back together in morsel
   order — the serial probe order. *)
let concat_pairs (parts : (int array * int array) array) =
  match parts with
  | [| (li, ri) |] -> (li, ri)
  | _ ->
    let total =
      Array.fold_left (fun acc (l, _) -> acc + Array.length l) 0 parts
    in
    let li = Array.make total 0 and ri = Array.make total 0 in
    let off = ref 0 in
    Array.iter
      (fun (l, r) ->
         let k = Array.length l in
         Array.blit l 0 li !off k;
         Array.blit r 0 ri !off k;
         off := !off + k)
      parts;
    (li, ri)

let of_table t =
  let n = Table.nrows t in
  let cols = Array.map (fun c -> Column.Mixed c) (Table.columns t) in
  { schema = Table.schema t;
    cols;
    typed = Array.make (Array.length cols) None;
    sel = None;
    nrows = n;
    base = n;
    table = Some t }

(* Visible rows [lo, hi) of the selection, in order. *)
let iter_span b lo hi f =
  match b.sel with
  | None -> for r = lo to hi - 1 do f r done
  | Some s -> for k = lo to hi - 1 do f s.(k) done

let iter_sel b f = iter_span b 0 b.nrows f

let col_pos b name =
  let n = Array.length b.schema in
  let rec go i =
    if i >= n then
      Err.internal "Physical: no column %S in schema [%s]" name
        (String.concat "," (Array.to_list b.schema))
    else if String.equal b.schema.(i) name then i
    else go (i + 1)
  in
  go 0

(* The column, after a cached attempt to tighten Mixed to a typed
   representation. Dynamic detection is authoritative; static hints from
   the lowering only ever decorate the plan dump. *)
let retyped ctx b i =
  match b.cols.(i) with
  | Column.Mixed vs when Array.length vs > 0 -> (
    match b.typed.(i) with
    | Some c -> c
    | None ->
      let c = Column.of_values ~pool:ctx.pool vs in
      (match c with
       | Column.Mixed _ -> ()
       | _ -> bump ctx Profile.count_retype);
      b.typed.(i) <- Some c;
      c)
  | c -> c

let rcol ctx b name = retyped ctx b (col_pos b name)

(* Append one column over the same base rows and selection. *)
let with_col b name c =
  { b with
    schema = Array.append b.schema [| name |];
    cols = Array.append b.cols [| c |];
    typed = Array.append b.typed [| None |];
    table = None }

(* Force the selection into the base: one gather per column, in whatever
   representation the column has (typed views are gathered alongside, so
   the retype cache survives compaction). *)
let compact b =
  match b.sel with
  | None -> b
  | Some s ->
    { schema = b.schema;
      cols = Array.map (fun c -> Column.gather c s) b.cols;
      typed =
        Array.map
          (function Some c -> Some (Column.gather c s) | None -> None)
          b.typed;
      sel = None;
      nrows = b.nrows;
      base = b.nrows;
      table = b.table }

(* The boxed view of a batch — the bridge into boxed-fallback kernels and
   the final serialization. Cached; counted as a forced materialization
   the first time. *)
let to_table ctx b =
  match b.table with
  | Some t -> t
  | None ->
    bump ctx Profile.count_mat_forced;
    let cb = compact b in
    Array.iter
      (function
        | Column.Codes _ -> bump ctx Profile.count_late_mat
        | _ -> ())
      cb.cols;
    let t =
      Table.create b.schema (Array.map Column.to_values cb.cols) b.nrows
    in
    b.table <- Some t;
    t

(* A single column's visible rows, boxed (for key columns of matching
   kernels that have no typed path). Reads the base representation — for
   Mixed columns this is the original boxed array, no retype scan, no
   re-boxing. *)
let boxed_vis ctx b name =
  let c = b.cols.(col_pos b name) in
  (* boxing a code-carrying column decodes every visible row: count it as
     a late materialization (once per column use, coordinator-side) *)
  (match c with
   | Column.Codes _ -> bump ctx Profile.count_late_mat
   | _ -> ());
  match (c, b.sel) with
  | Column.Mixed vs, None -> vs
  | Column.Mixed vs, Some s -> Array.map (fun r -> vs.(r)) s
  | c, None -> Column.to_values c
  | c, Some s -> Array.map (fun r -> Column.get c r) s

(* Boxed-equivalent byte estimate over the visible rows (see the module
   comment for why this is not the typed footprint). *)
let budget_bytes b =
  let total = ref 64 in
  Array.iter
    (fun c ->
       total := !total + 16;
       let fixed k = total := !total + (k * b.nrows) in
       match c with
       | Column.Ints _ | Column.Seq _ | Column.Bools _ -> fixed 16
       | Column.Dbls _ -> fixed 24
       | Column.Nodes _ -> fixed 24
       | Column.Const { v; _ } -> fixed (Value.estimated_bytes v)
       | Column.Strs { pool; ids } ->
         iter_sel b (fun r ->
             total :=
               !total + 32 + String.length (String_pool.get pool ids.(r)))
       | Column.Codes { frag; pool; codes } ->
         (* priced as the strings it decodes to, like [Strs]: a byte
            budget must govern the same logical materialization on
            either representation *)
         iter_sel b (fun r ->
             let id = Xmldb.Doc_store.text_id_of_code frag codes.(r) in
             total :=
               !total + 32
               + (if id < 0 then 0 else String.length (String_pool.get pool id)))
       | Column.Mixed vs ->
         iter_sel b (fun r -> total := !total + Value.estimated_bytes vs.(r)))
    b.cols;
  !total

(* ------------------------------------------------------- typed accessors *)

(* Read the column as machine ints, when every row is an Int. *)
let int_reader c =
  match c with
  | Column.Ints a -> Some (fun i -> a.(i))
  | Column.Seq { start; _ } -> Some (fun i -> start + i)
  | Column.Const { v = Value.Int x; _ } -> Some (fun _ -> x)
  | _ -> None

(* Read the column as floats, when every row is numeric (Int or Dbl) —
   the promotion the boxed comparison/arithmetic rules apply. *)
let num_reader c =
  match c with
  | Column.Ints a -> Some (fun i -> float_of_int a.(i))
  | Column.Dbls a -> Some (fun i -> a.(i))
  | Column.Seq { start; _ } -> Some (fun i -> float_of_int (start + i))
  | Column.Const { v = Value.Int x; _ } ->
    let f = float_of_int x in
    Some (fun _ -> f)
  | Column.Const { v = Value.Dbl x; _ } -> Some (fun _ -> x)
  | _ -> None

let bool_reader c =
  match c with
  | Column.Bools b -> Some (fun i -> Bytes.unsafe_get b i <> '\000')
  | Column.Const { v = Value.Bool x; _ } -> Some (fun _ -> x)
  | _ -> None

(* String-pool ids, when every row is a string interned in [pool] —
   id equality is string equality within one pool. *)
let str_reader pool c =
  match c with
  | Column.Strs { pool = p; ids } when p == pool -> Some (fun i -> ids.(i))
  | _ -> None

(* Late materialization: expand a code-carrying column to query-pool ids
   (one decode + intern per base row, coordinator-side — String_pool is
   not thread-safe). Keys of hash joins go through this so string joins
   keep the pool-id fast path; other columns pass through untouched. *)
let materialize_codes ctx c =
  match c with
  | Column.Codes { frag; pool; codes } ->
    bump ctx Profile.count_late_mat;
    let ids =
      Array.map
        (fun code ->
           let id = Xmldb.Doc_store.text_id_of_code frag code in
           String_pool.intern ctx.pool
             (if id < 0 then "" else String_pool.get pool id))
        codes
    in
    Column.Strs { pool = ctx.pool; ids }
  | c -> c

(* --------------------------------------------------------- per-row kernels *)

(* Select, Attach and Fun1/2/3 run over their input batch's base rows and
   selection: compute kernels fill only the visible rows of their output
   column; dead entries hold dummies and are never read, because
   downstream selections only ever shrink.

   The row loop of one compute kernel: [run f] applies [f] to every
   visible row — inline, or sliced into morsels on the pool when the
   kernel is order-indifferent. Distinct morsels see disjoint visible
   rows (the selection is strictly increasing), so per-row writes to
   distinct base slots of a shared output never overlap. The coordinator
   does all retyping and typed-path dispatch (String_pool is not
   thread-safe) before the loop fans out. *)
let row_runner ctx ~par b =
  fun f -> run_spans ctx ~par b.nrows (fun lo hi -> iter_span b lo hi f)

(* Generic per-row fallback: boxed application over the visible rows.
   [Kernels.apply*] only read the store (node string-values, names):
   pure, so safe on worker domains. *)
let generic1 env run b f c =
  let out = Array.make b.base (Value.Int 0) in
  run (fun r ->
      out.(r) <- Kernels.apply1 env.Kernels.store f (Column.get c r));
  Column.Mixed out

let generic2 env run b f c1 c2 =
  let out = Array.make b.base (Value.Int 0) in
  run (fun r ->
      out.(r) <-
        Kernels.apply2 env.Kernels.store f (Column.get c1 r) (Column.get c2 r));
  Column.Mixed out

let generic3 env run b f c1 c2 c3 =
  let out = Array.make b.base (Value.Int 0) in
  run (fun r ->
      out.(r) <-
        Kernels.apply3 env.Kernels.store f (Column.get c1 r) (Column.get c2 r)
          (Column.get c3 r));
  Column.Mixed out

(* Compressed execution of atomize/string over a node column: when every
   visible row lives in one fragment and is a value-carrying kind
   (attribute / text / comment / PI — whose XDM string value IS the row's
   own value), the result column stays as the fragment's dictionary codes
   ([Column.Codes]) and only materializes at consumers that need the
   text. Elements and documents (string value concatenates descendants)
   and mixed-fragment columns fall back to the generic boxed path. The
   eligibility scan runs on the coordinator; the fill loop only reads
   packed columns (pure), so it may fan out over morsels. *)
exception Not_codeable

let codes_of_nodes ctx run b (frag : int array) (pre : int array) =
  if b.nrows = 0 then None
  else
    try
      let fid = ref (-1) in
      iter_sel b (fun r ->
          if !fid = -1 then fid := frag.(r)
          else if frag.(r) <> !fid then raise Not_codeable);
      let store = ctx.env.Kernels.store in
      let f = Xmldb.Doc_store.frag store !fid in
      iter_sel b (fun r ->
          match Xmldb.Doc_store.kind_at f pre.(r) with
          | Xmldb.Node_kind.Attribute | Xmldb.Node_kind.Text
          | Xmldb.Node_kind.Comment
          | Xmldb.Node_kind.Processing_instruction -> ()
          | Xmldb.Node_kind.Element | Xmldb.Node_kind.Document ->
            raise Not_codeable);
      let codes = Array.make b.base 0 in
      run (fun r -> codes.(r) <- Xmldb.Doc_store.text_code_at f pre.(r));
      Some
        (Column.Codes
           { frag = f; pool = Xmldb.Doc_store.text_pool store; codes })
    with Not_codeable -> None

(* Unary kernels with a typed path; everything else runs generic. *)
let fun1_col ctx run b f c =
  let typed =
    match f with
    | Plan.P_atomize when ctx.env.Kernels.code_eval -> (
      match c with
      | Column.Nodes { frag; pre } -> codes_of_nodes ctx run b frag pre
      (* atomization only transforms nodes: every typed non-node column
         (a string literal kept Const, in particular) passes through
         unchanged — which is what lets a comparand survive to the
         predicate as a Const the code translation can probe once *)
      | Column.Ints _ | Column.Dbls _ | Column.Bools _ | Column.Strs _
      | Column.Codes _ | Column.Seq _ -> Some c
      | Column.Const { v = Value.Node _; _ } -> None
      | Column.Const _ -> Some c
      | Column.Mixed _ -> None)
    | Plan.P_string when ctx.env.Kernels.code_eval -> (
      match c with
      | Column.Nodes { frag; pre } -> codes_of_nodes ctx run b frag pre
      | Column.Strs _ | Column.Codes _
      | Column.Const { v = Value.Str _; _ } ->
        (* string() of a string: identity *)
        Some c
      | _ -> None)
    | Plan.P_not ->
      (* the ebv of a Bool is the Bool itself, so negation is direct *)
      Option.map
        (fun g ->
           let out = Bytes.make b.base '\000' in
           run (fun r -> if not (g r) then Bytes.set out r '\001');
           Column.Bools out)
        (bool_reader c)
    | Plan.P_neg | Plan.P_abs -> (
      match c with
      | Column.Ints a ->
        let out = Array.make b.base 0 in
        let op = if f = Plan.P_neg then ( ~- ) else abs in
        run (fun r -> out.(r) <- op a.(r));
        Some (Column.Ints out)
      | Column.Dbls a ->
        let out = Array.make b.base 0.0 in
        let op = if f = Plan.P_neg then ( ~-. ) else Float.abs in
        run (fun r -> out.(r) <- op a.(r));
        Some (Column.Dbls out)
      | _ -> None)
    | _ -> None
  in
  match typed with Some c -> c | None -> generic1 ctx.env run b f c

(* Binary kernels. Int×Int stays int (except P_div, whose result type is
   data-dependent, so it runs generic); numeric×numeric runs as floats.
   Both replicate the boxed promotion rules exactly — float comparisons
   are unordered on NaN and [Float.compare] otherwise (so -0.0 < 0.0,
   like the boxed path), NOT the native IEEE operators. *)
let fun2_col ctx run b f c1 c2 =
  let bools g =
    let out = Bytes.make b.base '\000' in
    run (fun r -> if g r then Bytes.set out r '\001');
    Column.Bools out
  in
  let ints g =
    let out = Array.make b.base 0 in
    run (fun r -> out.(r) <- g r);
    Column.Ints out
  in
  let dbls g =
    let out = Array.make b.base 0.0 in
    run (fun r -> out.(r) <- g r);
    Column.Dbls out
  in
  let fcmp_bools g1 g2 test =
    bools (fun r ->
        let x = g1 r and y = g2 r in
        if Float.is_nan x || Float.is_nan y then false
        else test (Float.compare x y))
  in
  let typed =
    match f with
    | Plan.P_add | Plan.P_sub | Plan.P_mul | Plan.P_idiv | Plan.P_mod
    | Plan.P_eq | Plan.P_ne | Plan.P_lt | Plan.P_le | Plan.P_gt | Plan.P_ge
      -> (
        match (int_reader c1, int_reader c2) with
        | Some g1, Some g2 -> (
          match f with
          | Plan.P_add -> Some (ints (fun r -> g1 r + g2 r))
          | Plan.P_sub -> Some (ints (fun r -> g1 r - g2 r))
          | Plan.P_mul -> Some (ints (fun r -> g1 r * g2 r))
          | Plan.P_idiv ->
            Some
              (ints (fun r ->
                   let y = g2 r in
                   if y = 0 then Err.dynamic "integer division by zero";
                   g1 r / y))
          | Plan.P_mod ->
            Some
              (ints (fun r ->
                   let y = g2 r in
                   if y = 0 then Err.dynamic "modulus by zero";
                   let x = g1 r in
                   x - (x / y * y)))
          | Plan.P_eq -> Some (bools (fun r -> g1 r = g2 r))
          | Plan.P_ne -> Some (bools (fun r -> g1 r <> g2 r))
          | Plan.P_lt -> Some (bools (fun r -> g1 r < g2 r))
          | Plan.P_le -> Some (bools (fun r -> g1 r <= g2 r))
          | Plan.P_gt -> Some (bools (fun r -> g1 r > g2 r))
          | Plan.P_ge -> Some (bools (fun r -> g1 r >= g2 r))
          | _ -> None)
        | _ -> (
          match (num_reader c1, num_reader c2) with
          | Some g1, Some g2 -> (
            match f with
            | Plan.P_add -> Some (dbls (fun r -> g1 r +. g2 r))
            | Plan.P_sub -> Some (dbls (fun r -> g1 r -. g2 r))
            | Plan.P_mul -> Some (dbls (fun r -> g1 r *. g2 r))
            | Plan.P_eq -> Some (fcmp_bools g1 g2 (fun c -> c = 0))
            | Plan.P_ne ->
              Some
                (bools (fun r ->
                     let x = g1 r and y = g2 r in
                     Float.is_nan x || Float.is_nan y
                     || Float.compare x y <> 0))
            | Plan.P_lt -> Some (fcmp_bools g1 g2 (fun c -> c < 0))
            | Plan.P_le -> Some (fcmp_bools g1 g2 (fun c -> c <= 0))
            | Plan.P_gt -> Some (fcmp_bools g1 g2 (fun c -> c > 0))
            | Plan.P_ge -> Some (fcmp_bools g1 g2 (fun c -> c >= 0))
            | _ -> None (* idiv/mod on doubles: rare, stays boxed *))
          | _ -> (
            (* dictionary-coded equality: translate the comparand into
               the fragment's local code once, then compare machine ints
               per row — no string is ever materialized. Code 0 (row
               without a value) and an interned "" both decode to the
               empty string, so codes pass through [norm] first. *)
            let code_pred () =
              let store = ctx.env.Kernels.store in
              let norm frag =
                match Xmldb.Doc_store.code_of_text store frag "" with
                | Some e -> fun code -> if code = 0 then e else code
                | None -> fun code -> code
              in
              let neg = f = Plan.P_ne in
              match (c1, c2) with
              | ( Column.Codes { frag; codes; _ },
                  Column.Const { v = Value.Str s; _ } )
              | ( Column.Const { v = Value.Str s; _ },
                  Column.Codes { frag; codes; _ } ) ->
                let nz = norm frag in
                let target =
                  if String.equal s "" then Some (nz 0)
                  else Xmldb.Doc_store.code_of_text store frag s
                in
                bump ctx Profile.count_code_pred;
                (match target with
                 | Some k ->
                   Some (bools (fun r -> (nz codes.(r) = k) <> neg))
                 | None ->
                   (* the string occurs nowhere in the fragment: the
                      predicate is constant over every row *)
                   Some (bools (fun _ -> neg)))
              | Column.Codes k1, Column.Codes k2 when k1.frag == k2.frag ->
                let nz = norm k1.frag in
                let ca = k1.codes and cb = k2.codes in
                bump ctx Profile.count_code_pred;
                Some (bools (fun r -> (nz ca.(r) = nz cb.(r)) <> neg))
              | ( Column.Codes { frag; codes; _ },
                  Column.Strs { pool; ids } )
              | ( Column.Strs { pool; ids },
                  Column.Codes { frag; codes; _ } ) ->
                (* interned comparands (a replicated literal that lost its
                   Const-ness in a boxed kernel, typically): translate each
                   distinct pool id into the fragment's code once, then
                   compare ints. The translation runs on the coordinator
                   (String_pool reads + the memo are not domain-safe);
                   the fill loop may still fan out. -1 = absent from the
                   fragment, matching no row. *)
                let nz = norm frag in
                let memo : (int, int) Hashtbl.t = Hashtbl.create 8 in
                let tcodes = Array.make b.base (-1) in
                iter_sel b (fun r ->
                    let id = ids.(r) in
                    tcodes.(r) <-
                      (match Hashtbl.find_opt memo id with
                       | Some k -> k
                       | None ->
                         let s = String_pool.get pool id in
                         let k =
                           if String.equal s "" then nz 0
                           else
                             match
                               Xmldb.Doc_store.code_of_text store frag s
                             with
                             | Some k -> k
                             | None -> -1
                         in
                         Hashtbl.add memo id k;
                         k));
                bump ctx Profile.count_code_pred;
                Some (bools (fun r -> (nz codes.(r) = tcodes.(r)) <> neg))
              | _ -> None
            in
            match f with
            | Plan.P_eq | Plan.P_ne -> (
              match code_pred () with
              | Some _ as res -> res
              | None -> (
                (* string equality via pool ids; code columns that missed
                   the int path materialize late into the query pool *)
                let c1 = materialize_codes ctx c1 in
                let c2 = materialize_codes ctx c2 in
                match (str_reader ctx.pool c1, str_reader ctx.pool c2) with
                | Some g1, Some g2 ->
                  if f = Plan.P_eq then Some (bools (fun r -> g1 r = g2 r))
                  else Some (bools (fun r -> g1 r <> g2 r))
                | _ -> None))
            | _ -> None)))
    | Plan.P_and | Plan.P_or -> (
      match (bool_reader c1, bool_reader c2) with
      | Some g1, Some g2 ->
        if f = Plan.P_and then Some (bools (fun r -> g1 r && g2 r))
        else Some (bools (fun r -> g1 r || g2 r))
      | _ -> None)
    | _ -> None
  in
  match typed with Some c -> c | None -> generic2 ctx.env run b f c1 c2

(* The filter: refine the selection without touching any column. Error
   behavior matches the boxed select row-for-row over the visible rows
   (rows dropped by an earlier select were never observable here; a
   morsel scans its rows in ascending order and the lowest failing
   morsel's error is the one re-raised, so the surfaced error is the
   serial one). Parallel morsels collect survivors into private vectors
   concatenated in morsel order — the serial selection exactly. *)
let select_sel ctx ~par b c =
  let test_of =
    match c with
    | Column.Bools bb -> Some (fun r -> Bytes.unsafe_get bb r <> '\000')
    | Column.Const _ -> None
    | _ ->
      Some
        (fun r ->
           match Column.get c r with
           | Value.Bool x -> x
           | v ->
             Err.dynamic "selection on non-boolean value %s"
               (Value.type_name v))
  in
  match test_of with
  | None -> (
    match c with
    | Column.Const { v = Value.Bool true; _ } ->
      let live = Vec.create 0 in
      iter_sel b (fun r -> Vec.push live r);
      Vec.to_array live
    | Column.Const { v = Value.Bool false; _ } -> [||]
    | Column.Const { v; _ } ->
      if b.nrows > 0 then
        Err.dynamic "selection on non-boolean value %s" (Value.type_name v)
      else [||]
    | _ -> assert false)
  | Some test ->
    let produce lo hi =
      let live = Vec.create 0 in
      iter_span b lo hi (fun r -> if test r then Vec.push live r);
      Vec.to_array live
    in
    let parts = map_spans ctx ~par b.nrows produce in
    (match parts with
     | [| s |] -> s
     | _ -> Array.concat (Array.to_list parts))

(* ------------------------------------------------------- breaker kernels *)

let check_disjoint l r =
  Array.iter
    (fun cl ->
       if Array.exists (String.equal cl) r then
         Err.internal "join: column %S on both sides" cl)
    l

(* Build a join output: typed gathers of both (compacted) sides through
   the match index pairs — no boxing, the payoff of the whole layer. *)
let join_output (l : batch) (r : batch) li ri =
  let n = Array.length li in
  let side (b : batch) idx =
    ( Array.map (fun c -> Column.gather c idx) b.cols,
      Array.map
        (function Some c -> Some (Column.gather c idx) | None -> None)
        b.typed )
  in
  let lc, lt = side l li and rc, rt = side r ri in
  { schema = Array.append l.schema r.schema;
    cols = Array.append lc rc;
    typed = Array.append lt rt;
    sel = None;
    nrows = n;
    base = n;
    table = None }

(* Matching key pairs via an int hash join — the boxed fast path's exact
   insertion/probe order, so the output row order agrees with it. The
   build side is sequential; the probe side (outer loop over [n1]) may
   fan out over morsels: the index is frozen by then (concurrent
   [Hashtbl] reads of an unmutated table are safe), and per-morsel match
   pairs concatenated in morsel order reproduce the serial i-outer,
   j-inner enumeration. *)
let int_join_indices ctx ~par g1 n1 g2 n2 =
  let module IT = Kernels.Int_tbl in
  let index : int Vec.t IT.t = IT.create (max 16 n2) in
  for j = 0 to n2 - 1 do
    let k = g2 j in
    match IT.find_opt index k with
    | Some v -> Vec.push v j
    | None ->
      let v = Vec.create 0 in
      Vec.push v j;
      IT.add index k v
  done;
  let probe lo hi =
    let li = Vec.create 0 and ri = Vec.create 0 in
    for i = lo to hi - 1 do
      match IT.find_opt index (g1 i) with
      | None -> ()
      | Some v ->
        Vec.iter
          (fun j ->
             Vec.push li i;
             Vec.push ri j)
          v
    done;
    (Vec.to_array li, Vec.to_array ri)
  in
  concat_pairs (map_spans ctx ~par n1 probe)

(* Normalized-code key readers for an equality join: [Some (g1, g2)]
   when the key pair can hash and compare as machine ints with no string
   ever materialized. Same-fragment Codes×Codes compares raw codes;
   Codes against interned strings (or a Const comparand) translates each
   distinct string into the fragment's code once — the reverse dictionary
   probe — with -1 for strings the fragment never contains (codes are
   non-negative, so -1 matches nothing). Code 0 (valueless row) and an
   interned "" both decode to "", hence the [norm] pass on every code
   read. Translation runs on the coordinator (pool reads and the memo
   are not domain-safe); the returned readers are pure array reads, safe
   under morsel fan-out. *)
let code_key_readers ctx lc rc =
  let store = ctx.env.Kernels.store in
  let norm frag =
    match Xmldb.Doc_store.code_of_text store frag "" with
    | Some e -> fun code -> if code = 0 then e else code
    | None -> fun code -> code
  in
  let translate frag n (get : int -> string) =
    let nz = norm frag in
    let memo : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let out = Array.make n (-1) in
    for i = 0 to n - 1 do
      let s = get i in
      out.(i) <-
        (match Hashtbl.find_opt memo s with
         | Some k -> k
         | None ->
           let k =
             if String.equal s "" then nz 0
             else
               match Xmldb.Doc_store.code_of_text store frag s with
               | Some k -> k
               | None -> -1
           in
           Hashtbl.add memo s k;
           k)
    done;
    fun i -> out.(i)
  in
  let coded frag (codes : int array) =
    let nz = norm frag in
    fun i -> nz codes.(i)
  in
  match (lc, rc) with
  | Column.Codes k1, Column.Codes k2 when k1.frag == k2.frag ->
    Some (coded k1.frag k1.codes, coded k1.frag k2.codes)
  | Column.Codes { frag; codes; _ }, Column.Strs { pool; ids } ->
    Some
      ( coded frag codes,
        translate frag (Array.length ids) (fun i -> String_pool.get pool ids.(i)) )
  | Column.Strs { pool; ids }, Column.Codes { frag; codes; _ } ->
    Some
      ( translate frag (Array.length ids) (fun i -> String_pool.get pool ids.(i)),
        coded frag codes )
  | Column.Codes { frag; codes; _ }, Column.Const { v = Value.Str s; n } ->
    Some (coded frag codes, translate frag n (fun _ -> s))
  | Column.Const { v = Value.Str s; n }, Column.Codes { frag; codes; _ } ->
    Some (translate frag n (fun _ -> s), coded frag codes)
  | _ -> None

(* Build-left over int key readers: same (i asc, j asc within i) pair
   order as [Kernels.join_indices_build_left] — matches accumulate per
   left row while the right side streams ascending, then emit
   left-major. Serial by construction (flipped joins never fan out). *)
let int_join_indices_build_left g1 n1 g2 n2 =
  let module IT = Kernels.Int_tbl in
  let index : int Vec.t IT.t = IT.create (max 16 n1) in
  for i = 0 to n1 - 1 do
    let k = g1 i in
    match IT.find_opt index k with
    | Some v -> Vec.push v i
    | None ->
      let v = Vec.create 0 in
      Vec.push v i;
      IT.add index k v
  done;
  let matches : int Vec.t option array = Array.make n1 None in
  for j = 0 to n2 - 1 do
    match IT.find_opt index (g2 j) with
    | None -> ()
    | Some v ->
      Vec.iter
        (fun i ->
           match matches.(i) with
           | Some m -> Vec.push m j
           | None ->
             let m = Vec.create 0 in
             Vec.push m j;
             matches.(i) <- Some m)
        v
  done;
  let li = Vec.create 0 and ri = Vec.create 0 in
  Array.iteri
    (fun i m ->
       match m with
       | None -> ()
       | Some v ->
         Vec.iter
           (fun j ->
              Vec.push li i;
              Vec.push ri j)
           v)
    matches;
  (Vec.to_array li, Vec.to_array ri)

let k_join ctx ~par ~build_left lb rb lcol rcname =
  check_disjoint lb.schema rb.schema;
  let lb = compact lb and rb = compact rb in
  if build_left then begin
    (* estimated-smaller left side carries the hash; the kernel emits the
       exact (i asc, j asc) pair order of the build-right paths, so this
       is purely a cost choice. Serial by construction (ppar is off for
       flipped joins). *)
    bump ctx Profile.count_build_flip;
    let lc0 = rcol ctx lb lcol and rc0 = rcol ctx rb rcname in
    let li, ri =
      match code_key_readers ctx lc0 rc0 with
      | Some (g1, g2) ->
        bump ctx Profile.count_code_pred;
        int_join_indices_build_left g1 lb.nrows g2 rb.nrows
      | None ->
        Kernels.join_indices_build_left (boxed_vis ctx lb lcol)
          (boxed_vis ctx rb rcname)
    in
    join_output lb rb li ri
  end
  else begin
    let lc0 = rcol ctx lb lcol and rc0 = rcol ctx rb rcname in
    match code_key_readers ctx lc0 rc0 with
    | Some (g1, g2) ->
      (* the join IS the equality predicate: translated once, it hashes
         and compares normalized dictionary codes — counted as a code
         predicate, and no key string is ever materialized *)
      bump ctx Profile.count_code_pred;
      let li, ri = int_join_indices ctx ~par g1 lb.nrows g2 rb.nrows in
      join_output lb rb li ri
    | None ->
      (* code-carrying keys that missed the int path materialize into the
         query pool here: a string hash join then runs on pool ids, not
         per-pair boxed compares *)
      let lc = materialize_codes ctx lc0 in
      let rc = materialize_codes ctx rc0 in
      let li, ri =
        match (int_reader lc, int_reader rc) with
        | Some g1, Some g2 -> int_join_indices ctx ~par g1 lb.nrows g2 rb.nrows
        | _ -> (
          match (str_reader ctx.pool lc, str_reader ctx.pool rc) with
          | Some g1, Some g2 ->
            int_join_indices ctx ~par g1 lb.nrows g2 rb.nrows
          | _ ->
            Kernels.join_indices (boxed_vis ctx lb lcol)
              (boxed_vis ctx rb rcname))
      in
      join_output lb rb li ri
  end

(* Inequality theta where untyped strings meet numerics: the boxed
   kernel takes its nested loop and re-coerces (re-parses!) the untyped
   side once per PAIR. Here each row is coerced to its xs:double key
   exactly once, then pairs compare as unboxed floats — same pair
   enumeration order (i-outer, j-inner), same NaN semantics
   ([float_cmp]: unordered compares false), and the first uncoercible
   value raises in the same position the nested loop would have reached
   it (row (0,0) coerces left then right, then the inner loop finishes
   the right side before the outer loop resumes the left).

   Only fires when exactly one side is all-numeric and the other mixes
   strings in — both-all-numeric stays on the boxed sort-based range
   join, and Str×Str pairs (string comparison, not coercion) or
   Bool/Node/QName operands (different rules per pair) stay on the
   boxed nested loop. *)
let theta_float_keys lvs rvs =
  let numeric = function Value.Int _ | Value.Dbl _ -> true | _ -> false in
  let coercible = function
    | Value.Int _ | Value.Dbl _ | Value.Str _ -> true
    | _ -> false
  in
  let all p a = Array.for_all p a in
  if
    Array.length lvs = 0
    || Array.length rvs = 0
    || not
         ((all numeric lvs && all coercible rvs && not (all numeric rvs))
          || (all numeric rvs && all coercible lvs && not (all numeric lvs)))
  then None
  else begin
    let lk = Array.make (Array.length lvs) 0.0 in
    let rk = Array.make (Array.length rvs) 0.0 in
    lk.(0) <- Value.float_value lvs.(0);
    Array.iteri (fun j v -> rk.(j) <- Value.float_value v) rvs;
    for i = 1 to Array.length lvs - 1 do
      lk.(i) <- Value.float_value lvs.(i)
    done;
    Some (lk, rk)
  end

(* The O(|l|·|r|) nested loop — the hottest loop on XMark Q11/Q12 and the
   main beneficiary of morsel parallelism: the outer (left) rows split
   into morsels, each enumerating its pairs in the serial i-outer,
   j-inner order; morsel-order concatenation restores the full serial
   pair order. *)
let theta_float_indices ctx ~par cmp lk rk =
  let test =
    match cmp with
    | Plan.P_lt -> fun c -> c < 0
    | Plan.P_le -> fun c -> c <= 0
    | Plan.P_gt -> fun c -> c > 0
    | Plan.P_ge -> fun c -> c >= 0
    | _ -> Err.internal "theta_float_indices: inequality expected"
  in
  let produce lo hi =
    let li = Vec.create 0 and ri = Vec.create 0 in
    for i = lo to hi - 1 do
      let x = lk.(i) in
      if not (Float.is_nan x) then
        Array.iteri
          (fun j y ->
             if (not (Float.is_nan y)) && test (Float.compare x y) then begin
               Vec.push li i;
               Vec.push ri j
             end)
          rk
    done;
    (Vec.to_array li, Vec.to_array ri)
  in
  concat_pairs (map_spans ctx ~par (Array.length lk) produce)

let k_thetajoin ctx ~par lb rb lcol cmp rcname =
  check_disjoint lb.schema rb.schema;
  let lb = compact lb and rb = compact rb in
  let li, ri =
    match cmp with
    | Plan.P_eq -> (
      (* int×int equality is coercion-free: safe for the typed path; an
         equality over code-carrying string keys hashes normalized
         dictionary codes instead — the same i-asc, j-asc pair order as
         the boxed nested loop, with no string ever materialized *)
      let lc0 = rcol ctx lb lcol and rc0 = rcol ctx rb rcname in
      match code_key_readers ctx lc0 rc0 with
      | Some (g1, g2) ->
        bump ctx Profile.count_code_pred;
        int_join_indices ctx ~par g1 lb.nrows g2 rb.nrows
      | None -> (
        match (int_reader lc0, int_reader rc0) with
        | Some g1, Some g2 ->
          int_join_indices ctx ~par g1 lb.nrows g2 rb.nrows
        | _ ->
          Kernels.theta_indices (boxed_vis ctx lb lcol) cmp
            (boxed_vis ctx rb rcname)))
    | Plan.P_lt | Plan.P_le | Plan.P_gt | Plan.P_ge -> (
      let lvs = boxed_vis ctx lb lcol and rvs = boxed_vis ctx rb rcname in
      match theta_float_keys lvs rvs with
      | Some (lk, rk) -> theta_float_indices ctx ~par cmp lk rk
      | None -> Kernels.theta_indices lvs cmp rvs)
    | _ ->
      (* everything else: matching stays boxed (the homogeneity/NaN
         analysis lives there), output stays typed *)
      Kernels.theta_indices (boxed_vis ctx lb lcol) cmp
        (boxed_vis ctx rb rcname)
  in
  join_output lb rb li ri

(* Semi/anti join: the output is the left batch with a composed selection
   — nothing materializes. The default path hashes the right side's keys
   (serial) and probes the left side, fanning the probe out over morsels
   exactly like the join probe: the key set is frozen before workers
   start, the boxed key arrays are materialized on the coordinator (no
   [String_pool] access inside the loop), and per-morsel kept indices
   concatenated in morsel order reproduce the serial ascending scan.
   [build_left] hashes the estimated-smaller left side instead and marks
   matches in one scan of the right — serial by construction ([ppar] is
   off for flipped semijoins). *)
let k_semijoin ctx ~par ~anti ~build_left lb rb on =
  (* single-key semijoins over code-carrying columns keep the match on
     normalized dictionary codes: the key column is gathered through the
     selection (gather preserves the Codes/Strs shape), so the readers
     index visible positions like the boxed key arrays do. Membership is
     symmetric, so build-side choice cannot change the kept set — both
     sides share one int-set probe. *)
  let code_keys =
    match on with
    | [ (lc, rc) ] ->
      let vis b name =
        let c = rcol ctx b name in
        match b.sel with None -> c | Some s -> Column.gather c s
      in
      code_key_readers ctx (vis lb lc) (vis rb rc)
    | _ -> None
  in
  let keep =
    match code_keys with
    | Some (g1, g2) ->
      bump ctx Profile.count_code_pred;
      if build_left then bump ctx Profile.count_build_flip;
      let module IT = Kernels.Int_tbl in
      let set : unit IT.t = IT.create (max 16 rb.nrows) in
      for j = 0 to rb.nrows - 1 do
        IT.replace set (g2 j) ()
      done;
      let probe lo hi =
        let keep = Vec.create 0 in
        for i = lo to hi - 1 do
          if IT.mem set (g1 i) <> anti then Vec.push keep i
        done;
        Vec.to_array keep
      in
      (match
         map_spans ctx ~par:(par && not build_left) lb.nrows probe
       with
       | [| one |] -> one
       | parts -> Array.concat (Array.to_list parts))
    | None ->
      let lkeys =
        Array.of_list (List.map (fun (lc, _) -> boxed_vis ctx lb lc) on)
      in
      let rkeys =
        Array.of_list (List.map (fun (_, rc) -> boxed_vis ctx rb rc) on)
      in
      if build_left then begin
        bump ctx Profile.count_build_flip;
        Kernels.semi_keep_build_left ~anti ~nl:lb.nrows ~nr:rb.nrows lkeys
          rkeys
      end
      else
        let set = Kernels.semi_key_set ~nr:rb.nrows rkeys in
        (match
           map_spans ctx ~par lb.nrows (fun lo hi ->
               Kernels.semi_probe set ~anti lkeys lo hi)
         with
        | [| one |] -> one
        | parts -> Array.concat (Array.to_list parts))
  in
  let sel' =
    match lb.sel with
    | None -> keep
    | Some s -> Array.map (fun k -> s.(k)) keep
  in
  bump ctx Profile.count_mat_avoided;
  { lb with sel = Some sel'; nrows = Array.length sel'; table = None }

let k_distinct ctx b =
  let n = Array.length b.schema in
  let keep =
    match (if n = 1 then int_reader (retyped ctx b 0) else None) with
    | Some g ->
      (* single int column: dedup without boxing *)
      let module IT = Kernels.Int_tbl in
      let seen : unit IT.t = IT.create (max 16 b.nrows) in
      let keep = Vec.create 0 in
      let k = ref 0 in
      iter_sel b (fun r ->
          let key = g r in
          if not (IT.mem seen key) then begin
            IT.add seen key ();
            Vec.push keep !k
          end;
          incr k);
      Vec.to_array keep
    | None ->
      let cols = Array.init n (fun i -> boxed_vis ctx b b.schema.(i)) in
      let seen = Kernels.Row_tbl.create (max 16 b.nrows) in
      let keep = Vec.create 0 in
      for k = 0 to b.nrows - 1 do
        let key = Array.map (fun c -> c.(k)) cols in
        if not (Kernels.Row_tbl.mem seen key) then begin
          Kernels.Row_tbl.add seen key ();
          Vec.push keep k
        end
      done;
      Vec.to_array keep
  in
  let sel' =
    match b.sel with
    | None -> keep
    | Some s -> Array.map (fun k -> s.(k)) keep
  in
  bump ctx Profile.count_mat_avoided;
  { b with sel = Some sel'; nrows = Array.length sel'; table = None }

let k_project b cols =
  let idx = Array.of_list (List.map (fun (_, src) -> col_pos b src) cols) in
  { schema = Array.of_list (List.map fst cols);
    cols = Array.map (fun i -> b.cols.(i)) idx;
    typed = Array.map (fun i -> b.typed.(i)) idx;
    sel = b.sel;
    nrows = b.nrows;
    base = b.base;
    table = None }

let k_union lb rb =
  if Array.length lb.schema <> Array.length rb.schema then
    Err.internal "Table.union: schema arity mismatch";
  let lb = compact lb and rb = compact rb in
  let cols =
    Array.mapi
      (fun i name -> Column.append lb.cols.(i) rb.cols.(col_pos rb name))
      lb.schema
  in
  { schema = lb.schema;
    cols;
    typed = Array.make (Array.length cols) None;
    sel = None;
    nrows = lb.nrows + rb.nrows;
    base = lb.nrows + rb.nrows;
    table = None }

let k_rowid ctx ~par b res =
  match b.sel with
  | None ->
    (* dense numbering is MonetDB's void column: O(1), nothing stored *)
    bump ctx Profile.count_mat_avoided;
    with_col b res (Column.seq ~start:1 b.nrows)
  | Some s ->
    (* scattered: number the selected rows 1..n in selection order; each
       write targets [s.(i)] and the selection is injective, so morsels
       scatter into disjoint slots *)
    let out = Array.make b.base 0 in
    run_spans ctx ~par (Array.length s) (fun lo hi ->
        for i = lo to hi - 1 do
          out.(s.(i)) <- i + 1
        done);
    with_col b res (Column.Ints out)

(* Rownum: the pipeline breaker the paper's cost model revolves around.
   Compact, sort a permutation — typed comparators where columns are
   typed; [Value.compare_total] agrees with [Int.compare]/[Float.compare]
   on homogeneous columns — then number within partitions. *)
let k_rownum ctx b res order part merge_hint =
  let b = compact b in
  let n = b.nrows in
  let cmp_of name =
    let i = col_pos b name in
    match retyped ctx b i with
    | Column.Ints a -> fun x y -> Int.compare a.(x) a.(y)
    | Column.Seq _ -> Int.compare
    | Column.Dbls a -> fun x y -> Float.compare a.(x) a.(y)
    | Column.Const _ -> fun _ _ -> 0
    | Column.Nodes { frag; pre } ->
      (* (frag, pre) lexicographically = [Node_id.compare] = the total
         order on homogeneous node columns *)
      fun x y ->
        let c = Int.compare frag.(x) frag.(y) in
        if c <> 0 then c else Int.compare pre.(x) pre.(y)
    | Column.Strs { pool; ids } ->
      fun x y ->
        String.compare (String_pool.get pool ids.(x))
          (String_pool.get pool ids.(y))
    | Column.Codes { frag; pool; codes } ->
      let s i =
        let id = Xmldb.Doc_store.text_id_of_code frag codes.(i) in
        if id < 0 then "" else String_pool.get pool id
      in
      fun x y -> String.compare (s x) (s y)
    | _ -> (
      (* genuinely heterogeneous: compare the boxed values in place —
         never [Column.get] on a typed rep, which would allocate a box
         per comparison inside the sort *)
      match b.cols.(i) with
      | Column.Mixed vs -> fun x y -> Value.compare_total vs.(x) vs.(y)
      | c -> fun x y -> Value.compare_total (Column.get c x) (Column.get c y))
  in
  let ocmps = List.map (fun (name, d) -> (cmp_of name, d)) order in
  let pcmp = Option.map cmp_of part in
  let perm = Array.init n (fun i -> i) in
  let compare_rows a bi =
    let pc = match pcmp with None -> 0 | Some c -> c a bi in
    if pc <> 0 then pc
    else
      let rec go = function
        | [] -> Int.compare a bi (* stability tie-break *)
        | (c, d) :: rest ->
          let cmp = c a bi in
          let cmp = match d with Plan.Asc -> cmp | Plan.Desc -> -cmp in
          if cmp <> 0 then cmp else go rest
      in
      go ocmps
  in
  (* Piecewise-sorted input (ordering analysis bounded the run count,
     e.g. a union of per-branch sorted sides): detect the runs in one
     linear scan and replace the O(n log n) sort with a bottom-up merge
     of adjacent runs. [compare_rows] is a total order (row-position
     tie-break), so the merge result is the unique sorted permutation —
     bit-identical to [Array.sort]. Fall back to the full sort if the
     input has more runs than promised (the hint is a performance claim;
     correctness never depends on it). *)
  let merged =
    match merge_hint with
    | None -> false
    | Some hint ->
      let cap = max hint 64 in
      let bounds = ref [ 0 ] and runs = ref 1 in
      (try
         for i = 1 to n - 1 do
           if compare_rows (i - 1) i > 0 then begin
             incr runs;
             if !runs > cap then raise Exit;
             bounds := i :: !bounds
           end
         done;
         let segments =
           (* (lo, hi) run extents, in input order *)
           let rec go hi acc = function
             | [] -> acc
             | lo :: rest -> go lo ((lo, hi) :: acc) rest
           in
           go n [] !bounds
         in
         let arrays =
           List.map (fun (lo, hi) -> Array.init (hi - lo) (fun k -> lo + k))
             segments
         in
         let merge xs ys =
           let nx = Array.length xs and ny = Array.length ys in
           let out = Array.make (nx + ny) 0 in
           let i = ref 0 and j = ref 0 in
           for k = 0 to nx + ny - 1 do
             if
               !i < nx
               && (!j >= ny || compare_rows xs.(!i) ys.(!j) <= 0)
             then begin
               out.(k) <- xs.(!i);
               incr i
             end
             else begin
               out.(k) <- ys.(!j);
               incr j
             end
           done;
           out
         in
         let rec rounds = function
           | [] -> ()
           | [ final ] -> Array.blit final 0 perm 0 n
           | many ->
             let rec pair = function
               | a :: c :: rest -> merge a c :: pair rest
               | tail -> tail
             in
             rounds (pair many)
         in
         rounds arrays;
         bump ctx Profile.count_sort_merge;
         true
       with Exit -> false)
  in
  if not merged then Array.sort compare_rows perm;
  let out = Array.make n 0 in
  (match pcmp with
   | None -> Array.iteri (fun k r -> out.(r) <- k + 1) perm
   | Some pc ->
     (* partition equality is comparator equality: [Value.equal] is
        defined as [compare_total = 0], so this matches the boxed
        counter's restart points exactly *)
     let counter = ref 0 in
     let last = ref (-1) in
     Array.iter
       (fun r ->
          (match !last with
           | -1 -> counter := 1
           | lr -> if pc lr r = 0 then incr counter else counter := 1);
          last := r;
          out.(r) <- !counter)
       perm);
  with_col b res (Column.Ints out)

(* Int-keyed grouped fold with partial aggregation over morsels: every
   morsel folds its contiguous range of visible rows into a private
   (first-seen key order, accumulator table) pair; the coordinator merges
   the partials *in morsel order*, combining accumulators for keys seen
   by several morsels. Because morsels are contiguous, in-order slices of
   the scan, walking their first-seen key sequences in morsel order while
   skipping already-merged keys reproduces the global first-seen group
   order of the serial scan exactly ([Kernels.group_rows] order). The
   combiner must be associative over row-range splits — count, sum, min,
   max are — and the fold of a single morsel is the serial fold, so the
   serial path is just the one-morsel case. *)
let int_grouped ctx ~par b ~(g : int -> int) ~(of_row : int -> int)
    ~(combine : int -> int -> int) =
  let module IT = Kernels.Int_tbl in
  let fold lo hi =
    let order_v = Vec.create 0 in
    let accs : int ref IT.t = IT.create 64 in
    let step r =
      let k = g r in
      match IT.find_opt accs k with
      | Some a -> a := combine !a (of_row r)
      | None ->
        IT.add accs k (ref (of_row r));
        Vec.push order_v k
    in
    (match b.sel with
     | None -> for r = lo to hi - 1 do step r done
     | Some s -> for i = lo to hi - 1 do step s.(i) done);
    (order_v, accs)
  in
  let parts = map_spans ctx ~par b.nrows fold in
  let order_v, accs =
    match parts with
    | [| one |] -> one
    | _ ->
      let order_v = Vec.create 0 in
      let accs : int ref IT.t = IT.create 64 in
      Array.iter
        (fun (ov, av) ->
           Vec.iter
             (fun k ->
                let v = !(IT.find av k) in
                match IT.find_opt accs k with
                | Some a -> a := combine !a v
                | None ->
                  IT.add accs k (ref v);
                  Vec.push order_v k)
             ov)
        parts;
      (order_v, accs)
  in
  let n = Vec.length order_v in
  let keys = Array.make n 0 and vals = Array.make n 0 in
  Vec.iteri
    (fun i k ->
       keys.(i) <- k;
       vals.(i) <- !(IT.find accs k))
    order_v;
  (keys, vals)

(* Aggregation: typed paths for the order-indifferent shapes — count, and
   integer sum/min/max, grouped by an int column (iter grouping, the
   overwhelmingly common case), first-seen group order exactly like
   [Kernels.group_rows] — everything else boxed. On the boxed path
   atomize is the identity on Int, [numeric_view] maps Int to itself, an
   all-Int sum folds to an Int, and min/max pick an Int by integer
   comparison with no NaN involved — so these typed results are
   value-identical to the boxed ones. *)
let k_aggr ctx ~par b res agg arg part order =
  let boxed () =
    let t = to_table ctx b in
    of_table
      (Kernels.eval_aggr ctx.env.Kernels.store t res agg arg part order)
  in
  let grouped p ~g ~of_row ~combine =
    let keys, vals = int_grouped ctx ~par b ~g ~of_row ~combine in
    let n = Array.length keys in
    { schema = [| p; res |];
      cols = [| Column.Ints keys; Column.Ints vals |];
      typed = [| None; None |];
      sel = None;
      nrows = n;
      base = n;
      table = None }
  in
  match (agg, part) with
  | Plan.A_count, None ->
    of_table (Table.of_rows [| res |] [ [| Value.Int b.nrows |] ])
  | Plan.A_count, Some p -> (
    match int_reader (rcol ctx b p) with
    | None -> boxed ()
    | Some g -> grouped p ~g ~of_row:(fun _ -> 1) ~combine:( + ))
  | (Plan.A_sum | Plan.A_min | Plan.A_max), Some p -> (
    match
      ( int_reader (rcol ctx b p),
        Option.map (fun a -> int_reader (rcol ctx b a)) arg )
    with
    | Some g, Some (Some ga) ->
      let combine =
        match agg with
        | Plan.A_sum -> ( + )
        | Plan.A_min -> min
        | _ -> max
      in
      grouped p ~g ~of_row:ga ~combine
    | _ -> boxed ())
  | _ -> boxed ()

(* ------------------------------------------------------------- dispatcher *)

let exec_kernel ctx (p : pnode) (inputs : batch list) : batch =
  let one () =
    match inputs with
    | [ b ] -> b
    | _ -> Err.internal "physical kernel arity: one input expected"
  in
  let two () =
    match inputs with
    | [ a; b ] -> (a, b)
    | _ -> Err.internal "physical kernel arity: two inputs expected"
  in
  let par = p.ppar in
  match p.pop with
  | K_select col ->
    let b = one () in
    let s = select_sel ctx ~par b (rcol ctx b col) in
    bump ctx Profile.count_mat_avoided;
    { b with sel = Some s; nrows = Array.length s; table = None }
  | K_attach (res, v) ->
    let b = one () in
    with_col b res (Column.const v b.base)
  | K_fun1 (res, f, a) ->
    let b = one () in
    let c = rcol ctx b a in
    with_col b res (fun1_col ctx (row_runner ctx ~par b) b f c)
  | K_fun2 (res, f, a1, a2) ->
    let b = one () in
    let c1 = rcol ctx b a1 in
    let c2 = rcol ctx b a2 in
    with_col b res (fun2_col ctx (row_runner ctx ~par b) b f c1 c2)
  | K_fun3 (res, f, a1, a2, a3) ->
    let b = one () in
    let c1 = rcol ctx b a1 in
    let c2 = rcol ctx b a2 in
    let c3 = rcol ctx b a3 in
    with_col b res (generic3 ctx.env (row_runner ctx ~par b) b f c1 c2 c3)
  | K_project cols -> k_project (one ()) cols
  | K_distinct -> k_distinct ctx (one ())
  | K_union ->
    let l, r = two () in
    k_union l r
  | K_rowid res -> k_rowid ctx ~par (one ()) res
  | K_rownum { res; order; part; merge_hint } ->
    k_rownum ctx (one ()) res order part merge_hint
  | K_join { lcol; rcol; build_left } ->
    let l, r = two () in
    k_join ctx ~par ~build_left l r lcol rcol
  | K_thetajoin { lcol; cmp; rcol } ->
    let l, r = two () in
    k_thetajoin ctx ~par l r lcol cmp rcol
  | K_semijoin { anti; on; build_left } ->
    let l, r = two () in
    k_semijoin ctx ~par ~anti ~build_left l r on
  | K_aggr { res; agg; arg; part; order } ->
    k_aggr ctx ~par (one ()) res agg arg part order
  | K_boxed op ->
    let tables = List.map (to_table ctx) inputs in
    of_table (Kernels.eval_op ctx.env op tables)

let rec eval ctx (p : pnode) : batch =
  match
    (match ctx.mode with
     | Eval.Dag -> Hashtbl.find_opt ctx.cache p.pid
     | Eval.Tree -> None)
  with
  | Some b -> b
  | None ->
    (* the kernel boundary: deadline / op budget / cancellation / fault
       injection fire here, once per kernel invocation. Kernels map 1:1
       onto logical nodes, so a physical run makes exactly the checks the
       boxed executor makes for the same plan. *)
    (match ctx.guard with Some g -> Budget.check g | None -> ());
    (match ctx.mode with
     | Eval.Dag -> List.iter (fun c -> ignore (eval ctx c)) p.pinputs
     | Eval.Tree -> ());
    let t0 = match ctx.profile with Some _ -> Clock.now () | None -> 0.0 in
    ctx.kernels <- ctx.kernels + 1;
    let inputs = List.map (eval ctx) p.pinputs in
    let out = exec_kernel ctx p inputs in
    (match ctx.guard with
     | Some g ->
       Budget.add_rows g out.nrows;
       if Budget.wants_bytes g then Budget.add_bytes g (budget_bytes out)
     | None -> ());
    (match ctx.profile with
     | Some prof ->
       let dt = Clock.now () -. t0 in
       Profile.add prof p.plabel dt;
       Profile.add_node prof p.pid p.plabel dt;
       Profile.add_kernel prof
         ~rows_in:(List.fold_left (fun acc b -> acc + b.nrows) 0 inputs)
         ~rows_out:out.nrows
     | None -> ());
    (match ctx.mode with
     | Eval.Dag -> Hashtbl.add ctx.cache p.pid out
     | Eval.Tree -> ());
    out

(* Evaluate a whole physical plan; the result is boxed for the
   serialization boundary (the one materialization every query pays).
   [jobs] > 1 enables morsel parallelism on the kernels the lowering
   marked order-indifferent; results, errors and profile counters are
   bit-identical to [jobs = 1]. [morsel] overrides the minimum rows per
   morsel (default 1024, or XRQ_MORSEL). *)
let run ?profile ?guard ?step_impl ?mode ?jobs ?morsel ?code_eval store
    (root : pnode) : Table.t =
  let ctx =
    create ?profile ?guard ?step_impl ?mode ?jobs ?morsel ?code_eval store
  in
  let out = eval ctx root in
  bump ctx (fun p ->
      Profile.add_bulk_decodes p (Atomic.get ctx.env.Kernels.bulk_decodes));
  to_table ctx out

(* The physical executor: evaluates the optimized plan DAG over typed
   column batches instead of boxed value tables.

   Typed columns ([Column]) carry the speedup: batches hold unboxed
   int/float/bool/string-id/node-id arrays, one representation per
   column — a boxed column is converted the first time a typed kernel
   reads it and replaced by the result — kept typed across operators, in
   particular across the [Column.gather]s that build join, selection and
   duplicate-elimination outputs. Batches are dense: every column holds
   exactly the batch's rows, so every kernel reads whole columns.
   Materialization into boxed tables is forced only for boxed-fallback
   kernels and the final serialization.

   It runs the plan as it is: every plan node is exactly one kernel,
   chosen by the node's operator, so every node's output is a batch of
   its own.

   Node construction is typed too: the elem, attr, text, comment and
   textify kernels build one fragment per call through the store's
   [Doc_store.Builder] and return typed batches (see "construction"
   below). Everything without a typed implementation — Lit, Cross, Doc,
   Range, Id_lookup, the PI constructor — falls back to the boxed
   kernels ([Kernels.eval_op]) through cached table conversions, so the
   physical layer never has to be complete to be correct. Exact
   equality — the [=]/[!=] predicate, equi-joins, the eq theta join and
   single-key semi/antijoins — reads its keys through one reader
   ([match_keys]) as machine ints (ints, store text ids); distinct reads
   its keys as machine ints too. Matching picks
   per call how to enumerate pairs from what the keys look like:
   identical strictly ascending keys join zero-copy, two ascending sides
   merge, anything else goes through one flat hash index
   ([Basis.Int_index]).
   Inequality theta joins read their keys typed too, one xs:double per
   row, sort the left keys once, binary-search each right row's bound
   and sweep the pairs into exactly sized arrays (see "inequality theta
   joins" below).
   Every path emits the reference executor's pair order (left rows
   ascending, right rows ascending within each), so both executors agree
   bit-for-bit, including row order (Rownum's stability tie-break makes
   row order observable).
   Keys that need the boxed equality or comparison rules and multi-key
   semijoins keep the boxed matchers ([Kernels.join_indices] /
   [theta_indices] / [semi_keep]), and float comparisons replicate the
   boxed [Value] semantics (unordered on NaN, total [Float.compare]
   otherwise).

   Resource governance: one [Budget.check] per kernel invocation, and one
   kernel per logical node, so a physical run passes exactly the boxed
   executor's check boundaries and charges the same rows. Byte accounting
   deliberately charges the *boxed-equivalent* footprint, so a byte
   budget governs the same logical materialization on either executor
   rather than rewarding the cheaper representation.

   Morsel-driven parallelism ([jobs > 1]): kernels whose output order the
   optimizer proved immaterial — exactly the rowid/[#] shapes and
   order-indifferent aggregates of the paper ([parallelizable]) — split
   their row loops into contiguous row-range morsels
   executed on a fixed domain pool ([Basis.Pool]). Determinism is by
   construction, not by luck:

     - each morsel covers a contiguous range of rows and writes either
       disjoint rows of a shared output column or a private buffer;
       per-morsel buffers are concatenated in morsel order, so output row
       order is bit-identical to serial;
     - partial aggregates merge per-morsel tables in morsel order, which
       reproduces the serial first-seen group order (morsels are
       contiguous and in order); integer sums merge exactly
       ([Value.int_sum]), so whether one overflows does not depend on
       the split;
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

   Retyping and typed-path dispatch happen on the coordinator before a
   row loop fans out; workers only read frozen columns and the document
   store (whose reads are pure). [%]-bearing kernels (Rownum), Distinct,
   merge joins, inequality theta joins, [#] stamps, steps, node
   construction and boxed fallbacks stay serial. *)

open Basis

(* ------------------------------------------------------------- kernels *)

(* The kernel that runs a plan operator, as plan dumps name it: the
   operators with a typed implementation name their kernel, node
   construction included (elem, attr, text, comment, textify); the rest
   (Lit, Cross, Doc, Range, Id_lookup and the PI constructor) runs the
   boxed kernel over converted inputs. *)
let kernel_name : Plan.op -> string = function
  | Plan.Select _ -> "select"
  | Plan.Attach _ -> "attach"
  | Plan.Fun1 _ -> "fun1"
  | Plan.Fun2 _ -> "fun2"
  | Plan.Fun3 _ -> "fun3"
  | Plan.Project _ -> "project"
  | Plan.Distinct _ -> "distinct"
  | Plan.Union _ -> "union"
  | Plan.Rowid _ -> "rowid"
  | Plan.Rownum _ -> "rownum"
  | Plan.Join _ -> "join"
  | Plan.Thetajoin _ -> "thetajoin"
  | Plan.Semijoin _ -> "semijoin"
  | Plan.Antijoin _ -> "antijoin"
  | Plan.Aggr _ -> "aggr"
  | Plan.Step _ -> "step"
  | (Plan.Elem _ | Plan.Attr _ | Plan.Textnode _ | Plan.Commentnode _
    | Plan.Textify _) as op -> Plan.op_symbol op
  | op -> "boxed:" ^ Plan.op_symbol op

(* Order-indifference licence per kernel — the plan-shape story of the
   paper, mapped onto the executor: Rowid is the [#] shape (order
   immaterial — dense renumbering at the end), Rownum is the [%] shape
   (an order the query can observe). So the per-row select/attach/fun
   kernels, the probes of joins, eq theta joins and semijoins and the
   order-indifferent aggregates (count/sum/min/max) may fan out over
   morsels, while Rownum — and everything whose matching logic is
   inherently sequential (Distinct's first-wins dedup, Union's append,
   the loop-lifted step's run-by-run walk, the inequality theta join's
   sort-based sweep) or boxed — stays serial. A [#] stamp has no row loop to split: it is one O(1)
   [Column.seq], so sort elision (% becoming #) removes a sort rather
   than adding parallel work. *)
let parallelizable : Plan.op -> bool = function
  | Plan.Select _ | Plan.Attach _ | Plan.Fun1 _ | Plan.Fun2 _ | Plan.Fun3 _
  | Plan.Join _ | Plan.Semijoin _ | Plan.Antijoin _
  | Plan.Thetajoin { cmp = Plan.P_eq; _ } -> true
  | Plan.Aggr { agg = Plan.A_count | Plan.A_sum | Plan.A_min | Plan.A_max; _ }
    -> true
  | _ -> false

(* ---------------------------------------------------------------- batches *)

(* A batch is a set of columns, each exactly [nrows] long: a kernel that
   drops rows (Select, Semijoin/Antijoin, Distinct) gathers every column
   through the surviving row indices ([gather_rows]).

   Each column has one representation. A column entering from the boxed
   world is [Mixed] until a typed kernel reads it; [retyped] then writes
   the typed column over it, in place. [table] caches the whole-batch
   boxed view, the one second view: boxed kernels and the final
   serialization read it, so a boxed consumer of a typed column boxes
   it once. *)
type batch = {
  schema : string array;
  cols : Column.t array;  (* entries replaced by [retyped] *)
  nrows : int;
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

(* Per-morsel row indices, concatenated in morsel order. *)
let concat_rows = function
  | [| one |] -> one
  | parts -> Array.concat (Array.to_list parts)

let of_table t =
  let n = Table.nrows t in
  let cols = Array.map (fun c -> Column.Mixed c) (Table.columns t) in
  { schema = Table.schema t; cols; nrows = n; table = Some t }

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

(* The column, after an attempt to tighten Mixed to a typed
   representation. A typed result replaces the Mixed column in [cols],
   so every later reader of the batch reads it typed. A column that
   scans as heterogeneous stays Mixed and is scanned again at its
   next typed read. *)
let retyped ctx b i =
  match b.cols.(i) with
  | Column.Mixed vs when Array.length vs > 0 -> (
    match Column.of_values vs with
    | Column.Mixed _ as c -> c
    | c ->
      bump ctx Profile.count_retype;
      b.cols.(i) <- c;
      c)
  | c -> c

let rcol ctx b name = retyped ctx b (col_pos b name)

(* Append one column over the same rows. *)
let with_col b name c =
  { b with
    schema = Array.append b.schema [| name |];
    cols = Array.append b.cols [| c |];
    table = None }

(* The rows [idx] of [b], in that order: one gather per column, in
   whatever representation the column has (a [Const] stays [Const]). *)
let gather_rows b idx =
  { schema = b.schema;
    cols = Array.map (fun c -> Column.gather c idx) b.cols;
    nrows = Array.length idx;
    table = None }

(* Boxing a text-id column reads every row's string out of the store's
   pool: counted as a late materialization, once per column use,
   coordinator-side. *)
let count_late_mat ctx = function
  | Column.Strs _ -> bump ctx Profile.count_late_mat
  | _ -> ()

(* The boxed view of a batch — the bridge into boxed-fallback kernels and
   the final serialization. Cached; counted as a forced materialization
   the first time. *)
let to_table ctx b =
  match b.table with
  | Some t -> t
  | None ->
    bump ctx Profile.count_mat_forced;
    Array.iter (count_late_mat ctx) b.cols;
    let t =
      Table.create b.schema (Array.map Column.to_values b.cols) b.nrows
    in
    b.table <- Some t;
    t

(* A single column, boxed (for key columns of matching kernels that have
   no typed path). A Mixed column is read as it is, with no retype scan;
   a typed one is boxed per row. *)
let boxed_col ctx b name =
  let c = b.cols.(col_pos b name) in
  count_late_mat ctx c;
  Column.to_values c

(* Boxed-equivalent byte estimate (see the module comment for why this
   is not the typed footprint). *)
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
         Array.iter
           (fun id ->
              total := !total + 32 + String.length (String_pool.get pool id))
           ids
       | Column.Mixed vs ->
         Array.iter (fun v -> total := !total + Value.estimated_bytes v) vs)
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

(* ------------------------------------------------------------ key reader *)

(* Every exact equality — the [=]/[!=] predicate, equi-joins, the eq
   theta join and single-key semi/antijoins — reads its two key columns
   through [match_keys], as machine-int arrays indexed like the columns:
   equal ints are equal keys. *)

(* Int keys of an int column ([Ints] shares its array). *)
let int_keys c =
  match c with
  | Column.Ints a -> Some a
  | Column.Seq { start; n } -> Some (Array.init n (fun i -> start + i))
  | Column.Const { v = Value.Int x; n } -> Some (Array.make n x)
  | _ -> None

(* Text-pool keys of one side of a string equality. A [Strs] column over
   [pool] is its own key array. A string [Const], or a non-empty
   all-string [Mixed] column, looks each distinct string up in [pool]
   once, -1 for a string the store never holds: every value row of the
   store has an id >= 0, so -1 matches nothing. *)
let text_keys pool c =
  let lookup s = Option.value ~default:(-1) (String_pool.find_opt pool s) in
  match c with
  | Column.Strs { pool = p; ids } when p == pool -> Some ids
  | Column.Const { v = Value.Str s; n } -> Some (Array.make n (lookup s))
  | Column.Mixed vs when Array.length vs > 0 -> (
    let memo = Hashtbl.create 16 in
    let id s =
      match Hashtbl.find_opt memo s with
      | Some k -> k
      | None ->
        let k = lookup s in
        Hashtbl.add memo s k;
        k
    in
    try
      Some (Array.map (function Value.Str s -> id s | _ -> raise Exit) vs)
    with Exit -> None)
  | _ -> None

(* The key reader: a pair with a text-id column keys both sides on the
   store's text pool (counted as a code predicate, once per kernel), an
   int pair reads as ints. [None]: the boxed rules decide — so two
   strings outside the store (literals, computed strings) compare by
   [Value.equal], as they do under [code_eval] off. *)
let match_keys ctx lc rc =
  match (lc, rc) with
  | Column.Strs { pool; _ }, _ | _, Column.Strs { pool; _ } -> (
    match (text_keys pool lc, text_keys pool rc) with
    | Some lk, Some rk ->
      bump ctx Profile.count_code_pred;
      Some (lk, rk)
    | _ -> None)
  | _ -> (
    match (int_keys lc, int_keys rc) with
    | Some lk, Some rk -> Some (lk, rk)
    | _ -> None)

(* --------------------------------------------------------- per-row kernels *)

(* The row loop of one compute kernel (Select, Fun1/2/3): [run f]
   applies [f] to every row — inline, or sliced into morsels on the pool
   when the kernel is order-indifferent. Distinct morsels see disjoint
   rows, so per-row writes to a shared output never overlap. The
   coordinator does all retyping and typed-path dispatch before the loop
   fans out. *)
let row_runner ctx ~par b =
  fun f ->
    run_spans ctx ~par b.nrows (fun lo hi -> for r = lo to hi - 1 do f r done)

(* Generic per-row fallback: boxed application to every row.
   [Kernels.apply*] only read the store (node string-values, names):
   pure, so safe on worker domains. *)
let generic1 env run b f c =
  let out = Array.make b.nrows (Value.Int 0) in
  run (fun r ->
      out.(r) <- Kernels.apply1 env.Kernels.store f (Column.get c r));
  Column.Mixed out

let generic2 env run b f c1 c2 =
  let out = Array.make b.nrows (Value.Int 0) in
  run (fun r ->
      out.(r) <-
        Kernels.apply2 env.Kernels.store f (Column.get c1 r) (Column.get c2 r));
  Column.Mixed out

let generic3 env run b f c1 c2 c3 =
  let out = Array.make b.nrows (Value.Int 0) in
  run (fun r ->
      out.(r) <-
        Kernels.apply3 env.Kernels.store f (Column.get c1 r) (Column.get c2 r)
          (Column.get c3 r));
  Column.Mixed out

(* Compressed execution of atomize/string over a node column: when every
   row is a value-carrying kind (attribute / text / comment / PI — whose
   XDM string value IS the row's own value), the result is the rows'
   store text ids ([Column.Strs]), in any number of fragments, and only
   materializes at consumers that need the text. Elements and documents
   (string value concatenates descendants) fall back to the generic
   boxed path. The eligibility scan runs on the coordinator; the fill
   loop only reads packed columns (pure), so it may fan out over
   morsels. *)
let text_ids ctx run b (frag : int array) (pre : int array) =
  let store = ctx.env.Kernels.store in
  let row_frag r = Xmldb.Doc_store.frag store frag.(r) in
  let rec values r =
    r >= b.nrows
    || (match Xmldb.Doc_store.kind_at (row_frag r) pre.(r) with
        | Xmldb.Node_kind.Attribute | Xmldb.Node_kind.Text
        | Xmldb.Node_kind.Comment | Xmldb.Node_kind.Processing_instruction ->
          values (r + 1)
        | Xmldb.Node_kind.Element | Xmldb.Node_kind.Document -> false)
  in
  if b.nrows = 0 || not (values 0) then None
  else begin
    let ids = Array.make b.nrows 0 in
    run (fun r -> ids.(r) <- Xmldb.Doc_store.value_at (row_frag r) pre.(r));
    Some (Column.Strs { pool = Xmldb.Doc_store.text_pool store; ids })
  end

(* Unary kernels with a typed path; everything else runs generic. *)
let fun1_col ctx run b f c =
  let typed =
    match f with
    | Plan.P_atomize when ctx.env.Kernels.code_eval -> (
      match c with
      | Column.Nodes { frag; pre } -> text_ids ctx run b frag pre
      (* atomization only transforms nodes: every typed non-node column
         (a string literal kept Const, in particular) passes through
         unchanged — which is what lets a comparand survive to the
         predicate as a Const the key reader looks up once *)
      | Column.Ints _ | Column.Dbls _ | Column.Bools _ | Column.Strs _
      | Column.Seq _ -> Some c
      | Column.Const { v = Value.Node _; _ } -> None
      | Column.Const _ -> Some c
      | Column.Mixed _ -> None)
    | Plan.P_string when ctx.env.Kernels.code_eval -> (
      match c with
      | Column.Nodes { frag; pre } -> text_ids ctx run b frag pre
      | Column.Strs _ | Column.Const { v = Value.Str _; _ } ->
        (* string() of a string: identity *)
        Some c
      | _ -> None)
    | Plan.P_not ->
      (* the ebv of a Bool is the Bool itself, so negation is direct *)
      Option.map
        (fun g ->
           let out = Bytes.make b.nrows '\000' in
           run (fun r -> if not (g r) then Bytes.set out r '\001');
           Column.Bools out)
        (bool_reader c)
    | Plan.P_neg | Plan.P_abs -> (
      match c with
      | Column.Ints a ->
        let out = Array.make b.nrows 0 in
        let op = if f = Plan.P_neg then Value.neg_int else Value.abs_int in
        run (fun r -> out.(r) <- op a.(r));
        Some (Column.Ints out)
      | Column.Dbls a ->
        let out = Array.make b.nrows 0.0 in
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
    let out = Bytes.make b.nrows '\000' in
    run (fun r -> if g r then Bytes.set out r '\001');
    Column.Bools out
  in
  let ints g =
    let out = Array.make b.nrows 0 in
    run (fun r -> out.(r) <- g r);
    Column.Ints out
  in
  let dbls g =
    let out = Array.make b.nrows 0.0 in
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
          | Plan.P_add -> Some (ints (fun r -> Value.add_int (g1 r) (g2 r)))
          | Plan.P_sub -> Some (ints (fun r -> Value.sub_int (g1 r) (g2 r)))
          | Plan.P_mul -> Some (ints (fun r -> Value.mul_int (g1 r) (g2 r)))
          | Plan.P_idiv ->
            Some
              (ints (fun r ->
                   let y = g2 r in
                   if y = 0 then Err.dynamic "integer division by zero";
                   Value.idiv_int (g1 r) y))
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
            match f with
            | Plan.P_eq | Plan.P_ne ->
              (* string equality, on the matchers' key reader *)
              let neg = f = Plan.P_ne in
              Option.map
                (fun (k1, k2) -> bools (fun r -> (k1.(r) = k2.(r)) <> neg))
                (match_keys ctx c1 c2)
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

(* The filter: the surviving rows, gathered. Error behavior matches the
   boxed select row for row (a morsel scans its rows in ascending order
   and the lowest failing morsel's error is the one re-raised, so the
   surfaced error is the serial one). Parallel morsels collect survivors
   into private vectors concatenated in morsel order — the serial
   survivors exactly. A constant-true column keeps every row: the input
   is the output. *)
let k_select ctx ~par b c =
  let test =
    match c with
    | Column.Bools bb -> fun r -> Bytes.unsafe_get bb r <> '\000'
    | _ -> (
      fun r ->
        match Column.get c r with
        | Value.Bool x -> x
        | v ->
          Err.dynamic "selection on non-boolean value %s" (Value.type_name v))
  in
  match c with
  | Column.Const { v = Value.Bool true; _ } -> b
  | Column.Const { v = Value.Bool false; _ } -> gather_rows b [||]
  | _ ->
    gather_rows b
      (concat_rows
         (map_spans ctx ~par b.nrows (fun lo hi ->
              let live = Vec.create 0 in
              for r = lo to hi - 1 do if test r then Vec.push live r done;
              Vec.to_array live)))

(* ------------------------------------------------------- breaker kernels *)

let check_disjoint l r =
  Array.iter
    (fun cl ->
       if Array.exists (String.equal cl) r then
         Err.internal "join: column %S on both sides" cl)
    l

(* Build a join output: typed gathers of both sides through the match
   index pairs — no boxing, the payoff of the whole layer. *)
let join_output (l : batch) (r : batch) li ri =
  let l = gather_rows l li and r = gather_rows r ri in
  { l with
    schema = Array.append l.schema r.schema;
    cols = Array.append l.cols r.cols }

(* ----------------------------------------------------------- key matching *)

(* The matching kernels — the equi-join, the [P_eq] theta join and
   single-key semi/antijoins — read their keys through [match_keys].
   Key equality is then int equality, and how pairs
   are enumerated is chosen per call from what the keys look like (see
   [equi_match]). Keys that need the boxed [Value.equal] rules (doubles,
   mixed types) stay on the [Kernels] matchers, the row-for-row
   reference. *)

type matched =
  | Aligned  (* identical strictly ascending keys: row i matches row i *)
  | Pairs of (int array * int array)  (* (left row, right row) pairs *)

let aligned (lk : int array) (rk : int array) =
  let n = Array.length lk in
  let rec go i =
    i >= n
    || (lk.(i) = rk.(i) && (i = 0 || lk.(i - 1) < lk.(i)) && go (i + 1))
  in
  n = Array.length rk && go 0

let ascending (k : int array) =
  let rec go i = i >= Array.length k || (k.(i - 1) <= k.(i) && go (i + 1)) in
  go 1

(* Merge join of two ascending key arrays: each run of equal keys pairs
   every left row of the run with every right row of the run, left-major
   — the reference order (left rows ascending, right rows ascending
   within each). One walk counts the pairs, a second fills exact-size
   arrays. *)
let merge_pairs (lk : int array) (rk : int array) =
  let n1 = Array.length lk and n2 = Array.length rk in
  let walk emit =
    let i = ref 0 and j = ref 0 in
    while !i < n1 && !j < n2 do
      let a = lk.(!i) and b = rk.(!j) in
      if a < b then incr i
      else if a > b then incr j
      else begin
        let i1 = ref (!i + 1) and j1 = ref (!j + 1) in
        while !i1 < n1 && lk.(!i1) = a do incr i1 done;
        while !j1 < n2 && rk.(!j1) = a do incr j1 done;
        emit !i !i1 !j !j1;
        i := !i1;
        j := !j1
      end
    done
  in
  let total = ref 0 in
  walk (fun i0 i1 j0 j1 -> total := !total + ((i1 - i0) * (j1 - j0)));
  let li = Array.make !total 0 and ri = Array.make !total 0 in
  let k = ref 0 in
  walk (fun i0 i1 j0 j1 ->
      for i = i0 to i1 - 1 do
        for j = j0 to j1 - 1 do
          li.(!k) <- i;
          ri.(!k) <- j;
          incr k
        done
      done);
  (li, ri)

(* The pairs of the hash paths, left-major: for every left row i in
   [lo, hi) with group [group i] >= 0, i against each row of that
   group's CSR list ([start]/[rows], ascending). Counted first, so the
   arrays are exact-size. *)
let csr_pairs group start rows lo hi =
  let total = ref 0 in
  for i = lo to hi - 1 do
    let g = group i in
    if g >= 0 then total := !total + start.(g + 1) - start.(g)
  done;
  let li = Array.make !total 0 and ri = Array.make !total 0 in
  let k = ref 0 in
  for i = lo to hi - 1 do
    let g = group i in
    if g >= 0 then
      for p = start.(g) to start.(g + 1) - 1 do
        li.(!k) <- i;
        ri.(!k) <- rows.(p);
        incr k
      done
  done;
  (li, ri)

(* Hash matching: index the right keys, probe every left row, as the
   reference executor does. The probe fans out over morsels — the index
   is frozen, and per-morsel pairs concatenated in morsel order are the
   serial i-outer order. *)
let probe_pairs ctx ~par lk rk =
  let idx = Int_index.build rk in
  let probe lo hi =
    let gs = Array.init (hi - lo) (fun d -> Int_index.find idx lk.(lo + d)) in
    csr_pairs (fun i -> gs.(i - lo)) idx.Int_index.start idx.Int_index.rows
      lo hi
  in
  concat_pairs (map_spans ctx ~par (Array.length lk) probe)

(* How an equality match enumerates its pairs, chosen from the keys
   themselves — order observed at run time, so the optimizer claims
   nothing. Identical strictly ascending keys (loop-lifted [iter]
   columns, stamped ascending by [#]/[%]) pair row i with row i: no
   index, no gather. Two ascending sides merge. Anything else goes
   through one flat index over the right keys. Every path yields the
   reference pair order. *)
let equi_match ctx ~par lk rk =
  if aligned lk rk then begin
    bump ctx Profile.count_join_aligned;
    Aligned
  end
  else if ascending lk && ascending rk then begin
    bump ctx Profile.count_join_merged;
    Pairs (merge_pairs lk rk)
  end
  else begin
    bump ctx Profile.count_join_hashed;
    Pairs (probe_pairs ctx ~par lk rk)
  end

(* The output of a match between two batches. [Aligned]: the inputs'
   columns side by side already are the output rows — shared, not copied
   (no kernel mutates a column it did not allocate). *)
let matched_output lb rb = function
  | Aligned ->
    { schema = Array.append lb.schema rb.schema;
      cols = Array.append lb.cols rb.cols;
      nrows = lb.nrows;
      table = None }
  | Pairs (li, ri) -> join_output lb rb li ri

let k_join ctx ~par lb rb lcol rcname =
  check_disjoint lb.schema rb.schema;
  match match_keys ctx (rcol ctx lb lcol) (rcol ctx rb rcname) with
  | Some (lk, rk) -> matched_output lb rb (equi_match ctx ~par lk rk)
  | None ->
    (* boxed [Value.equal] matching *)
    let li, ri =
      Kernels.join_indices (boxed_col ctx lb lcol) (boxed_col ctx rb rcname)
    in
    join_output lb rb li ri

(* ------------------------------------------------- inequality theta joins *)

(* An inequality theta join ([<], [<=], [>], [>=]) returns the pairs of
   the reference nested loop over [Value.compare_xq], in its order: left
   rows ascending, each left row's right rows ascending. Where every pair
   compares as two xs:doubles, the keys are read typed, one double per
   row:

     - numerics promote and untyped text is cast, each text id once; NaN
       matches nothing. The nested loop casts left row 0, then every
       right row, then the rest of the left, so the keys are cast in that
       order and the first failing cast raises its message;
     - an Int×Int pair compares exactly in the nested loop, which double
       keys reproduce only while every int converts exactly (within
       ±2^53);
     - every other shape — text against text (a string comparison),
       booleans, nodes, ints beyond ±2^53 on both sides — runs the nested
       loop itself ([Kernels.theta_indices]). *)

(* What a key column holds, as bits. *)
let k_int = 1
let k_dbl = 2
let k_str = 4
let k_other = 8

let value_kinds = function
  | Value.Int _ -> k_int
  | Value.Dbl _ -> k_dbl
  | Value.Str _ -> k_str
  | _ -> k_other

let key_kinds = function
  | Column.Ints _ | Column.Seq _ -> k_int
  | Column.Dbls _ -> k_dbl
  | Column.Strs _ -> k_str
  | Column.Const { v; _ } -> value_kinds v
  | Column.Mixed vs -> Array.fold_left (fun k v -> k lor value_kinds v) 0 vs
  | Column.Bools _ | Column.Nodes _ -> k_other

let exact_limit = 1 lsl 53

let exact_int i = i >= -exact_limit && i <= exact_limit

let ints_exact = function
  | Column.Ints a -> Array.for_all exact_int a
  | Column.Seq { start; n } -> exact_int start && exact_int (start + n - 1)
  | Column.Const { v = Value.Int i; _ } -> exact_int i
  | Column.Mixed vs ->
    Array.for_all (function Value.Int i -> exact_int i | _ -> true) vs
  | _ -> true

(* Row [i]'s xs:double key: untyped text is cast, numerics promote. *)
let dbl_key = function
  | Column.Ints a -> fun i -> float_of_int a.(i)
  | Column.Seq { start; _ } -> fun i -> float_of_int (start + i)
  | Column.Dbls a -> fun i -> a.(i)
  | Column.Strs { pool; ids } ->
    fun i -> Value.float_value (Value.Str (String_pool.get pool ids.(i)))
  | c -> fun i -> Value.float_value (Column.get c i)

(* The double keys of two non-empty key columns, or [None] for the
   nested loop. *)
let ineq_keys lc rc =
  let lk = key_kinds lc and rk = key_kinds rc in
  if
    (lk lor rk) land k_other <> 0
    || lk land rk land k_str <> 0
    || (lk land rk land k_int <> 0 && not (ints_exact lc && ints_exact rc))
  then None
  else begin
    let nl = Column.length lc and nr = Column.length rc in
    let lget = dbl_key lc and rget = dbl_key rc in
    let l = Array.make nl 0.0 and r = Array.make nr 0.0 in
    l.(0) <- lget 0;
    for j = 0 to nr - 1 do r.(j) <- rget j done;
    for i = 1 to nl - 1 do l.(i) <- lget i done;
    Some (l, r)
  end

(* The sort-based sweep. The left rows with a comparable key (NaN left
   out) are sorted by key, ascending for [<]/[<=] and descending for
   [>]/[>=], so the left rows a right row matches are a prefix of that
   order, whose length one binary search finds (none for a NaN right
   key). Those lengths size every left row's output segment exactly, and
   walking the right rows in ascending row order appends each to the
   segments of its prefix, which leaves every segment ascending: the
   nested loop's pairs in its order, in O((|l| + |r|)·log |l| + pairs).
   A one-row left side, such as a constant's, costs one comparison per
   right row, as a scan would. *)
let sweep_pairs cmp (lk : float array) (rk : float array) =
  let nl = Array.length lk in
  let holds =
    match cmp with
    | Plan.P_lt -> fun (x : float) y -> x < y
    | Plan.P_le -> fun (x : float) y -> x <= y
    | Plan.P_gt -> fun (x : float) y -> x > y
    | Plan.P_ge -> fun (x : float) y -> x >= y
    | _ -> Err.internal "thetajoin: inequality expected"
  in
  let dir = if cmp = Plan.P_gt || cmp = Plan.P_ge then -1 else 1 in
  let order = Array.make nl 0 and m = ref 0 in
  Array.iteri
    (fun i x ->
       if not (Float.is_nan x) then begin
         order.(!m) <- i;
         incr m
       end)
    lk;
  let m = !m in
  let order = Array.sub order 0 m in
  Array.stable_sort (fun a b -> dir * Float.compare lk.(a) lk.(b)) order;
  let sk = Array.map (fun i -> lk.(i)) order in
  (* prefix.(j): how many rows of [order] right row j matches *)
  let prefix =
    Array.map
      (fun y ->
         let lo = ref 0 and hi = ref m in
         while !lo < !hi do
           let mid = (!lo + !hi) lsr 1 in
           if holds sk.(mid) y then lo := mid + 1 else hi := mid
         done;
         !lo)
      rk
  in
  (* the row at position p of [order] is matched by the right rows whose
     prefix is longer than p *)
  let count = Array.make nl 0 and longer = Array.make (m + 1) 0 in
  Array.iter (fun c -> longer.(c) <- longer.(c) + 1) prefix;
  let run = ref 0 in
  for p = m - 1 downto 0 do
    run := !run + longer.(p + 1);
    count.(order.(p)) <- !run
  done;
  let next = Array.make (nl + 1) 0 in
  for i = 0 to nl - 1 do next.(i + 1) <- next.(i) + count.(i) done;
  let li = Array.make next.(nl) 0 and ri = Array.make next.(nl) 0 in
  for i = 0 to nl - 1 do Array.fill li next.(i) count.(i) i done;
  Array.iteri
    (fun j c ->
       for k = 0 to c - 1 do
         let i = order.(k) in
         ri.(next.(i)) <- j;
         next.(i) <- next.(i) + 1
       done)
    prefix;
  (li, ri)

let ineq_pairs ctx lb rb lcol cmp rcname =
  if lb.nrows = 0 || rb.nrows = 0 then
    (* no pair to compare, nothing to cast *)
    ([||], [||])
  else
    match ineq_keys (rcol ctx lb lcol) (rcol ctx rb rcname) with
    | Some (lk, rk) ->
      bump ctx Profile.count_theta_sorted;
      sweep_pairs cmp lk rk
    | None ->
      bump ctx Profile.count_theta_boxed;
      Kernels.theta_indices (boxed_col ctx lb lcol) cmp
        (boxed_col ctx rb rcname)

let k_thetajoin ctx ~par lb rb lcol cmp rcname =
  check_disjoint lb.schema rb.schema;
  let boxed () =
    Pairs
      (Kernels.theta_indices (boxed_col ctx lb lcol) cmp
         (boxed_col ctx rb rcname))
  in
  let m =
    match cmp with
    | Plan.P_eq -> (
      (* same-typed int or string keys: general-comparison equality is
         coercion-free there, so this is the equi-join's match, in the
         boxed nested loop's i-asc, j-asc pair order *)
      match match_keys ctx (rcol ctx lb lcol) (rcol ctx rb rcname) with
      | Some (lk, rk) -> equi_match ctx ~par lk rk
      | None -> boxed ())
    | Plan.P_lt | Plan.P_le | Plan.P_gt | Plan.P_ge ->
      Pairs (ineq_pairs ctx lb rb lcol cmp rcname)
    | _ ->
      (* everything else: matching stays boxed (the homogeneity/NaN
         analysis lives there), output stays typed *)
      boxed ()
  in
  matched_output lb rb m

(* Semi/anti join: the output is the left batch's kept rows. A single
   key that reads as ints ([match_keys]) uses the flat index as a set: it
   indexes the right keys and probes the left rows, fanning the probe out
   over morsels like the join probe (kept indices concatenated in morsel
   order are the serial ascending scan). Multi-key and boxed keys run the
   [Kernels] key set the same way. *)
let k_semijoin ctx ~par ~anti lb rb on =
  let keys =
    match on with
    | [ (lc, rc) ] -> match_keys ctx (rcol ctx lb lc) (rcol ctx rb rc)
    | _ -> None
  in
  let keep =
    match keys with
    | Some (lk, rk) ->
      let idx = Int_index.build rk in
      concat_rows
        (map_spans ctx ~par lb.nrows (fun lo hi ->
             let keep = Vec.create 0 in
             for i = lo to hi - 1 do
               if Int_index.find idx lk.(i) >= 0 <> anti then Vec.push keep i
             done;
             Vec.to_array keep))
    | None ->
      let lkeys =
        Array.of_list (List.map (fun (lc, _) -> boxed_col ctx lb lc) on)
      in
      let rkeys =
        Array.of_list (List.map (fun (_, rc) -> boxed_col ctx rb rc) on)
      in
      let set = Kernels.semi_key_set ~nr:rb.nrows rkeys in
      concat_rows
        (map_spans ctx ~par lb.nrows (fun lo hi ->
             Kernels.semi_probe set ~anti lkeys lo hi))
  in
  gather_rows lb keep

(* Per-column int keys of a distinct, when every column has them: ints
   and Seq by value, nodes by (frag, pre), store text by id (one pool);
   a Const column is equal on every row and adds no key.
   Dbls/Bools/Mixed give None: the NaN and -0.0 rules of [Value.equal]
   stay with the boxed path. *)
let distinct_keys ctx b =
  let keys i =
    match retyped ctx b i with
    | Column.Ints a | Column.Strs { ids = a; _ } -> Some [ a ]
    | Column.Seq { start; n } -> Some [ Array.init n (fun r -> start + r) ]
    | Column.Nodes { frag; pre } -> Some [ frag; pre ]
    | Column.Const _ -> Some []
    | Column.Dbls _ | Column.Bools _ | Column.Mixed _ -> None
  in
  let rec go i acc =
    if i < 0 then Some (Array.of_list (List.concat acc))
    else match keys i with Some k -> go (i - 1) (k :: acc) | None -> None
  in
  go (Array.length b.schema - 1) []

let k_distinct ctx b =
  let keep =
    match distinct_keys ctx b with
    | Some cols -> Int_index.first_rows cols b.nrows
    | None ->
      let cols = Array.map (fun name -> boxed_col ctx b name) b.schema in
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
  gather_rows b keep

let k_project b cols =
  let idx = Array.of_list (List.map (fun (_, src) -> col_pos b src) cols) in
  { schema = Array.of_list (List.map fst cols);
    cols = Array.map (fun i -> b.cols.(i)) idx;
    nrows = b.nrows;
    table = None }

let k_union lb rb =
  if Array.length lb.schema <> Array.length rb.schema then
    Err.internal "Table.union: schema arity mismatch";
  let cols =
    Array.mapi
      (fun i name -> Column.append lb.cols.(i) rb.cols.(col_pos rb name))
      lb.schema
  in
  { schema = lb.schema; cols; nrows = lb.nrows + rb.nrows; table = None }

(* The most sorted runs a [%] input may arrive in and still be merged
   rather than sorted. *)
let max_runs = 64

(* Rownum: the pipeline breaker the paper's cost model revolves around.
   Sort a permutation — typed comparators where columns are typed;
   [Value.compare_total] agrees with [Int.compare]/[Float.compare] on
   homogeneous columns — then number within partitions. *)
let k_rownum ctx b res order part =
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
    | Column.Bools bb ->
      (* false < true, as [Bool.compare] orders them *)
      fun x y -> Char.compare (Bytes.get bb x) (Bytes.get bb y)
    | Column.Mixed vs ->
      (* genuinely heterogeneous: compare the boxed values in place *)
      fun x y -> Value.compare_total vs.(x) vs.(y)
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
  (* Piecewise-sorted input (a union of per-branch sorted sides, a
     computed column that happens to ascend): detect the runs in one
     linear scan and, at [max_runs] runs or fewer, replace the
     O(n log n) sort with a bottom-up merge of adjacent runs. The order
     is observed, not proved, so no plan property is involved.
     [compare_rows] is a total order (row-position tie-break), so the
     merge result is the unique sorted permutation — bit-identical to
     [Array.sort]. The scan makes at most n - 1 comparisons and stops
     at the first run past the cap: a few dozen on shuffled input. *)
  let merged =
    let bounds = ref [ 0 ] and runs = ref 1 in
    try
      for i = 1 to n - 1 do
        if compare_rows (i - 1) i > 0 then begin
          incr runs;
          if !runs > max_runs then raise Exit;
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
          if !i < nx && (!j >= ny || compare_rows xs.(!i) ys.(!j) <= 0)
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
    with Exit -> false
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
   morsel folds its contiguous range of rows into a private
   (first-seen key order, accumulator table) pair; the coordinator merges
   the partials *in morsel order*, combining accumulators for keys seen
   by several morsels. Because morsels are contiguous, in-order slices of
   the scan, walking their first-seen key sequences in morsel order while
   skipping already-merged keys reproduces the global first-seen group
   order of the serial scan exactly ([Kernels.group_rows] order). The
   combiner must be associative over row-range splits — count, min, max
   and the exact [Value.int_sum] are — and the fold of a single morsel is
   the serial fold, so the serial path is just the one-morsel case. *)
let int_grouped ctx ~par b ~(g : int -> int) ~(of_row : int -> 'a)
    ~(combine : 'a -> 'a -> 'a) =
  let module IT = Kernels.Int_tbl in
  let fold lo hi =
    let order_v = Vec.create 0 in
    let accs : 'a ref IT.t = IT.create 64 in
    for r = lo to hi - 1 do
      let k = g r in
      match IT.find_opt accs k with
      | Some a -> a := combine !a (of_row r)
      | None ->
        IT.add accs k (ref (of_row r));
        Vec.push order_v k
    done;
    (order_v, accs)
  in
  let parts = map_spans ctx ~par b.nrows fold in
  let order_v, accs =
    match parts with
    | [| one |] -> one
    | _ ->
      let order_v = Vec.create 0 in
      let accs : 'a ref IT.t = IT.create 64 in
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
  let keys = Vec.to_array order_v in
  (keys, Array.map (fun k -> !(IT.find accs k)) keys)

(* Aggregation: typed paths for the order-indifferent shapes — count, and
   integer sum/min/max, grouped by an int column (iter grouping, the
   overwhelmingly common case), first-seen group order exactly like
   [Kernels.group_rows] — everything else boxed. On the boxed path
   atomize is the identity on Int, [numeric_view] maps Int to itself, an
   all-Int [Value.sum] is the same exact [Value.int_sum], and min/max
   pick an Int by integer comparison with no NaN involved — so these
   typed results and errors are identical to the boxed ones. *)
let k_aggr ctx ~par b res agg arg part order =
  let boxed () =
    let t = to_table ctx b in
    of_table
      (Kernels.eval_aggr ctx.env.Kernels.store t res agg arg part order)
  in
  let grouped p (keys, vals) =
    { schema = [| p; res |];
      cols = [| Column.Ints keys; Column.Ints vals |];
      nrows = Array.length keys;
      table = None }
  in
  match (agg, part) with
  | Plan.A_count, None ->
    of_table (Table.of_rows [| res |] [ [| Value.Int b.nrows |] ])
  | Plan.A_count, Some p -> (
    match int_reader (rcol ctx b p) with
    | None -> boxed ()
    | Some g ->
      grouped p (int_grouped ctx ~par b ~g ~of_row:(fun _ -> 1) ~combine:( + )))
  | (Plan.A_sum | Plan.A_min | Plan.A_max), Some p -> (
    match
      ( int_reader (rcol ctx b p),
        Option.map (fun a -> int_reader (rcol ctx b a)) arg )
    with
    | Some g, Some (Some ga) -> (
      let fold of_row combine = int_grouped ctx ~par b ~g ~of_row ~combine in
      match agg with
      | Plan.A_sum ->
        let keys, sums =
          fold (fun r -> Value.int_sum (ga r)) Value.int_sum_add in
        grouped p (keys, Array.map Value.int_sum_value sums)
      | Plan.A_min -> grouped p (fold ga min)
      | _ -> grouped p (fold ga max))
    | _ -> boxed ())
  | Plan.A_the, Some p -> (
    match (int_reader (rcol ctx b p), arg) with
    | Some g, Some a ->
      (* over non-decreasing groups, the groups are the runs of equal
         [p], in first-seen order: the first run of more than one row
         raises the boxed kernel's error, and when every run is one row
         the result is the input's two columns as they are (a text-id
         column stays ids) *)
      let sorted = ref true and long = ref 0 in
      let prev = ref 0 and run = ref 0 in
      for r = 0 to b.nrows - 1 do
        let it = g r in
        if !run > 0 && it = !prev then incr run
        else begin
          if !run > 0 && it < !prev then sorted := false;
          if !long = 0 && !run > 1 then long := !run;
          run := 1
        end;
        prev := it
      done;
      if !long = 0 && !run > 1 then long := !run;
      if not !sorted then boxed ()
      else if !long > 1 then Value.not_singleton !long
      else
        { b with
          schema = [| p; res |];
          cols = [| rcol ctx b p; rcol ctx b a |];
          table = None }
    | _ -> boxed ())
  | _ -> boxed ()

(* ------------------------------------------------------------------ steps *)

(* The step operator ⊘ over the whole batch: [iter] read as machine ints,
   [item] as a node column, one loop-lifted call ([Kernels.step_lifted]),
   an Ints/Nodes batch out — no boxed row per result and no boxed table.
   The call writes its rows straight into the int arrays that become
   the batch's columns. Rows come out in the boxed kernel's order
   (iterations in input order; within one, document order without
   duplicates), so results, errors and budget charges are unchanged.
   The loop-lifted call needs each iteration to be one run of rows;
   when the iters are not non-decreasing, or [item] is not a node
   column, the boxed per-iteration kernel runs instead — which is also
   what raises the "expected a node" error. *)
let k_step ctx b axis test =
  let typed (r : Xmldb.Staircase.rows) =
    { schema = [| "iter"; "item" |];
      cols =
        [| Column.Ints r.iter; Column.Nodes { frag = r.frag; pre = r.pre } |];
      nrows = Array.length r.pre;
      table = None }
  in
  let boxed () =
    of_table (Kernels.step_boxed ctx.env (to_table ctx b) axis test)
  in
  if b.nrows = 0 then typed { iter = [||]; frag = [||]; pre = [||] }
  else
    match (int_reader (rcol ctx b "iter"), rcol ctx b "item") with
    | Some gi, Column.Nodes { frag; pre } ->
      let iter = Array.init b.nrows gi in
      if ascending iter then
        typed (Kernels.step_lifted ctx.env axis test { iter; frag; pre })
      else boxed ()
    | _ -> boxed ()

(* ----------------------------------------------------------- construction *)

(* Node construction over typed columns, the paper's loop-lifted
   construction (Section 3): one kernel call is one constructor
   evaluation for every iteration and builds one fragment, in one pass
   through a [Doc_store.Builder] presized from the content. [iter] and
   [pos] read as ints, content as nodes or store text ids, and the
   result is an Ints/Nodes batch. The boxed kernels ([Kernels.eval_*],
   which [Eval] runs) are the reference: names, texts and fragments are
   made in their order, so both executors leave byte-identical stores —
   a fragment id orders constructed nodes, even an empty fragment's.
   Inputs whose [iter] or [pos] is not an int column run the boxed
   kernel. *)

module Builder = Xmldb.Doc_store.Builder

(* The name of the node built for each row of a name column: a [Const]
   or the Mixed column of the boxed [×] that pairs the loop with a name
   constant. Each row is resolved and checked ([Value.node_name]), but
   a run of one value only once, and the builder interns one [Qname.t]
   once. *)
let name_reader what c =
  let last = ref None in
  let of_value v =
    match !last with
    | Some (v', q) when v' == v -> q
    | _ ->
      let q = Value.node_name what v in
      last := Some (v, q);
      q
  in
  match c with
  | Column.Const { v; _ } -> fun _ -> of_value v
  | Column.Mixed vs -> fun r -> of_value vs.(r)
  | c -> fun r -> Value.node_name what (Column.get c r)

(* The atomized text of row [r] of an item column, passed to [id] when
   the store's text pool holds it under a known id — store text, or a
   node whose string value is its own value — and to [str] otherwise. *)
let text_reader store c ~id ~str =
  match c with
  | Column.Strs { pool; ids } when pool == Xmldb.Doc_store.text_pool store ->
    fun r -> id ids.(r)
  | Column.Nodes { frag; pre } -> (
    fun r ->
      let f = Xmldb.Doc_store.frag store frag.(r) in
      match Xmldb.Doc_store.kind_at f pre.(r) with
      | Xmldb.Node_kind.Element | Xmldb.Node_kind.Document ->
        str
          (Xmldb.Doc_store.string_value store
             (Xmldb.Node_id.make ~frag:frag.(r) ~pre:pre.(r)))
      | _ -> id (Xmldb.Doc_store.value_at f pre.(r)))
  | c -> fun r -> str (Value.to_string (Kernels.atomize store (Column.get c r)))

(* Rows a content column adds to a fragment: a node's subtree, one row
   for an atom. *)
let content_rows store c n =
  let node_rows frag pre =
    Xmldb.Doc_store.size_at (Xmldb.Doc_store.frag store frag) pre + 1
  in
  match c with
  | Column.Nodes { frag; pre } ->
    let total = ref 0 in
    for r = 0 to n - 1 do total := !total + node_rows frag.(r) pre.(r) done;
    !total
  | Column.Mixed vs ->
    Array.fold_left
      (fun acc -> function
         | Value.Node nd ->
           acc + node_rows (Xmldb.Node_id.frag nd) (Xmldb.Node_id.pre nd)
         | _ -> acc + 1)
      0 vs
  | _ -> n

(* A batch of one new node per row of [iter]: the fragment's rows
   [pre]. *)
let constructed iter fid pre =
  { schema = [| "iter"; "item" |];
    cols =
      [| iter; Column.Nodes { frag = Array.make (Array.length pre) fid; pre } |];
    nrows = Array.length pre;
    table = None }

(* The content rows of each iteration: [find iter] is its group or -1,
   and group [g] is the rows [row start.(g)] .. [row (start.(g + 1) - 1)],
   ascending. Iter-ascending content (loop-lifted content arrives so) is
   grouped by its runs, found by binary search; content that arrives as
   a union of per-child batches goes through the flat index. *)
type groups = { find : int -> int; start : int array; row : int -> int }

let group_iters (iters : int array) =
  let n = Array.length iters in
  if ascending iters then begin
    let starts = Vec.create 0 in
    for r = 0 to n - 1 do
      if r = 0 || iters.(r - 1) <> iters.(r) then Vec.push starts r
    done;
    let k = Vec.length starts in
    let start = Array.make (k + 1) n in
    Vec.iteri (fun g r -> start.(g) <- r) starts;
    let find it =
      let lo = ref 0 and hi = ref (k - 1) and g = ref (-1) in
      while !g < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let key = iters.(start.(mid)) in
        if key = it then g := mid
        else if key < it then lo := mid + 1
        else hi := mid - 1
      done;
      !g
    in
    { find; start; row = Fun.id }
  end
  else
    let idx = Int_index.build iters in
    { find = Int_index.find idx; start = idx.Int_index.start;
      row = Array.get idx.Int_index.rows }

(* Elem: per row of the name batch, one element holding its iteration's
   content in [pos] order. A node is deep-copied as one range of rows; an
   atom becomes text, joined to a preceding atom by a space. A group
   whose [pos] is not strictly ascending is sorted with the boxed
   kernel's comparison, which gives its permutation exactly. *)
let k_elem ctx qb cb =
  let store = ctx.env.Kernels.store in
  let qiter = rcol ctx qb "iter" in
  match
    (int_reader qiter, int_keys (rcol ctx cb "iter"),
     int_reader (rcol ctx cb "pos"))
  with
  | Some qit, Some citer, Some cpos ->
    let name = name_reader "element" qb.cols.(col_pos qb "item") in
    let item = rcol ctx cb "item" in
    let b =
      Builder.create
        ~capacity:(qb.nrows + content_rows store item cb.nrows) store
    in
    let atom = ref false in
    let put_text s =
      if !atom then Builder.text b (" " ^ s) else Builder.text b s;
      atom := true
    in
    let put_id id =
      if !atom then
        Builder.text b (" " ^ Xmldb.Doc_store.text_of_id store id)
      else Builder.text_id b id;
      atom := true
    in
    let put_node frag pre =
      Builder.copy b (Xmldb.Node_id.make ~frag ~pre);
      atom := false
    in
    let put =
      match item with
      | Column.Nodes { frag; pre } -> fun r -> put_node frag.(r) pre.(r)
      | Column.Strs { pool; ids } when pool == Xmldb.Doc_store.text_pool store
        ->
        fun r -> put_id ids.(r)
      | c -> (
        fun r ->
          match Column.get c r with
          | Value.Node nd ->
            put_node (Xmldb.Node_id.frag nd) (Xmldb.Node_id.pre nd)
          | v -> put_text (Value.to_string v))
    in
    let g = group_iters citer in
    let sorted lo hi =
      let rec go p = p >= hi || (cpos (g.row (p - 1)) < cpos (g.row p) && go (p + 1)) in
      go (lo + 1)
    in
    let pre =
      Array.init qb.nrows (fun r ->
          let q = name r in
          let root = Builder.length b in
          Builder.start_element b q;
          atom := false;
          let k = g.find (qit r) in
          if k >= 0 then begin
            let lo = g.start.(k) and hi = g.start.(k + 1) in
            if sorted lo hi then for p = lo to hi - 1 do put (g.row p) done
            else begin
              let rows = Array.init (hi - lo) (fun d -> g.row (lo + d)) in
              Array.sort (fun x y -> Int.compare (cpos x) (cpos y)) rows;
              Array.iter put rows
            end
          end;
          Builder.end_element b;
          root)
    in
    constructed qiter (Builder.freeze b) pre
  | _ ->
    of_table
      (Kernels.eval_elem store (to_table ctx qb) (to_table ctx cb))

(* Attr: per row of the name batch, a parentless attribute whose value is
   the last value row of its iteration, atomized ("" without one). *)
let k_attr ctx qb vb =
  let store = ctx.env.Kernels.store in
  let qiter = rcol ctx qb "iter" in
  match (int_reader qiter, int_keys (rcol ctx vb "iter")) with
  | Some qit, Some viter ->
    let name = name_reader "attribute" qb.cols.(col_pos qb "item") in
    let b = Builder.create ~capacity:qb.nrows store in
    let q = ref (Xmldb.Qname.make "") in
    let value =
      text_reader store (rcol ctx vb "item")
        ~id:(fun id -> Builder.attribute_id b !q id)
        ~str:(fun s -> Builder.attribute b !q s)
    in
    let idx = Int_index.build viter in
    for r = 0 to qb.nrows - 1 do
      q := name r;
      match Int_index.find idx (qit r) with
      | -1 -> Builder.attribute b !q ""
      | k -> value idx.Int_index.rows.(idx.Int_index.start.(k + 1) - 1)
    done;
    constructed qiter (Builder.freeze b) (Array.init qb.nrows Fun.id)
  | _ ->
    of_table
      (Kernels.eval_attr store (to_table ctx qb) (to_table ctx vb))

(* Text and comment constructors: a parentless node per row, valued by
   its atomized item. *)
let k_textlike ctx tb ~comment =
  let store = ctx.env.Kernels.store in
  let b = Builder.create ~capacity:tb.nrows store in
  let value =
    if comment then
      text_reader store (rcol ctx tb "item") ~id:(Builder.comment_id b)
        ~str:(Builder.comment b)
    else
      text_reader store (rcol ctx tb "item") ~id:(Builder.force_text_id b)
        ~str:(Builder.force_text b)
  in
  for r = 0 to tb.nrows - 1 do value r done;
  constructed (rcol ctx tb "iter") (Builder.freeze b)
    (Array.init tb.nrows Fun.id)

(* Textify (fs:item-sequence-to-node-sequence): rows in (iter, pos)
   order, nodes passed through, every run of atoms of one iteration made
   one text node (space-joined) at the run's first row. Input that is
   not strictly ascending is sorted with the boxed kernel's comparison.
   Nodes only: the input is the output, and an empty fragment is still
   appended. *)
let k_textify ctx tb =
  let store = ctx.env.Kernels.store in
  match (int_keys (rcol ctx tb "iter"), int_keys (rcol ctx tb "pos")) with
  | Some iter, Some pos ->
    let n = tb.nrows in
    let item = rcol ctx tb "item" in
    let before a c =
      iter.(a) < iter.(c) || (iter.(a) = iter.(c) && pos.(a) < pos.(c))
    in
    let rec sorted k = k >= n || (before (k - 1) k && sorted (k + 1)) in
    let perm =
      if sorted 1 then None
      else begin
        let perm = Array.init n Fun.id in
        Array.sort
          (fun a c ->
             match Int.compare iter.(a) iter.(c) with
             | 0 -> Int.compare pos.(a) pos.(c)
             | x -> x)
          perm;
        Some perm
      end
    in
    let batch cols nrows =
      { schema = [| "iter"; "pos"; "item" |]; cols; nrows; table = None }
    in
    (match (item, perm) with
     | Column.Nodes _, None ->
       ignore (Builder.freeze (Builder.create ~capacity:1 store));
       batch [| rcol ctx tb "iter"; rcol ctx tb "pos"; item |] n
     | _ ->
       let node_frag = Array.make n (-1) and node_pre = Array.make n 0 in
       (match item with
        | Column.Nodes { frag; pre } ->
          Array.blit frag 0 node_frag 0 n;
          Array.blit pre 0 node_pre 0 n
        | Column.Ints _ | Column.Dbls _ | Column.Bools _ | Column.Strs _
        | Column.Seq _ -> ()
        | Column.Const _ | Column.Mixed _ ->
          for r = 0 to n - 1 do
            match Column.get item r with
            | Value.Node nd ->
              node_frag.(r) <- Xmldb.Node_id.frag nd;
              node_pre.(r) <- Xmldb.Node_id.pre nd
            | _ -> ()
          done);
       let atoms = ref 0 in
       Array.iter (fun f -> if f < 0 then incr atoms) node_frag;
       let b = Builder.create ~capacity:!atoms store in
       let o_iter = Array.make n 0 and o_pos = Array.make n 0 in
       let o_frag = Array.make n 0 and o_pre = Array.make n 0 in
       let m = ref 0 and texts = ref 0 in
       let out r frag pre =
         o_iter.(!m) <- iter.(r);
         o_pos.(!m) <- pos.(r);
         o_frag.(!m) <- frag;
         o_pre.(!m) <- pre;
         incr m
       in
       (* the open run: its first row ([-1]: none) and length; a run of
          several atoms joins their strings in [buf] *)
       let run = ref (-1) and len = ref 0 and buf = Buffer.create 64 in
       let s = ref "" in
       let read =
         text_reader store item
           ~id:(fun id -> s := Xmldb.Doc_store.text_of_id store id)
           ~str:(fun x -> s := x)
       in
       let add r = read r; Buffer.add_string buf !s in
       let single =
         text_reader store item ~id:(Builder.force_text_id b)
           ~str:(Builder.force_text b)
       in
       let flush () =
         if !run >= 0 then begin
           if !len = 1 then single !run
           else Builder.force_text b (Buffer.contents buf);
           out !run (-1) !texts;
           incr texts;
           run := -1
         end
       in
       for k = 0 to n - 1 do
         let r = match perm with None -> k | Some p -> p.(k) in
         if node_frag.(r) >= 0 then begin
           flush ();
           out r node_frag.(r) node_pre.(r)
         end
         else if !run >= 0 && iter.(!run) = iter.(r) then begin
           if !len = 1 then begin
             Buffer.clear buf;
             add !run
           end;
           Buffer.add_char buf ' ';
           add r;
           incr len
         end
         else begin
           flush ();
           run := r;
           len := 1
         end
       done;
       flush ();
       let fid = Builder.freeze b in
       let m = !m in
       let o_frag = Array.sub o_frag 0 m in
       Array.iteri (fun i f -> if f < 0 then o_frag.(i) <- fid) o_frag;
       batch
         [| Column.Ints (Array.sub o_iter 0 m);
            Column.Ints (Array.sub o_pos 0 m);
            Column.Nodes { frag = o_frag; pre = Array.sub o_pre 0 m } |]
         m)
  | _ -> of_table (Kernels.eval_textify store (to_table ctx tb))

(* ------------------------------------------------------------- dispatcher *)

let exec_kernel ctx (n : Plan.node) (inputs : batch list) : batch =
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
  let par = parallelizable n.Plan.op in
  match n.Plan.op with
  | Plan.Select { col; _ } ->
    let b = one () in
    k_select ctx ~par b (rcol ctx b col)
  | Plan.Attach { res; value; _ } ->
    let b = one () in
    with_col b res (Column.const value b.nrows)
  | Plan.Fun1 { res; f; arg; _ } ->
    let b = one () in
    let c = rcol ctx b arg in
    with_col b res (fun1_col ctx (row_runner ctx ~par b) b f c)
  | Plan.Fun2 { res; f; arg1; arg2; _ } ->
    let b = one () in
    let c1 = rcol ctx b arg1 in
    let c2 = rcol ctx b arg2 in
    with_col b res (fun2_col ctx (row_runner ctx ~par b) b f c1 c2)
  | Plan.Fun3 { res; f; arg1; arg2; arg3; _ } ->
    let b = one () in
    let c1 = rcol ctx b arg1 in
    let c2 = rcol ctx b arg2 in
    let c3 = rcol ctx b arg3 in
    with_col b res (generic3 ctx.env (row_runner ctx ~par b) b f c1 c2 c3)
  | Plan.Project { cols; _ } -> k_project (one ()) cols
  | Plan.Distinct _ -> k_distinct ctx (one ())
  | Plan.Union _ ->
    let l, r = two () in
    k_union l r
  | Plan.Rowid { res; _ } ->
    (* dense numbering is MonetDB's void column: O(1), nothing stored *)
    let b = one () in
    with_col b res (Column.seq ~start:1 b.nrows)
  | Plan.Rownum { res; order; part; _ } -> k_rownum ctx (one ()) res order part
  | Plan.Join { lcol; rcol; _ } ->
    let l, r = two () in
    k_join ctx ~par l r lcol rcol
  | Plan.Thetajoin { lcol; cmp; rcol; _ } ->
    let l, r = two () in
    k_thetajoin ctx ~par l r lcol cmp rcol
  | Plan.Semijoin { on; _ } ->
    let l, r = two () in
    k_semijoin ctx ~par ~anti:false l r on
  | Plan.Antijoin { on; _ } ->
    let l, r = two () in
    k_semijoin ctx ~par ~anti:true l r on
  | Plan.Aggr { res; agg; arg; part; order; _ } ->
    k_aggr ctx ~par (one ()) res agg arg part order
  | Plan.Step { axis; test; _ } -> k_step ctx (one ()) axis test
  | Plan.Elem _ ->
    let q, c = two () in
    k_elem ctx q c
  | Plan.Attr _ ->
    let q, v = two () in
    k_attr ctx q v
  | Plan.Textnode _ -> k_textlike ctx (one ()) ~comment:false
  | Plan.Commentnode _ -> k_textlike ctx (one ()) ~comment:true
  | Plan.Textify _ -> k_textify ctx (one ())
  | op ->
    let tables = List.map (to_table ctx) inputs in
    of_table (Kernels.eval_op ctx.env op tables)

let rec eval ctx (n : Plan.node) : batch =
  match
    (match ctx.mode with
     | Eval.Dag -> Hashtbl.find_opt ctx.cache n.Plan.id
     | Eval.Tree -> None)
  with
  | Some b -> b
  | None ->
    let children = Plan.children n.Plan.op in
    (* the kernel boundary: deadline / op budget / cancellation / fault
       injection fire here, once per kernel invocation. Every plan node is
       one kernel, so a physical run makes exactly the checks the boxed
       executor makes for the same plan. *)
    (match ctx.guard with Some g -> Budget.check g | None -> ());
    (match ctx.mode with
     | Eval.Dag -> List.iter (fun c -> ignore (eval ctx c)) children
     | Eval.Tree -> ());
    let t0 = match ctx.profile with Some _ -> Clock.now () | None -> 0.0 in
    ctx.kernels <- ctx.kernels + 1;
    let inputs = List.map (eval ctx) children in
    let out = exec_kernel ctx n inputs in
    (match ctx.guard with
     | Some g ->
       Budget.add_rows g out.nrows;
       if Budget.wants_bytes g then Budget.add_bytes g (budget_bytes out)
     | None -> ());
    (match ctx.profile with
     | Some prof ->
       let dt = Clock.now () -. t0 in
       let label =
         if n.Plan.label = "" then Plan.op_symbol n.Plan.op else n.Plan.label
       in
       Profile.add prof label dt;
       Profile.add_node prof n.Plan.id label dt;
       Profile.add_kernel prof
         ~rows_in:(List.fold_left (fun acc b -> acc + b.nrows) 0 inputs)
         ~rows_out:out.nrows
     | None -> ());
    (match ctx.mode with
     | Eval.Dag -> Hashtbl.add ctx.cache n.Plan.id out
     | Eval.Tree -> ());
    out

(* Evaluate a whole plan; the result is boxed for the serialization
   boundary (the one materialization every query pays). [jobs] > 1
   enables morsel parallelism on the order-indifferent kernels
   ([parallelizable]); results, errors and profile counters are
   bit-identical to [jobs = 1]. [morsel] overrides the minimum rows per
   morsel (default 1024, or XRQ_MORSEL). *)
let run ?profile ?guard ?step_impl ?mode ?jobs ?morsel ?code_eval store
    (root : Plan.node) : Table.t =
  let ctx =
    create ?profile ?guard ?step_impl ?mode ?jobs ?morsel ?code_eval store
  in
  let out = eval ctx root in
  bump ctx (fun p ->
      Profile.add_bulk_decodes p (Atomic.get ctx.env.Kernels.bulk_decodes));
  to_table ctx out

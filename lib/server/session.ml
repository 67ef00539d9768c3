(* Sessions and the shared-store registry — the engine-side substrate of
   the query server, independent of any wire protocol.

   The concurrency story, end to end:

   - Shared stores live in a registry; each carries a reader-writer lock.
     Queries that cannot construct nodes (per Engine.constructs_nodes on
     the prepared plan) evaluate under the read side and run concurrently;
     queries that may append fragments — and all interpreter-backend
     runs, conservatively — take the write side. The pools and the
     store-level metadata carry their own mutexes (see Doc_store), so the
     rwlock's sole job is keeping whole-query fragment scans from racing
     a concurrent fragment append.

   - Budgets: every request arms a fresh guard from the client's wishes
     clamped under the server ceiling (Budget.clamp) plus a per-request
     cancellation switch. The switch is registered as the session's
     in-flight handle so a disconnect observed by another thread can trip
     it (cancel_inflight); the next budget check inside evaluation raises
     Resource_error and the worker unwinds normally.

   - Prepared statements are name -> query-text bindings; compilation
     lives in the server-wide plan cache, keyed by (normalized text,
     options fingerprint), so exec shares the compile with plain queries
     of the same text and two sessions preparing the same statement
     compile once. *)

module Budget = Basis.Budget
module Rwlock = Basis.Rwlock

(* ------------------------------------------------------------ registry *)

module Registry = struct
  type entry = { store : Xmldb.Doc_store.t; lock : Rwlock.t }

  type t = {
    mu : Mutex.t;
    tbl : (string, entry) Hashtbl.t;
    mutable order : string list;  (* registration order, reversed *)
  }

  let create () =
    { mu = Mutex.create (); tbl = Hashtbl.create 8; order = [] }

  let[@inline] locked t f =
    Mutex.lock t.mu;
    match f () with
    | v -> Mutex.unlock t.mu; v
    | exception e -> Mutex.unlock t.mu; raise e

  let add t ~name store =
    locked t (fun () ->
      if not (Hashtbl.mem t.tbl name) then t.order <- name :: t.order;
      Hashtbl.replace t.tbl name { store; lock = Rwlock.create () })

  let find t name = locked t (fun () -> Hashtbl.find_opt t.tbl name)

  let mem t name = locked t (fun () -> Hashtbl.mem t.tbl name)

  let names t = locked t (fun () -> List.rev t.order)
end

(* ------------------------------------------------------------- session *)

type t = {
  registry : Registry.t;
  cache : Engine.cache option;
  ceiling : Budget.spec;
  opts : Engine.opts;
  mu : Mutex.t;  (* guards current / private_store / prepared / inflight *)
  mutable current : [ `Shared of string | `Private ];
  mutable private_store : Registry.entry option;  (* created on first use *)
  prepared : (string, string) Hashtbl.t;          (* name -> query text *)
  mutable inflight : Budget.cancel list;
      (* switches of requests currently evaluating: a client may have
         several in flight (per-client cap > 1), and a disconnect must
         cancel them all *)
}

let[@inline] locked t f =
  Mutex.lock t.mu;
  match f () with
  | v -> Mutex.unlock t.mu; v
  | exception e -> Mutex.unlock t.mu; raise e

let create ?cache ?(ceiling = Budget.unlimited)
    ?(opts = Engine.default_opts) ~registry ~store () =
  if not (Registry.mem registry store) then
    Error (Printf.sprintf "unknown store %S" store)
  else
    Ok
      { registry;
        cache;
        ceiling;
        opts;
        mu = Mutex.create ();
        current = `Shared store;
        private_store = None;
        prepared = Hashtbl.create 8;
        inflight = [] }

let use t sel =
  match sel with
  | `Private -> locked t (fun () -> t.current <- `Private); Ok ()
  | `Shared name ->
    if Registry.mem t.registry name then begin
      locked t (fun () -> t.current <- `Shared name);
      Ok ()
    end
    else Error (Printf.sprintf "unknown store %S" name)

let current_store t =
  locked t (fun () ->
    match t.current with `Private -> "session" | `Shared name -> name)

let private_entry t =
  locked t (fun () ->
    match t.private_store with
    | Some e -> e
    | None ->
      let e =
        { Registry.store = Xmldb.Doc_store.create ();
          lock = Rwlock.create () }
      in
      t.private_store <- Some e;
      e)

(* The session's current store entry. A shared store deleted between
   [use] and here cannot happen — the registry only grows. *)
let current_entry t =
  match locked t (fun () -> t.current) with
  | `Private -> private_entry t
  | `Shared name ->
    (match Registry.find t.registry name with
     | Some e -> e
     | None -> Basis.Err.internal "store %S vanished from the registry" name)

let cancel_inflight t =
  List.iter Budget.cancel (locked t (fun () -> t.inflight))

(* Arm the request: a fresh cancel switch registered as an in-flight
   handle, and the client's wishes clamped under the server ceiling. The
   switch is armed before evaluation starts — a disconnect racing request
   start either sees it in [inflight] and trips it, or the request had
   not begun and simply never runs. *)
let with_request ?timeout_s t f =
  let switch = Budget.cancel_switch () in
  let spec =
    Budget.clamp ~ceiling:t.ceiling
      (Budget.limits ?timeout_s ~cancel:switch ())
  in
  locked t (fun () -> t.inflight <- switch :: t.inflight);
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
        t.inflight <- List.filter (fun s -> s != switch) t.inflight))
    (fun () -> f spec)

type reply = {
  items : string list;
  serialized : string;
  n : int;
  degraded : string option;
}

(* Per-item serialization, the form differential tooling multiset-compares
   (Xdm.serialize joins nodes without separators, which is ambiguous). *)
let reply_of store (r : Engine.result) =
  { items =
      List.map
        (function
          | Algebra.Value.Node n -> Xmldb.Serialize.node_to_string store n
          | v -> Algebra.Value.to_string v)
        r.Engine.items;
    serialized = r.Engine.serialized;
    n = List.length r.Engine.items;
    degraded = r.Engine.degraded }

let classified f =
  match f () with
  | v -> v
  | exception e ->
    (match Engine.classify_error e with
     | Some err -> Error err
     | None -> raise e)

let query ?timeout_s ?jobs t text =
  let entry = current_entry t in
  let store = entry.Registry.store in
  with_request ?timeout_s t (fun spec ->
    let opts =
      { t.opts with
        Engine.budget = Some spec;
        jobs = Option.value ~default:t.opts.Engine.jobs jobs }
    in
    classified (fun () ->
      (* Classification compiles through the shared cache, so the lock is
         only held for execution — the run below hits the same entry. *)
      let writes = Engine.constructs_nodes ?cache:t.cache ~opts text in
      let section = if writes then Rwlock.with_write else Rwlock.with_read in
      section entry.Registry.lock (fun () ->
        Result.map (reply_of store)
          (Engine.run_result ?cache:t.cache ~opts store text))))

let prepare t ~name text =
  classified (fun () ->
    (* Compile eagerly (populating the shared cache) so static errors
       surface at prepare time, not first exec. *)
    ignore (Engine.constructs_nodes ?cache:t.cache ~opts:t.opts text);
    locked t (fun () -> Hashtbl.replace t.prepared name text);
    Ok ())

let exec ?timeout_s ?jobs t name =
  match locked t (fun () -> Hashtbl.find_opt t.prepared name) with
  | None ->
    Error
      { Engine.kind = Basis.Err.Dynamic;
        message = Printf.sprintf "unknown prepared statement %S" name }
  | Some text -> query ?timeout_s ?jobs t text

(* Debug work simulator: occupy the calling worker for [ms], polling the
   clamped budget guard — the deterministic stand-in for a slow query in
   shedding/cancellation tests. check_interrupted (not check) keeps the
   poll loop out of op accounting. *)
let sleep ?timeout_s t ~ms =
  with_request ?timeout_s t (fun spec ->
    classified (fun () ->
      let guard = Budget.start spec in
      let until = Basis.Clock.now () +. (float_of_int ms /. 1000.) in
      let rec wait () =
        Budget.check_interrupted guard;
        if Basis.Clock.now () < until then begin
          Thread.delay 0.002;
          wait ()
        end
      in
      wait ();
      Ok ()))

let load ?timeout_s t ~uri xml =
  let entry = private_entry t in
  with_request ?timeout_s t (fun spec ->
    classified (fun () ->
      let guard = Budget.start spec in
      Rwlock.with_write entry.Registry.lock (fun () ->
        ignore
          (Xmldb.Xml_parser.load_document ~guard entry.Registry.store
             ~uri xml));
      Ok ()))

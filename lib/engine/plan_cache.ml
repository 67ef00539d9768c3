(* An LRU cache for prepared plans, keyed by strings built from the
   normalized query text and an options fingerprint (see Engine).

   Recency is tracked by a monotonically increasing tick stamped on every
   access; eviction scans for the minimum stamp. Capacities are small
   (tens to hundreds of entries) and evictions only happen on insertion
   past capacity, so the O(n) scan is irrelevant next to the
   parse->compile work a hit saves.

   The counters are the cache's observable contract: every [find] is
   either a hit or a miss, every insertion past capacity is an
   eviction.

   All operations take an internal mutex so the query server can share
   one cache across concurrent session threads. [find_or_add] builds
   outside the lock — compilation can take milliseconds and must not
   serialize unrelated lookups; two threads missing on the same key both
   build and the second [add] wins, which costs a duplicate compile, not
   correctness. *)

type 'a entry = {
  value : 'a;
  mutable last_used : int;
}

type 'a t = {
  mu : Mutex.t;
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  { mu = Mutex.create ();
    capacity = max 0 capacity;
    tbl = Hashtbl.create (max 16 capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let capacity (t : 'a t) = t.capacity

let[@inline] locked (t : 'a t) f =
  Mutex.lock t.mu;
  match f () with
  | v -> Mutex.unlock t.mu; v
  | exception e -> Mutex.unlock t.mu; raise e

let find (t : 'a t) key =
  locked t (fun () ->
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      t.tick <- t.tick + 1;
      e.last_used <- t.tick;
      t.hits <- t.hits + 1;
      Some e.value
    | None ->
      t.misses <- t.misses + 1;
      None)

let evict_lru (t : 'a t) =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
         match acc with
         | Some (_, stamp) when stamp <= e.last_used -> acc
         | _ -> Some (k, e.last_used))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

let add (t : 'a t) key value =
  if t.capacity > 0 then
    locked t (fun () ->
      if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.capacity
      then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.tbl key { value; last_used = t.tick })

(* The build runs outside the lock (see module comment): a concurrent
   miss on the same key may build twice, last add wins. *)
let find_or_add t key build =
  match find t key with
  | Some v -> v
  | None ->
    let v = build () in
    add t key v;
    v

let stats (t : 'a t) =
  locked t (fun () ->
    { hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      size = Hashtbl.length t.tbl;
      capacity = t.capacity })

let pp_stats fmt s =
  Format.fprintf fmt "%d hits, %d misses, %d evictions, %d/%d entries"
    s.hits s.misses s.evictions s.size s.capacity

let stats_to_string s = Format.asprintf "%a" pp_stats s

(* ------------------------------------------------- query normalization *)

(* Cache keys want textual noise removed: comments stripped, whitespace
   runs collapsed, so reformatted copies of one query share an entry.
   Comments [(: ... :)] nest and act as token separators; string literals
   are copied verbatim (their whitespace is data).

   A query with a '<' outside string literals and comments is left
   untrimmed (beyond the surrounding whitespace): '<' may open a direct
   constructor whose literal text content is whitespace-significant, and
   the lexical scan here cannot tell a constructor from a comparison.
   Conservatism only costs key precision, never correctness. The scan
   must skip comments before deciding: a quote inside a comment opens no
   string literal. *)
let normalize_query src =
  let n = String.length src in
  let b = Buffer.create n in
  let i = ref 0 in
  let depth = ref 0 in
  let pending_ws = ref false in
  let sep () =
    if !pending_ws && Buffer.length b > 0 then Buffer.add_char b ' ';
    pending_ws := false
  in
  match
    while !i < n do
      let c = src.[!i] in
      if !depth > 0 then begin
        if c = '(' && !i + 1 < n && src.[!i + 1] = ':' then begin
          incr depth;
          i := !i + 2
        end
        else if c = ':' && !i + 1 < n && src.[!i + 1] = ')' then begin
          decr depth;
          i := !i + 2
        end
        else incr i;
        pending_ws := true
      end
      else if c = '(' && !i + 1 < n && src.[!i + 1] = ':' then begin
        depth := 1;
        i := !i + 2;
        pending_ws := true
      end
      else if c = '<' then raise_notrace Exit
      else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
        pending_ws := true;
        incr i
      end
      else if c = '"' || c = '\'' then begin
        sep ();
        Buffer.add_char b c;
        incr i;
        let fin = ref false in
        while (not !fin) && !i < n do
          let d = src.[!i] in
          Buffer.add_char b d;
          incr i;
          if d = c then
            (* doubled quotes escape the delimiter inside the literal *)
            if !i < n && src.[!i] = c then begin
              Buffer.add_char b c;
              incr i
            end
            else fin := true
        done
      end
      else begin
        sep ();
        Buffer.add_char b c;
        incr i
      end
    done
  with
  | () -> Buffer.contents b
  | exception Exit -> String.trim src

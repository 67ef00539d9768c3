(* The operator kernels: the actual table-in/table-out implementations of
   every algebra operator, factored out of the evaluators. [Eval]
   (boxed, per-DAG-node memoization) and [Physical] (typed columns)
   both dispatch into this module — [Physical] for its
   boxed-fallback path, for the loop-lifted step behind its typed step
   kernel, and for the scalar primitive semantics
   ([apply1]/[apply2]/[apply3]) its per-row kernels reuse.

   Kernels see only an [env] (store + optional indexes) and their input
   tables; memoization, budgets, profiling, and Dag/Tree policy live in
   the callers. *)

open Basis
open Plan

(* What a kernel needs besides its inputs: the document store, the
   optional tag index realizing the step operator, and the lazily built
   id index for fn:id. *)
type env = {
  store : Xmldb.Doc_store.t;
  tag_index : Xmldb.Tag_index.t option;
  mutable id_index : Xmldb.Id_index.t option;
  code_eval : bool;
      (* compressed execution: batched staircase scans over bulk-decoded
         packed columns, and store text-id columns and equalities in the
         physical layer. Results are bit-identical on or off. *)
  bulk_decodes : int Atomic.t;
      (* column rows this run's batched staircase scans decoded *)
}

let env ?tag_index ?(code_eval = true) store =
  { store; tag_index; id_index = None; code_eval;
    bulk_decodes = Atomic.make 0 }

let id_index env =
  match env.id_index with
  | Some i -> i
  | None ->
    let i = Xmldb.Id_index.create env.store in
    env.id_index <- Some i;
    i

(* ------------------------------------------------------------ primitives *)

module A_ty = Plan

let atomize store v =
  match v with
  | Value.Node n -> Value.Str (Xmldb.Doc_store.string_value store n)
  | v -> v

let node_of = function
  | Value.Node n -> n
  | v -> Value.not_node v

let node_kind_is store v kind qopt =
  match v with
  | Value.Node n ->
    Xmldb.Node_kind.equal (Xmldb.Doc_store.kind store n) kind
    && (match qopt with
        | None -> true
        | Some q ->
          (match Xmldb.Doc_store.name store n with
           | Some q' -> Xmldb.Qname.equal q q'
           | None -> false))
  | _ -> false

(* "cast as" on an atomized single item. *)
let cast_atomic store ty v =
  let v = atomize store v in
  match (ty : A_ty.atomic_ty) with
  | A_ty.Ty_integer -> Value.Int (Value.int_value v)
  | A_ty.Ty_double -> Value.Dbl (Value.float_value v)
  | A_ty.Ty_string -> Value.Str (Value.to_string v)
  | A_ty.Ty_boolean -> Value.Bool (Value.bool_value v)
  | A_ty.Ty_untyped -> Value.Str (Value.to_string v)
  | A_ty.Ty_any_atomic -> v

let instance_item store ty v =
  match (ty : A_ty.item_ty) with
  | A_ty.Ty_item -> true
  | A_ty.Ty_node -> Value.is_node v
  | A_ty.Ty_element qopt -> node_kind_is store v Xmldb.Node_kind.Element qopt
  | A_ty.Ty_attribute qopt -> node_kind_is store v Xmldb.Node_kind.Attribute qopt
  | A_ty.Ty_text -> node_kind_is store v Xmldb.Node_kind.Text None
  | A_ty.Ty_comment -> node_kind_is store v Xmldb.Node_kind.Comment None
  | A_ty.Ty_pi -> node_kind_is store v Xmldb.Node_kind.Processing_instruction None
  | A_ty.Ty_document -> node_kind_is store v Xmldb.Node_kind.Document None
  | A_ty.Ty_atomic at ->
    (match (at, v) with
     | _, Value.Node _ -> false
     | A_ty.Ty_any_atomic, _ -> true
     | A_ty.Ty_integer, Value.Int _ -> true
     | A_ty.Ty_double, Value.Dbl _ -> true
     | A_ty.Ty_boolean, Value.Bool _ -> true
     (* strings and untypedAtomic share the Str carrier *)
     | (A_ty.Ty_string | A_ty.Ty_untyped), Value.Str _ -> true
     | _ -> false)

let apply1 store f v =
  match f with
  | P_not -> Value.Bool (not (Value.ebv_atomic v))
  | P_neg -> Value.neg v
  | P_atomize -> atomize store v
  | P_string -> Value.Str (Value.to_string (atomize store v))
  | P_number ->
    (match atomize store v with
     | exception _ -> Value.Dbl Float.nan
     | av ->
       (match Value.float_value av with
        | f -> Value.Dbl f
        | exception Err.Dynamic_error _ -> Value.Dbl Float.nan))
  | P_position -> Value.Int (Value.position (atomize store v))
  | P_cast_dbl -> Value.Dbl (Value.float_value (atomize store v))
  | P_cast_str -> Value.Str (Value.to_string (atomize store v))
  | P_cast_bool -> Value.Bool (Value.bool_value v)
  | P_string_length ->
    Value.Int (String.length (Value.to_string (atomize store v)))
  | P_name ->
    (match v with
     | Value.Node n ->
       (match Xmldb.Doc_store.name store n with
        | Some q -> Value.Str (Xmldb.Qname.to_string q)
        | None -> Value.Str "")
     | v -> Err.dynamic "fn:name applied to %s" (Value.type_name v))
  | P_local_name ->
    (match v with
     | Value.Node n ->
       (match Xmldb.Doc_store.name store n with
        | Some q -> Value.Str (Xmldb.Qname.local q)
        | None -> Value.Str "")
     | v -> Err.dynamic "fn:local-name applied to %s" (Value.type_name v))
  | P_round ->
    (* fn:round rounds .5 toward positive infinity (unlike Float.round) *)
    (match v with
     | Value.Int _ -> v
     | v -> Value.Dbl (Float.floor (Value.float_value v +. 0.5)))
  | P_floor ->
    (match v with
     | Value.Int _ -> v
     | v -> Value.Dbl (Float.floor (Value.float_value v)))
  | P_ceiling ->
    (match v with
     | Value.Int _ -> v
     | v -> Value.Dbl (Float.ceil (Value.float_value v)))
  | P_abs ->
    (match v with
     | Value.Int i -> Value.Int (Value.abs_int i)
     | v -> Value.Dbl (Float.abs (Value.float_value v)))
  | P_is_node -> Value.Bool (Value.is_node v)
  | P_normalize_space ->
    let s = Value.to_string (atomize store v) in
    let words =
      String.split_on_char ' '
        (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
      |> List.filter (fun w -> w <> "")
    in
    Value.Str (String.concat " " words)
  | P_check_zero_one ->
    if Value.int_value v > 1 then
      Err.dynamic "fn:zero-or-one: more than one item"
    else Value.Bool true
  | P_check_exactly_one ->
    if Value.int_value v <> 1 then
      Err.dynamic "fn:exactly-one: %d items" (Value.int_value v)
    else Value.Bool true
  | P_check_one_or_more ->
    if Value.int_value v < 1 then
      Err.dynamic "fn:one-or-more: empty sequence"
    else Value.Bool true
  | P_upper ->
    Value.Str (String.uppercase_ascii (Value.to_string (atomize store v)))
  | P_lower ->
    Value.Str (String.lowercase_ascii (Value.to_string (atomize store v)))
  | P_serialize ->
    (match v with
     | Value.Node n -> Value.Str (Xmldb.Serialize.node_to_string store n)
     | atom -> Value.Str (Value.to_string atom))
  | P_cast_as ty -> cast_atomic store ty v
  | P_castable ty ->
    (match cast_atomic store ty v with
     | _ -> Value.Bool true
     | exception Err.Dynamic_error _ -> Value.Bool false)
  | P_instance_item ty -> Value.Bool (instance_item store ty v)
  | P_check_treat ->
    if Value.bool_value v then Value.Bool true
    else Err.dynamic "treat as: the operand does not match the required type"
  | P_error ->
    Err.dynamic "fn:error: %s" (Value.to_string (atomize store v))
  | P_node_check -> if Value.is_node v then v else Value.path_not_node v
  | P_check_node -> if Value.is_node v then v else Value.not_node v
  | P_check_singleton ->
    let n = Value.int_value v in
    if n <> 1 then Value.not_singleton n else Value.Bool true

let apply2 store f a bv =
  match f with
  | P_add -> Value.add a bv
  | P_sub -> Value.sub a bv
  | P_mul -> Value.mul a bv
  | P_div -> Value.div a bv
  | P_idiv -> Value.idiv a bv
  | P_mod -> Value.modulo a bv
  | P_eq -> Value.Bool (Value.cmp_eq a bv)
  | P_ne -> Value.Bool (Value.cmp_ne a bv)
  | P_lt -> Value.Bool (Value.cmp_lt a bv)
  | P_le -> Value.Bool (Value.cmp_le a bv)
  | P_gt -> Value.Bool (Value.cmp_gt a bv)
  | P_ge -> Value.Bool (Value.cmp_ge a bv)
  | P_and -> Value.Bool (Value.bool_value a && Value.bool_value bv)
  | P_or -> Value.Bool (Value.bool_value a || Value.bool_value bv)
  | P_is -> Value.Bool (Xmldb.Node_id.equal (node_of a) (node_of bv))
  | P_before -> Value.Bool (Xmldb.Node_id.compare (node_of a) (node_of bv) < 0)
  | P_after -> Value.Bool (Xmldb.Node_id.compare (node_of a) (node_of bv) > 0)
  | P_concat ->
    Value.Str (Value.to_string (atomize store a) ^ Value.to_string (atomize store bv))
  | P_contains ->
    let hay = Value.to_string (atomize store a)
    and needle = Value.to_string (atomize store bv) in
    let nh = String.length hay and nn = String.length needle in
    let rec scan i =
      if nn = 0 then true
      else if i + nn > nh then false
      else if String.sub hay i nn = needle then true
      else scan (i + 1)
    in
    Value.Bool (scan 0)
  | P_starts_with ->
    let s = Value.to_string (atomize store a)
    and p = Value.to_string (atomize store bv) in
    Value.Bool
      (String.length p <= String.length s
       && String.sub s 0 (String.length p) = p)
  | P_ends_with ->
    let s = Value.to_string (atomize store a)
    and p = Value.to_string (atomize store bv) in
    let ns = String.length s and np = String.length p in
    Value.Bool (np <= ns && String.sub s (ns - np) np = p)
  | P_substr_before | P_substr_after ->
    let s = Value.to_string (atomize store a)
    and p = Value.to_string (atomize store bv) in
    let ns = String.length s and np = String.length p in
    let rec find i =
      if np = 0 || i + np > ns then None
      else if String.sub s i np = p then Some i
      else find (i + 1)
    in
    (match find 0 with
     | None -> Value.Str ""
     | Some i ->
       if f = P_substr_before then Value.Str (String.sub s 0 i)
       else Value.Str (String.sub s (i + np) (ns - i - np)))

(* fn:substring and fn:translate (codepoints approximated by bytes for
   the ASCII-dominated workloads here). *)
let apply3 store f a b c =
  match f with
  | P3_substring ->
    let s = Value.to_string (atomize store a) in
    let start = Float.round (Value.float_value (atomize store b)) in
    let len = Float.round (Value.float_value (atomize store c)) in
    if Float.is_nan start || Float.is_nan len then Value.Str ""
    else begin
      let n = String.length s in
      let buf = Buffer.create (min n 16) in
      for p = 1 to n do
        let fp = float_of_int p in
        if fp >= start && fp < start +. len then Buffer.add_char buf s.[p - 1]
      done;
      Value.Str (Buffer.contents buf)
    end
  | P3_translate ->
    let s = Value.to_string (atomize store a) in
    let from_ = Value.to_string (atomize store b) in
    let to_ = Value.to_string (atomize store c) in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun ch ->
         match String.index_opt from_ ch with
         | None -> Buffer.add_char buf ch
         | Some i ->
           if i < String.length to_ then Buffer.add_char buf to_.[i])
      s;
    Value.Str (Buffer.contents buf)

let cmp_fun = function
  | P_eq -> Value.cmp_eq
  | P_ne -> Value.cmp_ne
  | P_lt -> Value.cmp_lt
  | P_le -> Value.cmp_le
  | P_gt -> Value.cmp_gt
  | P_ge -> Value.cmp_ge
  | _ -> Err.internal "Thetajoin: comparison operator expected"

(* --------------------------------------------------------- row utilities *)

module Row_key = struct
  type t = Value.t array
  let equal a b =
    Array.length a = Array.length b
    &&
    (let ok = ref true in
     Array.iteri (fun i v -> if not (Value.equal v b.(i)) then ok := false) a;
     !ok)
  let hash a = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 a
end

module Row_tbl = Hashtbl.Make (Row_key)

module Val_key = struct
  type t = Value.t
  let equal = Value.equal
  let hash = Value.hash
end

module Val_tbl = Hashtbl.Make (Val_key)

let all_ints c = Array.for_all (function Value.Int _ -> true | _ -> false) c

module Int_tbl = Hashtbl.Make (Int)

(* Group the rows of [t] by column [part] (None: one group), preserving
   first-seen group order. Returns (group key option, row index array) list.
   Integer group keys (the overwhelmingly common case: iter columns) take
   an unboxed fast path. *)
let group_rows t part =
  match part with
  | None ->
    [ (None, Array.init (Table.nrows t) (fun i -> i)) ]
  | Some pcol ->
    let c = Table.col t pcol in
    if all_ints c then begin
      let order = Vec.create 0 in
      let groups : int Vec.t Int_tbl.t = Int_tbl.create 64 in
      for r = 0 to Table.nrows t - 1 do
        let k = match c.(r) with Value.Int i -> i | _ -> assert false in
        match Int_tbl.find_opt groups k with
        | Some v -> Vec.push v r
        | None ->
          let v = Vec.create 0 in
          Vec.push v r;
          Int_tbl.add groups k v;
          Vec.push order k
      done;
      Vec.fold_left
        (fun acc k ->
           (Some (Value.Int k), Vec.to_array (Int_tbl.find groups k)) :: acc)
        [] order
      |> List.rev
    end
    else begin
      let order = Vec.create (Value.Int 0) in
      let groups : int Vec.t Val_tbl.t = Val_tbl.create 64 in
      for r = 0 to Table.nrows t - 1 do
        let k = c.(r) in
        match Val_tbl.find_opt groups k with
        | Some v -> Vec.push v r
        | None ->
          let v = Vec.create 0 in
          Vec.push v r;
          Val_tbl.add groups k v;
          Vec.push order k
      done;
      Vec.fold_left
        (fun acc k -> (Some k, Vec.to_array (Val_tbl.find groups k)) :: acc)
        [] order
      |> List.rev
    end

let check_disjoint_schemas l r =
  Array.iter
    (fun cl ->
       if Array.exists (String.equal cl) r then
         Err.internal "join: column %S on both sides" cl)
    l

(* ------------------------------------------------------------- operators *)

let eval_project t cols = Table.project t cols

let eval_select t colname =
  let c = Table.col t colname in
  let idx = Vec.create 0 in
  for r = 0 to Table.nrows t - 1 do
    match c.(r) with
    | Value.Bool true -> Vec.push idx r
    | Value.Bool false -> ()
    | v -> Err.dynamic "selection on non-boolean value %s" (Value.type_name v)
  done;
  Table.gather t (Vec.to_array idx)

let combine_rows l r li ri =
  let schema = Array.append (Table.schema l) (Table.schema r) in
  let pick t idx = Array.map (fun name ->
      let c = Table.col t name in
      Array.map (fun i -> c.(i)) idx)
      (Table.schema t)
  in
  Table.create schema (Array.append (pick l li) (pick r ri)) (Array.length li)

(* Equi-join matching: the (left row, right row) index pairs, exposed
   separately from the table plumbing so the physical executor can reuse
   the exact same matching semantics (and row order) while building its
   output with typed gathers instead of boxed tables. *)
let join_indices (lc : Value.t array) (rc : Value.t array) =
  let nl = Array.length lc and nr = Array.length rc in
  let li = Vec.create 0 and ri = Vec.create 0 in
  if all_ints lc && all_ints rc then begin
    (* unboxed fast path for integer keys (iter/bind joins) *)
    let index : int Vec.t Int_tbl.t = Int_tbl.create (max 16 nr) in
    for j = 0 to nr - 1 do
      let k = match rc.(j) with Value.Int i -> i | _ -> assert false in
      (match Int_tbl.find_opt index k with
       | Some v -> Vec.push v j
       | None ->
         let v = Vec.create 0 in
         Vec.push v j;
         Int_tbl.add index k v)
    done;
    for i = 0 to nl - 1 do
      let k = match lc.(i) with Value.Int x -> x | _ -> assert false in
      match Int_tbl.find_opt index k with
      | None -> ()
      | Some v -> Vec.iter (fun j -> Vec.push li i; Vec.push ri j) v
    done
  end
  else begin
    let index : int Vec.t Val_tbl.t = Val_tbl.create (max 16 nr) in
    for j = 0 to nr - 1 do
      (match Val_tbl.find_opt index rc.(j) with
       | Some v -> Vec.push v j
       | None ->
         let v = Vec.create 0 in
         Vec.push v j;
         Val_tbl.add index rc.(j) v)
    done;
    for i = 0 to nl - 1 do
      match Val_tbl.find_opt index lc.(i) with
      | None -> ()
      | Some v -> Vec.iter (fun j -> Vec.push li i; Vec.push ri j) v
    done
  end;
  (Vec.to_array li, Vec.to_array ri)

let eval_join l r lcol rcol =
  check_disjoint_schemas (Table.schema l) (Table.schema r);
  let li, ri = join_indices (Table.col l lcol) (Table.col r rcol) in
  combine_rows l r li ri

(* Theta-join matching over the two key columns, same exposure rationale
   as [join_indices]: left rows ascending, each left row's right rows
   ascending. Equality over coercion-free keys is the hash match; every
   other comparison is the nested loop over [Value.compare_xq], the
   reference the physical inequality kernel reproduces. *)
let theta_indices (lc : Value.t array) (cmp : prim2) (rc : Value.t array) =
  let homogeneous c =
    (* a hash join is only sound for general-comparison equality when no
       untyped-vs-numeric coercion can fire: all strings on both sides, or
       all numerics on both sides (Value.hash is Int/Dbl-consistent) *)
    Array.for_all (function Value.Str _ -> true | _ -> false) c
    || Array.for_all Value.is_numeric c
  in
  match cmp with
  | P_eq
    when (all_ints lc && all_ints rc)
         || (homogeneous lc && homogeneous rc
             && (Array.length lc = 0
                 || Array.length rc = 0
                 || Value.is_numeric lc.(0) = Value.is_numeric rc.(0))) ->
    join_indices lc rc
  | _ ->
    (* the nested loop: the reference pairs, in the reference order *)
    let f = cmp_fun cmp in
    let li = Vec.create 0 and ri = Vec.create 0 in
    for i = 0 to Array.length lc - 1 do
      for j = 0 to Array.length rc - 1 do
        if f lc.(i) rc.(j) then begin
          Vec.push li i;
          Vec.push ri j
        end
      done
    done;
    (Vec.to_array li, Vec.to_array ri)

let eval_thetajoin l r lcol cmp rcol =
  check_disjoint_schemas (Table.schema l) (Table.schema r);
  let li, ri = theta_indices (Table.col l lcol) cmp (Table.col r rcol) in
  combine_rows l r li ri

(* The hash side of a semi/anti join, split out so the physical layer can
   fan the probe out over morsels: the set of right-side key rows.
   Building it is sequential; after that the table is never mutated, so
   concurrent probes only perform racing reads of frozen state. *)
let semi_key_set ~nr (rcols : Value.t array array) =
  let set = Row_tbl.create (max 16 nr) in
  for j = 0 to nr - 1 do
    Row_tbl.replace set (Array.map (fun c -> c.(j)) rcols) ()
  done;
  set

(* Probe left rows [lo, hi) against the frozen key set; kept indices come
   back ascending, so per-morsel results concatenated in morsel order
   reproduce the serial scan. *)
let semi_probe set ~anti (lcols : Value.t array array) lo hi =
  let idx = Vec.create 0 in
  for i = lo to hi - 1 do
    let mem = Row_tbl.mem set (Array.map (fun c -> c.(i)) lcols) in
    if mem <> anti then Vec.push idx i
  done;
  Vec.to_array idx

(* Which left rows survive a semi/anti join, given the key columns of
   both sides (columns in matching on-pair order). *)
let semi_keep ~anti ~nl ~nr (lcols : Value.t array array)
    (rcols : Value.t array array) =
  let set = semi_key_set ~nr rcols in
  semi_probe set ~anti lcols 0 nl

let eval_semi ~anti l r on =
  let rcols = Array.of_list (List.map (fun (_, rc) -> Table.col r rc) on) in
  let lcols = Array.of_list (List.map (fun (lc, _) -> Table.col l lc) on) in
  let keep =
    semi_keep ~anti ~nl:(Table.nrows l) ~nr:(Table.nrows r) lcols rcols
  in
  Table.gather l keep

let eval_cross l r =
  check_disjoint_schemas (Table.schema l) (Table.schema r);
  let nl = Table.nrows l and nr = Table.nrows r in
  let n = nl * nr in
  let li = Array.make n 0 and ri = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to nl - 1 do
    for j = 0 to nr - 1 do
      li.(!k) <- i;
      ri.(!k) <- j;
      incr k
    done
  done;
  combine_rows l r li ri

let eval_distinct t =
  let seen = Row_tbl.create (max 16 (Table.nrows t)) in
  let idx = Vec.create 0 in
  for r = 0 to Table.nrows t - 1 do
    let key = Table.row t r in
    if not (Row_tbl.mem seen key) then begin
      Row_tbl.add seen key ();
      Vec.push idx r
    end
  done;
  Table.gather t (Vec.to_array idx)

let eval_rownum t res order part =
  let n = Table.nrows t in
  let ocols = List.map (fun (c, d) -> (Table.col t c, d)) order in
  let pcol = Option.map (Table.col t) part in
  let perm = Array.init n (fun i -> i) in
  let compare_rows a b =
    let pc =
      match pcol with
      | None -> 0
      | Some c -> Value.compare_total c.(a) c.(b)
    in
    if pc <> 0 then pc
    else
      let rec go = function
        | [] -> Int.compare a b (* stability tie-break *)
        | (c, d) :: rest ->
          let cmp = Value.compare_total c.(a) c.(b) in
          let cmp = match d with Asc -> cmp | Desc -> -cmp in
          if cmp <> 0 then cmp else go rest
      in
      go ocols
  in
  Array.sort compare_rows perm;
  let out = Array.make n (Value.Int 0) in
  let counter = ref 0 in
  let last_part = ref None in
  Array.iter
    (fun r ->
       (match pcol with
        | None -> incr counter
        | Some c ->
          (match !last_part with
           | Some v when Value.equal v c.(r) -> incr counter
           | _ ->
             last_part := Some c.(r);
             counter := 1));
       out.(r) <- Value.Int !counter)
    perm;
  Table.append_col t res out

let eval_rowid t res =
  Table.append_col t res (Array.init (Table.nrows t) (fun i -> Value.Int (i + 1)))

let eval_attach t res v =
  Table.append_col t res (Array.make (Table.nrows t) v)

let eval_fun1 store t res f arg =
  let c = Table.col t arg in
  Table.append_col t res (Array.map (apply1 store f) c)

let eval_fun2 store t res f arg1 arg2 =
  let c1 = Table.col t arg1 and c2 = Table.col t arg2 in
  Table.append_col t res
    (Array.init (Table.nrows t) (fun r -> apply2 store f c1.(r) c2.(r)))

let eval_fun3 store t res f arg1 arg2 arg3 =
  let c1 = Table.col t arg1 and c2 = Table.col t arg2 in
  let c3 = Table.col t arg3 in
  Table.append_col t res
    (Array.init (Table.nrows t) (fun r -> apply3 store f c1.(r) c2.(r) c3.(r)))

let eval_aggr store t res agg arg part order =
  let argc = Option.map (Table.col t) arg in
  let orderc = Option.map (Table.col t) order in
  let arg_at r =
    match argc with
    | Some c -> c.(r)
    | None -> Err.internal "aggregate %s needs an argument column" res
  in
  let items rows =
    Seq.map (fun r -> atomize store (arg_at r)) (Array.to_seq rows) in
  let groups = group_rows t part in
  let out_rows = Vec.create [||] in
  List.iter
    (fun (key, rows) ->
       let emit v =
         match key with
         | Some k -> Vec.push out_rows [| k; v |]
         | None -> Vec.push out_rows [| v |]
       in
       match agg with
       | A_the ->
         (match rows with
          | [| r |] -> emit (arg_at r)
          | [||] -> ()
          | _ -> Value.not_singleton (Array.length rows))
       | A_count -> emit (Value.Int (Array.length rows))
       | A_sum -> emit (Value.sum (items rows))
       | A_max | A_min ->
         if Array.length rows > 0 then begin
           let items = Array.map (fun r -> atomize store (arg_at r)) rows in
           (* untyped items compare numerically when the whole group has a
              numeric reading (the fn:min/max untypedAtomic->double cast) *)
           let numeric = Array.map Value.numeric_view items in
           let items =
             if Array.for_all Option.is_some numeric then
               Array.map Option.get numeric
             else items
           in
           let better =
             if agg = A_max then Value.cmp_gt else Value.cmp_lt in
           let best = ref items.(0) in
           let nan = ref false in
           Array.iter
             (fun v ->
                (match v with
                 | Value.Dbl f when Float.is_nan f -> nan := true
                 | _ -> ());
                if better v !best then best := v)
             items;
           emit (if !nan then Value.Dbl Float.nan else !best)
         end
       | A_avg ->
         if Array.length rows > 0 then
           emit
             (Value.div (Value.sum (items rows))
                (Value.Int (Array.length rows)))
       | A_ebv ->
         let n = Array.length rows in
         if n = 0 then emit (Value.Bool false)
         else begin
           let all_nodes =
             Array.for_all (fun r -> Value.is_node (arg_at r)) rows in
           if all_nodes then emit (Value.Bool true)
           else if n = 1 then emit (Value.Bool (Value.ebv_atomic (arg_at rows.(0))))
           else Value.ebv_of_atomics n
         end
       | A_str_join sep ->
         let items =
           Array.map
             (fun r ->
                let key =
                  match orderc with
                  | Some c -> c.(r)
                  | None -> Value.Int 0
                in
                (key, Value.to_string (atomize store (arg_at r))))
             rows
         in
         Array.sort (fun (a, _) (b, _) -> Value.compare_total a b) items;
         emit
           (Value.Str
              (String.concat sep (Array.to_list (Array.map snd items)))))
    groups;
  let schema =
    match part with
    | Some p -> [| p; res |]
    | None -> [| res |]
  in
  Table.of_rows schema (Vec.fold_left (fun acc r -> r :: acc) [] out_rows |> List.rev)

let resolve_test store = function
  | N_name q -> Xmldb.Node_test.Name (Xmldb.Doc_store.name_test_id store q)
  | N_wild -> Xmldb.Node_test.Name_wild
  | N_kind k -> Xmldb.Node_test.Kind k
  | N_any -> Xmldb.Node_test.Any_node
  | N_pi t -> Xmldb.Node_test.Pi_target t

(* The reference executor's step: one staircase call per iteration,
   iterations in first-seen order, one boxed row per result. *)
let eval_step ?tag_index ?(batch = true) ?decoded store t axis test =
  let test = resolve_test store test in
  let itemc = Table.col t "item" in
  let groups = group_rows t (Some "iter") in
  let out = Vec.create [||] in
  let eval_one =
    match tag_index with
    | Some ti when Xmldb.Tag_index.applicable axis test ->
      Xmldb.Tag_index.step ti axis test
    | _ -> Xmldb.Staircase.step ~batch ?decoded store axis test
  in
  List.iter
    (fun (key, rows) ->
       let iter = Option.get key in
       let ctxs = Array.map (fun r -> node_of itemc.(r)) rows in
       let result = eval_one ctxs in
       Array.iter
         (fun n -> Vec.push out [| iter; Value.Node n |])
         result)
    groups;
  Table.of_rows [| "iter"; "item" |]
    (Vec.fold_left (fun acc r -> r :: acc) [] out |> List.rev)

(* [eval_step] with the run's step configuration. *)
let step_boxed env t axis test =
  eval_step ?tag_index:env.tag_index ~batch:env.code_eval
    ~decoded:env.bulk_decodes env.store t axis test

(* The same step over machine-int rows whose iters are non-decreasing
   (see [Xmldb.Staircase.step_lifted]): one loop-lifted call for the
   whole table, rows in [eval_step]'s order. *)
let step_lifted env axis test rows =
  let test = resolve_test env.store test in
  match env.tag_index with
  | Some ti when Xmldb.Tag_index.applicable axis test ->
    Xmldb.Tag_index.step_lifted ti axis test rows
  | _ ->
    Xmldb.Staircase.step_lifted ~batch:env.code_eval ~decoded:env.bulk_decodes
      env.store axis test rows

let eval_doc store t =
  let itemc = Table.col t "item" in
  let iterc = Table.col t "iter" in
  Table.of_rows [| "iter"; "item" |]
    (List.init (Table.nrows t) (fun r ->
         let uri = Value.to_string (atomize store itemc.(r)) in
         match Xmldb.Doc_store.find_document store uri with
         | Some n -> [| iterc.(r); Value.Node n |]
         | None -> Err.dynamic "fn:doc: document %S not available" uri))

(* Element construction: one new fragment per evaluation; per iteration of
   [qnames], build an element whose content is [content]'s rows for that
   iteration in pos order. Adjacent atomics are joined with a space; nodes
   are deep-copied (XQuery constructor semantics). *)
let eval_elem store qn ct =
  let qiter = Table.col qn "iter" and qitem = Table.col qn "item" in
  let citer = Table.col ct "iter" and cpos = Table.col ct "pos" in
  let citem = Table.col ct "item" in
  (* group content by iter, each group sorted by pos *)
  let content : (int * Value.t) Vec.t Val_tbl.t = Val_tbl.create 64 in
  for r = 0 to Table.nrows ct - 1 do
    let entry = (Value.int_value cpos.(r), citem.(r)) in
    match Val_tbl.find_opt content citer.(r) with
    | Some v -> Vec.push v entry
    | None ->
      let v = Vec.create (0, Value.Int 0) in
      Vec.push v entry;
      Val_tbl.add content citer.(r) v
  done;
  let b = Xmldb.Doc_store.Builder.create store in
  let n = Table.nrows qn in
  for r = 0 to n - 1 do
    Xmldb.Doc_store.Builder.start_element b (Value.node_name "element" qitem.(r));
    (match Val_tbl.find_opt content qiter.(r) with
     | None -> ()
     | Some v ->
       let items = Vec.to_array v in
       Array.sort (fun (p1, _) (p2, _) -> Int.compare p1 p2) items;
       let prev_atomic = ref false in
       Array.iter
         (fun (_, item) ->
            match item with
            | Value.Node nid ->
              Xmldb.Doc_store.Builder.copy b nid;
              prev_atomic := false
            | atom ->
              let s = Value.to_string atom in
              if !prev_atomic then Xmldb.Doc_store.Builder.text b (" " ^ s)
              else Xmldb.Doc_store.Builder.text b s;
              prev_atomic := true)
         items);
    Xmldb.Doc_store.Builder.end_element b
  done;
  let fid, roots = Xmldb.Doc_store.Builder.finish b in
  ignore fid;
  if Array.length roots <> n then
    Err.internal "element construction produced %d roots for %d iterations"
      (Array.length roots) n;
  Table.of_rows [| "iter"; "item" |]
    (List.init n (fun r -> [| qiter.(r); Value.Node roots.(r) |]))

let eval_attr store qn vals =
  let qiter = Table.col qn "iter" and qitem = Table.col qn "item" in
  let viter = Table.col vals "iter" and vitem = Table.col vals "item" in
  (* values: at most one row per iter; absent -> "" *)
  let vmap = Val_tbl.create 64 in
  for r = 0 to Table.nrows vals - 1 do
    Val_tbl.replace vmap viter.(r) (Value.to_string (atomize store vitem.(r)))
  done;
  let b = Xmldb.Doc_store.Builder.create store in
  let n = Table.nrows qn in
  for r = 0 to n - 1 do
    let name = Value.node_name "attribute" qitem.(r) in
    let v = Option.value ~default:"" (Val_tbl.find_opt vmap qiter.(r)) in
    Xmldb.Doc_store.Builder.attribute b name v
  done;
  let _, roots = Xmldb.Doc_store.Builder.finish b in
  Table.of_rows [| "iter"; "item" |]
    (List.init n (fun r -> [| qiter.(r); Value.Node roots.(r) |]))

let eval_textlike store t ~kind =
  let iterc = Table.col t "iter" and itemc = Table.col t "item" in
  let b = Xmldb.Doc_store.Builder.create store in
  let n = Table.nrows t in
  for r = 0 to n - 1 do
    let s = Value.to_string (atomize store itemc.(r)) in
    match kind with
    | `Text -> Xmldb.Doc_store.Builder.force_text b s
    | `Comment -> Xmldb.Doc_store.Builder.comment b s
  done;
  let _, roots = Xmldb.Doc_store.Builder.finish b in
  Table.of_rows [| "iter"; "item" |]
    (List.init n (fun r -> [| iterc.(r); Value.Node roots.(r) |]))

let eval_pinode store t =
  let iterc = Table.col t "iter" in
  let tc = Table.col t "target" and vc = Table.col t "value" in
  let b = Xmldb.Doc_store.Builder.create store in
  let n = Table.nrows t in
  for r = 0 to n - 1 do
    Xmldb.Doc_store.Builder.pi b
      (Value.to_string (atomize store tc.(r)))
      (Value.to_string (atomize store vc.(r)))
  done;
  let _, roots = Xmldb.Doc_store.Builder.finish b in
  Table.of_rows [| "iter"; "item" |]
    (List.init n (fun r -> [| iterc.(r); Value.Node roots.(r) |]))

let eval_range t lo hi =
  let iterc = Table.col t "iter" in
  let loc = Table.col t lo and hic = Table.col t hi in
  let rows = Vec.create [||] in
  for r = 0 to Table.nrows t - 1 do
    let l = Value.range_bound loc.(r) and h = Value.range_bound hic.(r) in
    let pos = ref 0 in
    for v = l to h do
      incr pos;
      Vec.push rows [| iterc.(r); Value.Int !pos; Value.Int v |]
    done
  done;
  Table.of_rows [| "iter"; "pos"; "item" |]
    (Vec.fold_left (fun acc r -> r :: acc) [] rows |> List.rev)

(* fs:item-sequence-to-node-sequence: per iteration in pos order, runs of
   atomic items become single text nodes (space-separated). *)
let eval_textify store t =
  let iterc = Table.col t "iter" in
  let posc = Table.col t "pos" and itemc = Table.col t "item" in
  let order = Array.init (Table.nrows t) (fun i -> i) in
  Array.sort
    (fun a b ->
       match Value.compare_total iterc.(a) iterc.(b) with
       | 0 -> Value.compare_total posc.(a) posc.(b)
       | c -> c)
    order;
  let b = Xmldb.Doc_store.Builder.create store in
  (* first pass: emit text nodes for atomic runs, remember placements *)
  let rows = Vec.create (Value.Int 0, Value.Int 0, `Node_row 0) in
  let run : (Value.t * Value.t * string list) option ref = ref None in
  let text_count = ref 0 in
  let flush () =
    match !run with
    | None -> ()
    | Some (iter, pos, parts) ->
      Xmldb.Doc_store.Builder.force_text b (String.concat " " (List.rev parts));
      Vec.push rows (iter, pos, `Text_row !text_count);
      incr text_count;
      run := None
  in
  Array.iter
    (fun r ->
       match itemc.(r) with
       | Value.Node _ ->
         flush ();
         Vec.push rows (iterc.(r), posc.(r), `Node_row r)
       | atom ->
         let s = Value.to_string atom in
         (match !run with
          | Some (iter, pos, parts) when Value.equal iter iterc.(r) ->
            run := Some (iter, pos, s :: parts)
          | _ ->
            flush ();
            run := Some (iterc.(r), posc.(r), [ s ])))
    order;
  flush ();
  let _, roots = Xmldb.Doc_store.Builder.finish b in
  Table.of_rows [| "iter"; "pos"; "item" |]
    (List.map
       (fun (iter, pos, what) ->
          let item =
            match what with
            | `Node_row r -> itemc.(r)
            | `Text_row k -> Value.Node roots.(k)
          in
          [| iter; pos; item |])
       (Vec.fold_left (fun acc x -> x :: acc) [] rows |> List.rev))

let eval_id_lookup idx store values context =
  let viter = Table.col values "iter" and vitem = Table.col values "item" in
  let citer = Table.col context "iter" and citem = Table.col context "item" in
  (* group idref strings per iteration *)
  let vals : string list Int_tbl.t = Int_tbl.create 16 in
  for r = 0 to Table.nrows values - 1 do
    let k = Value.int_value viter.(r) in
    let s = Value.to_string (atomize store vitem.(r)) in
    Int_tbl.replace vals k
      (s :: Option.value ~default:[] (Int_tbl.find_opt vals k))
  done;
  let rows = Vec.create [||] in
  for r = 0 to Table.nrows context - 1 do
    let iter = citer.(r) in
    let ctx = node_of citem.(r) in
    let vs =
      Option.value ~default:[] (Int_tbl.find_opt vals (Value.int_value iter))
    in
    Array.iter
      (fun n -> Vec.push rows [| iter; Value.Node n |])
      (Xmldb.Id_index.lookup idx ~ctx vs)
  done;
  Table.of_rows [| "iter"; "item" |]
    (Vec.fold_left (fun acc r -> r :: acc) [] rows |> List.rev)

(* ------------------------------------------------------- the entry point *)

(* Evaluate one operator over its already-evaluated children, passed
   positionally in [Plan.children] order. *)
let eval_op env op (inputs : Table.t list) : Table.t =
  let one () =
    match inputs with
    | [ t ] -> t
    | _ -> Err.internal "kernel arity: one input expected"
  in
  let two () =
    match inputs with
    | [ a; b ] -> (a, b)
    | _ -> Err.internal "kernel arity: two inputs expected"
  in
  match op with
  | Lit { schema; rows } -> Table.of_rows schema rows
  | Project { cols; _ } -> eval_project (one ()) cols
  | Select { col; _ } -> eval_select (one ()) col
  | Join { lcol; rcol; _ } ->
    let l, r = two () in
    eval_join l r lcol rcol
  | Thetajoin { lcol; cmp; rcol; _ } ->
    let l, r = two () in
    eval_thetajoin l r lcol cmp rcol
  | Semijoin { on; _ } ->
    let l, r = two () in
    eval_semi ~anti:false l r on
  | Antijoin { on; _ } ->
    let l, r = two () in
    eval_semi ~anti:true l r on
  | Cross _ ->
    let l, r = two () in
    eval_cross l r
  | Union _ ->
    let l, r = two () in
    Table.union l r
  | Distinct _ -> eval_distinct (one ())
  | Rownum { res; order; part; _ } -> eval_rownum (one ()) res order part
  | Rowid { res; _ } -> eval_rowid (one ()) res
  | Attach { res; value; _ } -> eval_attach (one ()) res value
  | Fun1 { res; f; arg; _ } -> eval_fun1 env.store (one ()) res f arg
  | Fun2 { res; f; arg1; arg2; _ } ->
    eval_fun2 env.store (one ()) res f arg1 arg2
  | Fun3 { res; f; arg1; arg2; arg3; _ } ->
    eval_fun3 env.store (one ()) res f arg1 arg2 arg3
  | Aggr { res; agg; arg; part; order; _ } ->
    eval_aggr env.store (one ()) res agg arg part order
  | Step { axis; test; _ } -> step_boxed env (one ()) axis test
  | Doc _ -> eval_doc env.store (one ())
  | Elem _ ->
    let q, c = two () in
    eval_elem env.store q c
  | Attr _ ->
    let q, v = two () in
    eval_attr env.store q v
  | Textnode _ -> eval_textlike env.store (one ()) ~kind:`Text
  | Commentnode _ -> eval_textlike env.store (one ()) ~kind:`Comment
  | Pinode _ -> eval_pinode env.store (one ())
  | Range { lo; hi; _ } -> eval_range (one ()) lo hi
  | Textify _ -> eval_textify env.store (one ())
  | Id_lookup _ ->
    let vs, ctx = two () in
    eval_id_lookup (id_index env) env.store vs ctx

(* In-memory columnar tables — our stand-in for MonetDB's BATs. A table is
   a named list of equal-length value columns; the row set carries no
   inherent order semantics (the runtime is "inherently unordered", paper
   Section 1) — any order information lives in explicit columns such as
   pos and iter, exactly as in Pathfinder's compilation scheme. *)

open Basis

type t = {
  schema : string array;            (* column names, in display order *)
  cols : Value.t array array;       (* cols.(c).(row) *)
  nrows : int;
  mutable index : (string, int) Hashtbl.t option;
      (* name -> position, built lazily on the first by-name access and
         reused for the table's lifetime (schemas are immutable) *)
}

let schema t = t.schema
let nrows t = t.nrows
let ncols t = Array.length t.schema

let create schema cols nrows =
  if Array.length schema <> Array.length cols then
    Err.internal "Table.create: schema/columns mismatch";
  Array.iter
    (fun c ->
       if Array.length c <> nrows then
         Err.internal "Table.create: ragged columns")
    cols;
  { schema; cols; nrows; index = None }

let empty schema =
  { schema; cols = Array.map (fun _ -> [||]) schema; nrows = 0; index = None }

let index t =
  match t.index with
  | Some h -> h
  | None ->
    let h = Hashtbl.create (2 * Array.length t.schema) in
    (* first occurrence wins, like the linear scan this replaces *)
    Array.iteri
      (fun i name -> if not (Hashtbl.mem h name) then Hashtbl.add h name i)
      t.schema;
    t.index <- Some h;
    h

let col_index t name =
  match Hashtbl.find_opt (index t) name with
  | Some i -> i
  | None ->
    Err.internal "Table: no column %S in schema [%s]" name
      (String.concat "," (Array.to_list t.schema))

let col t name = t.cols.(col_index t name)

(* The raw column storage, in schema order — the zero-copy bridge into the
   physical layer's batches. Callers must not mutate. *)
let columns t = t.cols

let get t name row = (col t name).(row)

(* Build a table from a list of rows (each row ordered like [schema]). *)
let of_rows schema rows =
  let nrows = List.length rows in
  let ncols = Array.length schema in
  let cols = Array.init ncols (fun _ -> Array.make nrows (Value.Int 0)) in
  List.iteri
    (fun r row ->
       if Array.length row <> ncols then
         Err.internal "Table.of_rows: row arity mismatch";
       Array.iteri (fun c v -> cols.(c).(r) <- v) row)
    rows;
  { schema; cols; nrows; index = None }

let row t r = Array.map (fun c -> c.(r)) t.cols

(* Select a subset of rows by index. *)
let gather t (idx : int array) =
  { schema = t.schema;
    cols = Array.map (fun c -> Array.map (fun r -> c.(r)) idx) t.cols;
    nrows = Array.length idx;
    index = t.index }

(* Reorder columns / rename / duplicate: [(new_name, src_name)] list. *)
let project t cols =
  let schema = Array.of_list (List.map fst cols) in
  let srcs = Array.of_list (List.map (fun (_, s) -> col t s) cols) in
  { schema; cols = srcs; nrows = t.nrows; index = None }

let append_col t name c =
  if Array.length c <> t.nrows then Err.internal "Table.append_col: length";
  { schema = Array.append t.schema [| name |];
    cols = Array.append t.cols [| c |];
    nrows = t.nrows;
    index = None }

(* Align [other]'s columns to [t]'s schema (by name) and append the rows. *)
let union t other =
  if Array.length t.schema <> Array.length other.schema then
    Err.internal "Table.union: schema arity mismatch";
  let ocols = Array.map (fun name -> col other name) t.schema in
  { schema = t.schema;
    cols = Array.mapi (fun i c -> Array.append c ocols.(i)) t.cols;
    nrows = t.nrows + other.nrows;
    index = t.index }

let to_string ?(max_rows = 20) t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat " | " (Array.to_list t.schema));
  Buffer.add_char buf '\n';
  let n = min t.nrows max_rows in
  for r = 0 to n - 1 do
    let cells =
      Array.to_list
        (Array.map
           (fun c -> Format.asprintf "%a" Value.pp c.(r))
           t.cols)
    in
    Buffer.add_string buf (String.concat " | " cells);
    Buffer.add_char buf '\n'
  done;
  if t.nrows > n then
    Buffer.add_string buf (Printf.sprintf "... (%d rows)\n" t.nrows);
  Buffer.contents buf

(* Estimated memory footprint: the Budget byte-accounting currency. *)
let estimated_bytes t =
  let total = ref 64 in
  Array.iter
    (fun c ->
       total := !total + 16;
       Array.iter (fun v -> total := !total + Value.estimated_bytes v) c)
    t.cols;
  !total

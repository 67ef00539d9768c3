(* The claims checker: every property the plan-property analysis
   ([Algebra.Props]) states about a node, checked against the table the
   reference executor produced for that node.

   For each node of an evaluated plan:
     - the claimed schema equals the table's;
     - each const column holds its value on every row (compare_total);
     - each key column has pairwise distinct values;
     - a one-row node has at most one row;
     - each order fact holds from each row to the next;
     - each static column type matches every value of its column;
     - the input of each % splits into no more sorted runs than the
       merge hint lowering would give it ([Props.sorted_runs]).

   The optimizer acts on exactly these claims (const criteria dropping,
   keyed δ elision, sort elision, the root-sort skip, merges), so a
   violation is a wrong plan waiting for the query that exposes it.

   [violations ctx root] reads each node's table from [ctx]'s cache: call
   it after [Algebra.Eval.eval ctx root] returned, which (in Dag mode)
   has evaluated and cached every node, so the check charges no budget. *)

module P = Algebra.Props
module Plan = Algebra.Plan
module Table = Algebra.Table
module Value = Algebra.Value

(* Lexicographic row comparison under a requirement. *)
let cmp_rows t req i j =
  let rec go = function
    | [] -> 0
    | (c, d) :: rest ->
      let col = Table.col t c in
      let k = Value.compare_total col.(i) col.(j) in
      let k = match d with Plan.Asc -> k | Plan.Desc -> -k in
      if k <> 0 then k else go rest
  in
  go req

(* The number of maximal runs sorted by [req]. *)
let runs t req =
  let n = Table.nrows t in
  let k = ref (min n 1) in
  for i = 0 to n - 2 do
    if cmp_rows t req i (i + 1) > 0 then incr k
  done;
  !k

let node_violations a ctx (n : Plan.node) =
  let t = Algebra.Eval.eval ctx n in
  let p = P.props a n in
  let nrows = Table.nrows t in
  let schema = P.SSet.of_list (Array.to_list (Table.schema t)) in
  let col c = Table.col t c in
  let violation what =
    Printf.sprintf "node %d %s: %s" n.Plan.id (Algebra.Plan_pp.describe n)
      what
  in
  let claim ok fmt =
    Printf.ksprintf (fun what -> if ok then None else Some (violation what)) fmt
  in
  let names s = String.concat "," (P.SSet.elements s) in
  if not (P.SSet.equal schema p.P.schema) then
    [ violation
        (Printf.sprintf "schema {%s}, table has {%s}" (names p.P.schema)
           (names schema)) ]
  else
    List.filter_map Fun.id
      ((claim (not p.P.one_row || nrows <= 1) "one row, table has %d" nrows
        :: List.map
          (fun (c, v) ->
             claim
               (Array.for_all (fun x -> Value.compare_total x v = 0) (col c))
               "const %s = %s" c (Value.to_string v))
          (P.SMap.bindings p.P.consts))
       @ List.map
         (fun c ->
            let vs = Array.copy (col c) in
            Array.sort Value.compare_total vs;
            let dup = ref false in
            for i = 0 to Array.length vs - 2 do
              if Value.compare_total vs.(i) vs.(i + 1) = 0 then dup := true
            done;
            claim (not !dup) "key %s" c)
         (P.SSet.elements p.P.keys)
       @ List.map
         (fun f -> claim (runs t f <= 1) "order %s" (P.req_to_string f))
         (Lazy.force p.P.facts)
       @ List.map
         (fun (c, ty) ->
            claim
              (Array.for_all (fun v -> Algebra.Column.ty_of_value v = ty) (col c))
              "type %s : %s" c (Algebra.Column.ty_name ty))
         (P.SMap.bindings (Lazy.force p.P.ctypes))
       @
       match n.Plan.op with
       | Plan.Rownum { input; order; part; _ } -> (
         let req =
           (match part with Some c -> [ (c, Plan.Asc) ] | None -> []) @ order
         in
         match P.sorted_runs a input req with
         | Some k ->
           let r = runs (Algebra.Eval.eval ctx input) req in
           [ claim (r <= k) "merge hint %d runs of %s, input has %d" k
               (P.req_to_string req) r ]
         | None -> [])
       | _ -> [])

let violations ctx root =
  let a = P.make () in
  List.concat_map (node_violations a ctx) (Plan.topo_order root)

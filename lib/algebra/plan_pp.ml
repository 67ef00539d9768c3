(* Rendering of plan DAGs: a human-readable ASCII tree (with sharing
   references, since Pathfinder emits DAGs, not trees) and Graphviz dot.
   Used by the CLI's --plan flag and by the Figure 6/9/10 benchmarks. *)

open Plan

let dir_str = function Asc -> "" | Desc -> "/desc"

let prim1_name = function
  | P_not -> "not" | P_neg -> "neg" | P_atomize -> "data" | P_string -> "string"
  | P_number -> "number" | P_position -> "position" | P_cast_dbl -> "dbl"
  | P_cast_str -> "str" | P_cast_bool -> "bool" | P_string_length -> "strlen"
  | P_name -> "name" | P_local_name -> "local-name" | P_round -> "round"
  | P_floor -> "floor" | P_ceiling -> "ceiling" | P_abs -> "abs"
  | P_is_node -> "is-node" | P_normalize_space -> "normalize-space"
  | P_check_zero_one -> "check01" | P_check_exactly_one -> "check1"
  | P_check_one_or_more -> "check1+" | P_upper -> "upper-case"
  | P_lower -> "lower-case" | P_serialize -> "serialize"
  | P_cast_as _ -> "cast" | P_castable _ -> "castable"
  | P_instance_item _ -> "instance" | P_check_treat -> "treat"
  | P_error -> "error" | P_node_check -> "node-check"
  | P_check_node -> "check-node" | P_check_singleton -> "check-singleton"

let prim2_name = function
  | P_add -> "+" | P_sub -> "-" | P_mul -> "*" | P_div -> "div"
  | P_idiv -> "idiv" | P_mod -> "mod"
  | P_eq -> "=" | P_ne -> "!=" | P_lt -> "<" | P_le -> "<=" | P_gt -> ">"
  | P_ge -> ">=" | P_and -> "and" | P_or -> "or" | P_is -> "is"
  | P_before -> "<<" | P_after -> ">>" | P_concat -> "||"
  | P_contains -> "contains" | P_starts_with -> "starts-with"
  | P_ends_with -> "ends-with" | P_substr_before -> "substring-before"
  | P_substr_after -> "substring-after"

let ntest_str = function
  | N_name q -> Xmldb.Qname.to_string q
  | N_wild -> "*"
  | N_kind k -> Xmldb.Node_kind.to_string k ^ "()"
  | N_any -> "node()"
  | N_pi t -> Printf.sprintf "processing-instruction(%S)" t

let describe n =
  match n.op with
  | Lit { schema; rows } ->
    Printf.sprintf "table(%s)[%d]"
      (String.concat "," (Array.to_list schema))
      (List.length rows)
  | Project { cols; _ } ->
    Printf.sprintf "π_{%s}"
      (String.concat ","
         (List.map
            (fun (n', s) -> if n' = s then n' else n' ^ ":" ^ s)
            cols))
  | Select { col; _ } -> Printf.sprintf "σ_%s" col
  | Join { lcol; rcol; _ } -> Printf.sprintf "⋈_{%s=%s}" lcol rcol
  | Thetajoin { lcol; cmp; rcol; _ } ->
    Printf.sprintf "⋈_{%s%s%s}" lcol (prim2_name cmp) rcol
  | Semijoin { on; _ } ->
    Printf.sprintf "⋉_{%s}"
      (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) on))
  | Antijoin { on; _ } ->
    Printf.sprintf "▷_{%s}"
      (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) on))
  | Cross _ -> "×"
  | Union _ -> "∪"
  | Distinct _ -> "δ"
  | Rownum { res; order; part; _ } ->
    Printf.sprintf "%%_{%s:⟨%s⟩%s}" res
      (String.concat "," (List.map (fun (c, d) -> c ^ dir_str d) order))
      (match part with None -> "" | Some p -> "‖" ^ p)
  | Rowid { res; _ } -> Printf.sprintf "#_%s" res
  | Attach { res; value; _ } ->
    Printf.sprintf "@_{%s:%s}" res (Format.asprintf "%a" Value.pp value)
  | Fun1 { res; f; arg; _ } ->
    Printf.sprintf "fun_{%s:%s(%s)}" res (prim1_name f) arg
  | Fun2 { res; f; arg1; arg2; _ } ->
    Printf.sprintf "fun_{%s:(%s%s%s)}" res arg1 (prim2_name f) arg2
  | Fun3 { res; f; arg1; arg2; arg3; _ } ->
    Printf.sprintf "fun_{%s:%s(%s,%s,%s)}" res
      (match f with P3_substring -> "substring" | P3_translate -> "translate")
      arg1 arg2 arg3
  | Aggr { res; agg; arg; part; _ } ->
    let agg_name =
      match agg with
      | A_the -> "the"
      | A_count -> "count" | A_sum -> "sum" | A_max -> "max" | A_min -> "min"
      | A_avg -> "avg" | A_ebv -> "ebv"
      | A_str_join sep -> Printf.sprintf "string-join[%S]" sep
    in
    Printf.sprintf "%s_%s%s%s" agg_name res
      (match arg with None -> "" | Some a -> "(" ^ a ^ ")")
      (match part with None -> "" | Some p -> "‖" ^ p)
  | Step { axis; test; _ } ->
    Printf.sprintf "⊘_{%s::%s}" (Xmldb.Axis.to_string axis) (ntest_str test)
  | Doc _ -> "doc"
  | Elem _ -> "elem"
  | Attr _ -> "attr"
  | Textnode _ -> "text"
  | Commentnode _ -> "comment"
  | Pinode _ -> "pi"
  | Range { lo; hi; _ } -> Printf.sprintf "range(%s,%s)" lo hi
  | Textify _ -> "textify"
  | Id_lookup _ -> "fn:id"

(* ASCII tree with sharing references: a node already printed appears as
   "^id" instead of being expanded again. [annot] can append a per-node
   note (e.g. inferred properties) after the operator description. *)
let to_tree ?(annot = fun (_ : node) -> (None : string option)) root =
  let buf = Buffer.create 512 in
  let printed = Hashtbl.create 64 in
  let rec go indent n =
    if Hashtbl.mem printed n.id then
      Buffer.add_string buf (Printf.sprintf "%s^%d\n" indent n.id)
    else begin
      Hashtbl.add printed n.id ();
      let note = match annot n with None -> "" | Some s -> "  " ^ s in
      Buffer.add_string buf
        (Printf.sprintf "%s[%d] %s%s%s\n" indent n.id (describe n) note
           (if n.label = "" then "" else "  {" ^ n.label ^ "}"));
      List.iter (go (indent ^ "  ")) (children n.op)
    end
  in
  go "" root;
  Buffer.contents buf

let to_dot root =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph plan {\n  node [shape=box,fontname=\"monospace\"];\n";
  let nodes = topo_order root in
  List.iter
    (fun n ->
       Buffer.add_string buf
         (Printf.sprintf "  n%d [label=\"%s\"];\n" n.id
            (String.concat ""
               (List.map
                  (fun c -> if c = '"' then "\\\"" else String.make 1 c)
                  (List.init (String.length (describe n)) (String.get (describe n)))))))
    nodes;
  List.iter
    (fun n ->
       List.iter
         (fun c -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" n.id c.id))
         (children n.op))
    nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* One-line summary used by the plan-size experiments. *)
let summary root =
  let total = count_ops root in
  let rn = count_kind root "%" in
  let ri = count_kind root "#" in
  Printf.sprintf "%d operators (%d rownum %%, %d rowid #)" total rn ri

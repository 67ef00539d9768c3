(* Tests for the physical executor: one kernel per plan node, shared
   nodes evaluated once, and the typed kernels, checked differentially
   against [Eval], the boxed logical executor the tests keep as the
   reference over the same plan.

   The physical executor promises *exact* parity with the reference —
   including row order (rownum's stability tie-break makes row order
   observable) — so tables are compared row-for-row, not as multisets,
   on hand-built plans and on the optimized plans of the whole query
   corpus. *)

open Algebra

let v_int i = Value.Int i
let v_str s = Value.Str s
let v_dbl f = Value.Dbl f
let v_bool b = Value.Bool b

let store () = Xmldb.Doc_store.create ()

let table_strings t =
  List.init (Table.nrows t) (fun r ->
      String.concat "|"
        (Array.to_list
           (Array.map (Format.asprintf "%a" Value.pp) (Table.row t r))))

(* The MD5 of a store's snapshot: its pools in id order and every
   fragment's packed bytes. *)
let store_digest st =
  Digest.to_hex (Digest.string (Xmldb.Doc_store.Snapshot.to_string st))

(* Run a plan through both executors against fresh stores (from [mk])
   and demand identical schemas, identical rows in identical order, and
   identical stores afterwards: two executors that built different
   fragments under the same node ids must not pass. [jobs] > 1 runs the
   physical executor over morsels of 4 rows. *)
let check_parity ?(mk = store) ?step_impl ?(jobs = 1) msg plan =
  let st_boxed = mk () and st_physical = mk () in
  let boxed = Eval.run ?step_impl st_boxed plan in
  let physical = Physical.run ?step_impl ~jobs ~morsel:4 st_physical plan in
  Alcotest.(check (list string))
    (msg ^ ": schema")
    (Array.to_list (Table.schema boxed))
    (Array.to_list (Table.schema physical));
  Alcotest.(check (list string))
    (msg ^ ": rows")
    (table_strings boxed) (table_strings physical);
  Alcotest.(check string) (msg ^ ": store") (store_digest st_boxed)
    (store_digest st_physical)

(* Both executors must fail identically: same exception constructor and
   same message. *)
let run_outcome run =
  match run () with
  | (_ : Table.t) -> "ok"
  | exception Basis.Err.Dynamic_error m -> "dynamic: " ^ m
  | exception Basis.Err.Internal_error m -> "internal: " ^ m

let check_error_parity ?(mk = store) ?(jobs = 1) msg plan =
  Alcotest.(check string) msg
    (run_outcome (fun () -> Eval.run (mk ()) plan))
    (run_outcome (fun () -> Physical.run ~jobs ~morsel:4 (mk ()) plan))

(* ------------------------------------------------- one kernel per node *)

let test_one_kernel_per_node () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; v_int 4 |]; [| v_int 2; v_int 7 |]; [| v_int 3; v_int 1 |] ]
  in
  (* attach · fun2 · select: every logical node gets its own kernel *)
  let p =
    Plan.select b
      (Plan.fun2 b
         (Plan.attach b base "five" (v_int 5))
         "keep" Plan.P_lt "item" "five")
      "keep"
  in
  check_parity "attach · fun2 · select" p;
  (* the profile counts one kernel (and one covered op) per node, with
     the rows every kernel read and produced *)
  let prof = Profile.create () in
  ignore (Physical.run ~profile:prof (store ()) p);
  let ph = Profile.phys prof in
  Alcotest.(check (pair int int)) "profiled kernels, covered ops" (4, 4)
    (ph.Profile.kernels, ph.Profile.fused_ops);
  let line = "physical: 4 kernels, 9 rows in, 11 rows out" in
  Alcotest.(check bool) ("profile prints: " ^ line) true
    (Astring.String.is_infix ~affix:line (Profile.to_string prof))

let test_sharing_preserved () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "item" |] [ [| v_int 1 |]; [| v_int 2 |] ] in
  (* [shared] feeds two parents: both must reach the same kernel *)
  let shared = Plan.attach b base "k" (v_int 1) in
  let left = Plan.fun2 b shared "s" Plan.P_add "item" "k" in
  let p = Plan.union b (Plan.project b left [ ("item", "s") ])
      (Plan.project b shared [ ("item", "item") ]) in
  (* the shared node runs once: one kernel per distinct node (6), not
     per node of the plan unfolded as a tree (8) *)
  let prof = Profile.create () in
  ignore (Physical.run ~profile:prof (store ()) p);
  Alcotest.(check (pair int int)) "kernels run, tree nodes" (6, 8)
    ((Profile.phys prof).Profile.kernels, Plan.count_tree_nodes p);
  check_parity "sharing preserved" p

(* -------------------------------------------------------- empty tables *)

let test_empty_tables () =
  let b = Plan.builder () in
  let empty = Plan.lit b [| "iter"; "item" |] [] in
  check_parity "select over empty"
    (Plan.select b (Plan.fun2 b empty "c" Plan.P_lt "item" "iter") "c");
  check_parity "distinct over empty" (Plan.distinct b empty);
  check_parity "rownum over empty"
    (Plan.rownum b empty "pos" [ ("item", Plan.Asc) ] None);
  check_parity "rowid over empty" (Plan.rowid b empty "id");
  check_parity "join over empty"
    (Plan.join b empty
       (Plan.project b empty [ ("iter2", "iter"); ("item2", "item") ])
       "item" "item2");
  check_parity "union of empties"
    (Plan.union b empty (Plan.project b empty [ ("iter", "iter"); ("item", "item") ]));
  (* A_count with no grouping emits one row even on empty input *)
  check_parity "count over empty" (Plan.aggr b empty "n" Plan.A_count None None None);
  check_parity "grouped sum over empty"
    (Plan.aggr b empty "s" Plan.A_sum (Some "item") (Some "iter") None)

(* --------------------------------------------------- all-Mixed columns *)

let test_all_mixed_columns () =
  let b = Plan.builder () in
  (* one column mixing every atomic kind: no typed representation fits,
     every kernel must take its Mixed/boxed path *)
  let mixed = Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; v_int 3 |];
        [| v_int 2; v_str "s" |];
        [| v_int 3; v_dbl 2.5 |];
        [| v_int 4; v_bool true |];
        [| v_int 5; v_str "s" |];
        [| v_int 6; v_int 3 |] ]
  in
  check_parity "distinct over mixed"
    (Plan.distinct b (Plan.project b mixed [ ("item", "item") ]));
  check_parity "rownum orders mixed by the total order"
    (Plan.rownum b mixed "pos" [ ("item", Plan.Asc) ] None);
  check_parity "join on mixed keys"
    (Plan.join b mixed
       (Plan.project b mixed [ ("iter2", "iter"); ("item2", "item") ])
       "item" "item2");
  check_parity "semijoin on mixed keys"
    (Plan.semijoin b mixed
       (Plan.project b mixed [ ("k", "item") ]) [ ("item", "k") ]);
  check_parity "grouped count partitioned on mixed"
    (Plan.aggr b mixed "n" Plan.A_count None (Some "item") None)

(* ---------------------------------------------------- select-of-select *)

let test_select_of_select () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      (List.init 20 (fun i -> [| v_int (i mod 4); v_int i |]))
  in
  let sel1 =
    Plan.select b (Plan.fun2 b base "a" Plan.P_gt "item" "iter") "a"
  in
  let sel2 =
    Plan.select b
      (Plan.attach b
         (Plan.fun2 b sel1 "bnd" Plan.P_lt "item" "iter") "t" (v_bool true))
      "bnd"
  in
  check_parity "select of select" sel2;
  (* a selection stacked directly on a selection (no recompute between) *)
  check_parity "directly stacked selects"
    (Plan.select b (Plan.select b
         (Plan.fun2 b
            (Plan.fun2 b base "p" Plan.P_ge "item" "iter")
            "q" Plan.P_lt "iter" "item")
         "p") "q")

(* ---------------------------------------- distinct over a selection *)

let test_distinct_over_selection () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      (List.init 30 (fun i -> [| v_int (i mod 3); v_int (i mod 5) |]))
  in
  let selected =
    Plan.select b (Plan.fun2 b base "c" Plan.P_ge "item" "iter") "c"
  in
  check_parity "distinct over a selection"
    (Plan.distinct b (Plan.project b selected [ ("item", "item") ]));
  check_parity "rowid over a selection" (Plan.rowid b selected "id");
  check_parity "rownum over a selection"
    (Plan.rownum b selected "pos" [ ("item", Plan.Desc) ] (Some "iter"));
  check_parity "aggr over a selection"
    (Plan.aggr b selected "s" Plan.A_sum (Some "item") (Some "iter") None)

(* A select over an attached (constant) column: true keeps every row,
   false none, and any other constant raises on the first row — unless
   there is none. *)
let test_constant_selections () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "item" |]
      (List.init 6 (fun i -> [| v_int (i mod 2); v_int i |]))
  in
  let on v input = Plan.select b (Plan.attach b input "c" v) "c" in
  check_parity "select on constant true" (on (v_bool true) base);
  check_parity "rowid over a constant-true select"
    (Plan.rowid b (on (v_bool true) base) "id");
  check_parity "select on constant false" (on (v_bool false) base);
  check_parity "rownum over a constant-false select"
    (Plan.rownum b (on (v_bool false) base) "pos" [ ("item", Plan.Asc) ] None);
  check_error_parity "select on a constant int" (on (v_int 1) base);
  check_parity "select on a constant int, no rows"
    (on (v_int 1) (on (v_bool false) base))

(* ------------------------------------------------- typed-path parity *)

let test_float_comparison_parity () =
  let b = Plan.builder () in
  (* NaN and the two zeros: the boxed comparator is Float.compare behind
     a NaN guard, which separates -0.0 from 0.0 — the typed kernels must
     reproduce that, not IEEE equality *)
  let base = Plan.lit b [| "x"; "y" |]
      [ [| v_dbl 0.0; v_dbl (-0.0) |];
        [| v_dbl (-0.0); v_dbl 0.0 |];
        [| v_dbl Float.nan; v_dbl 1.0 |];
        [| v_dbl 1.0; v_dbl Float.nan |];
        [| v_dbl 2.5; v_dbl 2.5 |] ]
  in
  List.iter
    (fun (name, f) ->
       check_parity name (Plan.fun2 b base "r" f "x" "y"))
    [ ("float eq", Plan.P_eq); ("float ne", Plan.P_ne);
      ("float lt", Plan.P_lt); ("float le", Plan.P_le);
      ("float gt", Plan.P_gt); ("float ge", Plan.P_ge) ];
  check_parity "rownum sorts -0.0 before 0.0"
    (Plan.rownum b base "pos" [ ("x", Plan.Asc) ] None)

let test_int_arithmetic_parity () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "x"; "y" |]
      [ [| v_int 7; v_int 2 |]; [| v_int (-7); v_int 2 |];
        [| v_int 7; v_int (-2) |]; [| v_int 0; v_int 5 |] ]
  in
  List.iter
    (fun (name, f) -> check_parity name (Plan.fun2 b base "r" f "x" "y"))
    [ ("int add", Plan.P_add); ("int sub", Plan.P_sub);
      ("int mul", Plan.P_mul); ("int idiv", Plan.P_idiv);
      ("int mod", Plan.P_mod); ("int div", Plan.P_div) ]

let test_theta_coercion_parity () =
  let b = Plan.builder () in
  (* untyped strings vs numerics: the coercion shape Q11/Q12 hit, where
     the typed path pre-coerces each row to its double key once *)
  let strs =
    Plan.lit b [| "i"; "inc" |]
      [ [| v_int 1; v_str "4000.50" |]; [| v_int 2; v_str "120" |];
        [| v_int 3; v_str "99000" |]; [| v_int 4; v_str "NaN" |] ]
  in
  let nums =
    Plan.lit b [| "j"; "price" |]
      [ [| v_int 10; v_dbl 150.0 |]; [| v_int 11; v_int 4000 |];
        [| v_int 12; v_dbl Float.nan |]; [| v_int 13; v_dbl 120.0 |] ]
  in
  List.iter
    (fun (name, f) ->
       check_parity name (Plan.thetajoin b strs nums "inc" f "price");
       check_parity (name ^ " flipped")
         (Plan.thetajoin b nums strs "price" f "inc"))
    [ ("theta gt", Plan.P_gt); ("theta lt", Plan.P_lt);
      ("theta ge", Plan.P_ge); ("theta le", Plan.P_le) ];
  (* an uncoercible string raises the same error from the same pair
     position as the boxed nested loop *)
  let bad =
    Plan.lit b [| "i"; "k" |]
      [ [| v_int 1; v_str "12" |]; [| v_int 2; v_str "pear" |] ]
  in
  check_error_parity "uncoercible string in theta"
    (Plan.thetajoin b bad nums "k" Plan.P_lt "price");
  (* empty sides never touch the other side's values *)
  let empty_nums = Plan.lit b [| "j"; "price" |] [] in
  check_parity "theta with empty right"
    (Plan.thetajoin b bad empty_nums "k" Plan.P_lt "price")

(* The inequality theta-join matrix ([Theta_cases]): each case's rows,
   in order, or its error, equal the reference executor's, and the
   profile counts the path the case names. *)
let test_theta_matrix () =
  List.iter
    (fun (name, path, plan) ->
       let profile = Profile.create () in
       Alcotest.(check string) name
         (Theta_cases.outcome (fun () -> Eval.run (Theta_cases.store ()) plan))
         (Theta_cases.outcome (fun () ->
              Physical.run ~profile (Theta_cases.store ()) plan));
       let ph = Profile.phys profile in
       match path with
       | None -> ()
       | Some path ->
         Alcotest.(check (list int)) (name ^ ": " ^ path)
           (List.map (fun p -> if p = path then 1 else 0) [ "sorted"; "boxed" ])
           [ ph.Profile.theta_sorted; ph.Profile.theta_boxed ])
    (Theta_cases.cases ())

(* Ints just above 2^53, where doubles lose the last bit, compare
   exactly: against OCaml's own int comparison, on both executors. *)
let test_theta_exact_ints () =
  let big = 1 lsl 53 in
  let b = Plan.builder () in
  let side key vs = Plan.lit b [| key |] (List.map (fun v -> [| v_int v |]) vs) in
  List.iter
    (fun (name, f, test, l, r) ->
       let want =
         List.concat_map
           (fun x ->
              List.filter_map
                (fun y ->
                   if test x y then Some (Printf.sprintf "%d|%d" x y) else None)
                r)
           l
       in
       let plan = Plan.thetajoin b (side "a" l) (side "b" r) "a" f "b" in
       Alcotest.(check (list string)) (name ^ ": reference") want
         (table_strings (Eval.run (store ()) plan));
       Alcotest.(check (list string)) (name ^ ": physical") want
         (table_strings (Physical.run (store ()) plan)))
    [ (">", Plan.P_gt, ( > ), [ big + 1; 1 ], [ big; 0 ]);
      (">=", Plan.P_ge, ( >= ), [ big; 1 ], [ big + 1; 0 ]);
      ("<", Plan.P_lt, ( < ), [ big; 1 ], [ big + 1; 0 ]);
      ("<=", Plan.P_le, ( <= ), [ big + 1; 1 ], [ big; 0 ]) ]

(* Integer results beyond 63 bits raise one overflow error on the typed
   int arms and on the boxed kernels alike. *)
let test_int_overflow_parity () =
  let b = Plan.builder () in
  let base = Plan.lit b [| "iter"; "x"; "y" |]
      [ [| v_int 1; v_int 1; v_int 2 |];
        [| v_int 1; v_int max_int; v_int 1 |];
        [| v_int 2; v_int min_int; v_int (-1) |];
        [| v_int 3; v_int min_int; v_int 1 |] ]
  in
  let overflows name plan =
    List.iter
      (fun (exe, run) ->
         Alcotest.(check string) (Printf.sprintf "%s [%s]" name exe)
           "dynamic: integer overflow"
           (run_outcome (fun () -> run (store ()) plan)))
      [ ("reference", fun st p -> Eval.run st p);
        ("physical", fun st p -> Physical.run st p) ]
  in
  List.iter
    (fun (name, f) -> overflows name (Plan.fun2 b base "r" f "x" "y"))
    [ ("add", Plan.P_add); ("sub", Plan.P_sub); ("mul", Plan.P_mul);
      ("idiv", Plan.P_idiv); ("div", Plan.P_div) ];
  List.iter
    (fun (name, f) -> overflows name (Plan.fun1 b base "r" f "x"))
    [ ("neg", Plan.P_neg); ("abs", Plan.P_abs) ];
  overflows "grouped sum"
    (Plan.aggr b base "s" Plan.A_sum (Some "x") (Some "iter") None)

let test_error_parity () =
  let b = Plan.builder () in
  let bad = Plan.lit b [| "x"; "y" |] [ [| v_int 1; v_int 0 |] ] in
  check_error_parity "idiv by zero" (Plan.fun2 b bad "r" Plan.P_idiv "x" "y");
  check_error_parity "mod by zero" (Plan.fun2 b bad "r" Plan.P_mod "x" "y");
  check_error_parity "selection on non-boolean"
    (Plan.select b (Plan.lit b [| "c" |] [ [| v_int 3 |] ]) "c");
  (* dead rows: a selection upstream removes the erroneous row before the
     arithmetic sees it — both sides must succeed *)
  let guarded =
    let base = Plan.lit b [| "x"; "y" |]
        [ [| v_int 10; v_int 2 |]; [| v_int 1; v_int 0 |] ]
    in
    let keep = Plan.fun2 b base "k" Plan.P_ne "y" "y" in
    Plan.select b keep "k"
  in
  check_parity "selection removes all rows" guarded

(* --------------------------------------------------- key-shape parity *)

(* The equality kernels read their keys as machine ints and choose how
   to enumerate pairs from the keys' shape: identical strictly ascending
   keys (aligned, zero-copy), two ascending sides (merge), anything else
   (flat index over the right keys). Every shape, on every key
   representation, must give the reference executor's rows in its
   order: serially and at jobs 4 over forced-tiny morsels. *)

(* A thousand unsorted keys, for a one-row left side that hits (12) or
   misses (4): the index is built over the large right side, as the
   reference executor builds it. *)
let thousand = List.init 1000 (fun i -> 10 + (i * 7 mod 13))

(* (name, expected path on int keys, left keys, right keys) *)
let key_shapes =
  [ ("aligned", "aligned", [ 1; 2; 3; 5; 8 ], [ 1; 2; 3; 5; 8 ]);
    ("identical with duplicates", "merged", [ 1; 1; 2 ], [ 1; 1; 2 ]);
    ("ascending, different keys", "merged", [ 1; 2; 3 ], [ 1; 2; 4 ]);
    ("left duplicates", "merged", [ 1; 1; 2; 4; 4; 4 ], [ 1; 2; 3; 4 ]);
    ("right duplicates", "merged", [ 0; 2; 5 ], [ 0; 0; 2; 2; 2; 6 ]);
    ("duplicates on both sides", "merged", [ 1; 1; 3; 3 ], [ 1; 3; 3; 3 ]);
    ("unsorted", "hashed", [ 3; 1; 2; 3; 9 ], [ 2; 3; 3; 1; 7 ]);
    ("unsorted right", "hashed", [ 1; 2; 3 ], [ 3; 1; 2; 1 ]);
    ("extremes aligned", "aligned", [ min_int; -5; 0; max_int ],
     [ min_int; -5; 0; max_int ]);
    ("extremes merged", "merged", [ min_int; min_int; -1; max_int ],
     [ min_int; -1; -1; max_int; max_int ]);
    ("extremes unsorted", "hashed", [ max_int; -5; min_int; -5; 0 ],
     [ -5; max_int; min_int; 7 ]);
    ("one row vs 1000, hit", "hashed", [ 12 ], thousand);
    ("one row vs 1000, miss", "hashed", [ 4 ], thousand);
    (* an empty literal column has no type: the boxed matcher runs *)
    ("empty left", "boxed", [], [ 2; 1 ]);
    ("empty right", "boxed", [ 2; 1 ], []);
    ("both empty", "boxed", [], []) ]

let key_text k = Printf.sprintf "k%d" k

(* One document holding an attribute per distinct key value: string()
   of these attribute nodes is a text-id column (the `Code kind). *)
let doc_keys =
  List.sort_uniq compare
    (List.concat_map (fun (_, _, l, r) -> l @ r) key_shapes)

let keys_store () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"keys.xml"
       ("<r>"
        ^ String.concat ""
            (List.map (fun k -> "<e v=\"" ^ key_text k ^ "\"/>") doc_keys)
        ^ "</r>"));
  st

(* The [v] attribute holding key [k]: pre 0 is the document, 1 is <r>,
   and every <e> is followed by its attribute. *)
let key_attr =
  let st = keys_store () in
  let frag =
    Xmldb.Node_id.frag
      (Option.get (Xmldb.Doc_store.find_document st "keys.xml"))
  in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i k -> Hashtbl.replace pos k i) doc_keys;
  fun k ->
    Value.Node
      (Xmldb.Node_id.make ~frag ~pre:(3 + (2 * Hashtbl.find pos k)))

(* One matching side: key column [key] in the representation [kind],
   and a payload column [pay] numbering the rows from [base], so the
   pair order is visible in the output. *)
let key_side b kind ~key ~pay ~base keys =
  let rows v = List.mapi (fun i k -> [| v k; v_int (base + i) |]) keys in
  match kind with
  | `Int -> Plan.lit b [| key; pay |] (rows v_int)
  | `Str -> Plan.lit b [| key; pay |] (rows (fun k -> v_str (key_text k)))
  | `Code ->
    let nodes = Plan.lit b [| key ^ "_node"; pay |] (rows key_attr) in
    Plan.fun1 b nodes key Plan.P_string (key ^ "_node")

let kinds = [ ("int", `Int, `Int); ("string", `Str, `Str);
              ("code", `Code, `Code); ("code x string", `Code, `Str);
              ("string x code", `Str, `Code) ]

let table_rows t = Array.to_list (Table.schema t) @ table_strings t

(* Reference vs physical at jobs 1 and 4 (morsel 4). Returns the
   profile of the serial run. *)
let check_keyed msg plan =
  let reference = table_rows (Eval.run (keys_store ()) plan) in
  let serial = Profile.create () in
  List.iter
    (fun jobs ->
       let profile = if jobs = 1 then Some serial else None in
       Alcotest.(check (list string))
         (Printf.sprintf "%s (jobs=%d)" msg jobs)
         reference
         (table_rows
            (Physical.run ?profile ~jobs ~morsel:4 (keys_store ()) plan)))
    [ 1; 4 ];
  Profile.phys serial

let test_join_key_shapes () =
  List.iter
    (fun (kname, lkind, rkind) ->
       List.iter
         (fun (shape, path, lkeys, rkeys) ->
            let b = Plan.builder () in
            let l = key_side b lkind ~key:"a" ~pay:"x" ~base:0 lkeys in
            let r = key_side b rkind ~key:"b" ~pay:"y" ~base:100 rkeys in
            let msg = Printf.sprintf "%s keys, %s" kname shape in
            let ph = check_keyed (msg ^ ": join") (Plan.join b l r "a" "b") in
            if lkind = `Int then
              Alcotest.(check (list int)) (msg ^ ": " ^ path)
                (List.map (fun p -> if p = path then 1 else 0)
                   [ "aligned"; "merged"; "hashed" ])
                [ ph.Profile.joins_aligned; ph.Profile.joins_merged;
                  ph.Profile.joins_hashed ];
            if (lkind = `Code || rkind = `Code) && lkeys <> [] && rkeys <> []
            then
              Alcotest.(check int) (msg ^ ": matched on codes") 1
                ph.Profile.code_preds;
            ignore
              (check_keyed (msg ^ ": eq theta join")
                 (Plan.thetajoin b l r "a" Plan.P_eq "b")))
         key_shapes)
    kinds

let test_semijoin_key_shapes () =
  List.iter
    (fun (kname, lkind, rkind) ->
       List.iter
         (fun (shape, _, lkeys, rkeys) ->
            let b = Plan.builder () in
            let l = key_side b lkind ~key:"a" ~pay:"x" ~base:0 lkeys in
            let r = key_side b rkind ~key:"b" ~pay:"y" ~base:100 rkeys in
            let msg = Printf.sprintf "%s keys, %s" kname shape in
            ignore
              (check_keyed (msg ^ ": semijoin")
                 (Plan.semijoin b l r [ ("a", "b") ]));
            ignore
              (check_keyed (msg ^ ": antijoin")
                 (Plan.antijoin b l r [ ("a", "b") ])))
         key_shapes)
    kinds

(* The [=]/[!=] predicate reads its keys through the matchers' reader.
   One literal pairs every left key with every right key in a row, so
   both key columns sit in one batch and text-id columns reach the
   predicate as ids; the selection keeps the equal (unequal) pairs. *)
let test_predicate_key_shapes () =
  let value kind k =
    match kind with
    | `Int -> v_int k
    | `Str -> v_str (key_text k)
    | `Code -> key_attr k
  in
  (* a code key is string() of the literal's attribute-node column *)
  let raw kind key = if kind = `Code then key ^ "_node" else key in
  List.iter
    (fun (kname, lkind, rkind) ->
       List.iter
         (fun (shape, _, lkeys, rkeys) ->
            let b = Plan.builder () in
            let pairs =
              List.concat_map (fun l -> List.map (fun r -> (l, r)) rkeys) lkeys
            in
            let base =
              Plan.lit b [| raw lkind "a"; raw rkind "b"; "x" |]
                (List.mapi
                   (fun i (l, r) -> [| value lkind l; value rkind r; v_int i |])
                   pairs)
            in
            let keyed kind key p =
              if kind = `Code then
                Plan.fun1 b p key Plan.P_string (raw kind key)
              else p
            in
            let keyed = keyed rkind "b" (keyed lkind "a" base) in
            List.iter
              (fun (pname, f) ->
                 let msg = Printf.sprintf "%s keys, %s: %s" kname shape pname in
                 let ph =
                   check_keyed msg
                     (Plan.select b (Plan.fun2 b keyed "t" f "a" "b") "t")
                 in
                 if (lkind = `Code || rkind = `Code) && pairs <> [] then
                   Alcotest.(check int) (msg ^ ": compared on codes") 1
                     ph.Profile.code_preds)
              [ ("=", Plan.P_eq); ("!=", Plan.P_ne) ])
         key_shapes)
    kinds

(* Store text against a string constant: every exact-equality kernel
   keys the pair on the store's text pool, the constant looked up once
   (one code predicate per kernel). A constant the store never holds
   ("k404") keys as -1 and matches nothing. *)
let test_const_string_keys () =
  let keys = [ 3; 1; 3; 2; 1 ] in
  List.iter
    (fun (cname, c) ->
       List.iter
         (fun const_left ->
            let b = Plan.builder () in
            let ids key pay base = key_side b `Code ~key ~pay ~base keys in
            let const key pay base =
              Plan.attach b
                (Plan.project b (ids "_k" pay base) [ (pay, pay) ])
                key (v_str c)
            in
            let l = (if const_left then const else ids) "a" "x" 0 in
            let r = (if const_left then ids else const) "b" "y" 100 in
            let msg =
              Printf.sprintf "%s, constant %s" cname
                (if const_left then "left" else "right")
            in
            let on_ids what plan =
              let ph = check_keyed (msg ^ ": " ^ what) plan in
              Alcotest.(check int) (msg ^ ": " ^ what ^ " keyed on ids") 1
                ph.Profile.code_preds;
              ph
            in
            let ph = on_ids "join" (Plan.join b l r "a" "b") in
            Alcotest.(check int) (msg ^ ": typed join") 1
              (ph.Profile.joins_aligned + ph.Profile.joins_merged
               + ph.Profile.joins_hashed);
            List.iter
              (fun (what, plan) -> ignore (on_ids what plan))
              [ ("eq theta join", Plan.thetajoin b l r "a" Plan.P_eq "b");
                ("semijoin", Plan.semijoin b l r [ ("a", "b") ]);
                ("antijoin", Plan.antijoin b l r [ ("a", "b") ]) ];
            (* both keys in one batch: the constant beside the ids *)
            let pairs =
              if const_left then Plan.attach b r "a" (v_str c)
              else Plan.attach b l "b" (v_str c)
            in
            List.iter
              (fun (pname, f) ->
                 ignore
                   (on_ids pname
                      (Plan.select b (Plan.fun2 b pairs "t" f "a" "b") "t")))
              [ ("=", Plan.P_eq); ("!=", Plan.P_ne) ])
         [ false; true ])
    [ ("hit", key_text 3); ("miss", "k404") ]

(* String equality across fragments runs on store text ids: an attribute
   of one document against an attribute of another, and against one of
   a constructed element. Each compares ids (one code predicate) and
   decodes no string, with the reference executor's rows, serially and
   at jobs 4 over forced-tiny morsels. *)
let cross_docs () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"t.xml"
       {|<a><b k="1" s="x"/><b k="2" s="y"/></a>|});
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"u.xml"
       {|<r><q v="y"/><q v="x"/><q v="z"/></r>|});
  st

let test_cross_fragment_strings () =
  List.iter
    (fun (q, want) ->
       Alcotest.(check string) (q ^ ": answer") want
         (Engine.run (cross_docs ()) q).Engine.serialized;
       let plan = (Engine.analyze q).Engine.aoptimized in
       let reference = table_rows (Eval.run (cross_docs ()) plan) in
       List.iter
         (fun jobs ->
            let msg = Printf.sprintf "%s (jobs=%d)" q jobs in
            let profile = Profile.create () in
            Alcotest.(check (list string)) msg reference
              (table_rows
                 (Physical.run ~profile ~jobs ~morsel:4 (cross_docs ()) plan));
            let ph = Profile.phys profile in
            Alcotest.(check (pair int int))
              (msg ^ ": code predicates, late materializations") (1, 0)
              (ph.Profile.code_preds, ph.Profile.late_materializations))
         [ 1; 4 ])
    [ ({|count(doc("t.xml")//b[@s = doc("u.xml")//q/@v])|}, "2");
      ({|let $e := <e a="x"/> return count(doc("t.xml")//@s[. = $e/@a])|},
       "1") ]

(* Atomizing nodes of two documents: attribute rows of both give one
   text-id column, which the final boxing decodes (one late
   materialization); an element among them takes the boxed path. Either
   way the rows are the reference executor's. *)
let test_atomize_across_fragments () =
  let st = cross_docs () in
  let node uri pre =
    let root = Option.get (Xmldb.Doc_store.find_document st uri) in
    Value.Node (Xmldb.Node_id.make ~frag:(Xmldb.Node_id.frag root) ~pre)
  in
  (* pre 4 and 7 of t.xml are the @s attributes, 3, 5 and 7 of u.xml the
     @v attributes, pre 1 of t.xml is <a> *)
  let attrs = [ node "u.xml" 5; node "t.xml" 4; node "u.xml" 3;
                node "t.xml" 7; node "u.xml" 7; node "t.xml" 4 ] in
  List.iter
    (fun (msg, items, ids) ->
       let b = Plan.builder () in
       let input =
         Plan.lit b [| "iter"; "n" |]
           (List.mapi (fun i n -> [| v_int (i + 1); n |]) items)
       in
       let atomized = Plan.fun1 b input "item" Plan.P_atomize "n" in
       check_parity ~mk:cross_docs msg atomized;
       check_parity ~mk:cross_docs (msg ^ ", distinct")
         (Plan.distinct b (Plan.project b atomized [ ("item", "item") ]));
       let profile = Profile.create () in
       ignore (Physical.run ~profile (cross_docs ()) atomized);
       Alcotest.(check int) (msg ^ ": late materializations") ids
         (Profile.phys profile).Profile.late_materializations)
    [ ("attributes of two documents", attrs, 1);
      ("and an element", attrs @ [ node "t.xml" 1 ], 0) ]

(* [the] over a non-decreasing group column: groups are runs, and when
   each is one row the input columns pass through (text ids stay ids, so
   an equality above compares ids); a longer run raises the boxed
   kernel's error, and unsorted groups take the boxed kernel. *)
let test_the_over_runs () =
  let b = Plan.builder () in
  let the_of ?(select = false) groups =
    let nodes =
      Plan.lit b [| "n"; "iter"; "keep" |]
        (List.mapi
           (fun i g -> [| key_attr (1 + (i mod 3)); v_int g; v_bool (i <> 1) |])
           groups)
    in
    let input = if select then Plan.select b nodes "keep" else nodes in
    let coded = Plan.fun1 b input "item" Plan.P_string "n" in
    Plan.aggr b coded "res" Plan.A_the (Some "item") (Some "iter") None
  in
  let singletons = the_of [ 1; 2; 3; 5; 8 ] in
  let ph = check_keyed "the: singleton runs" singletons in
  Alcotest.(check int) "the: singleton runs decode once" 1
    ph.Profile.late_materializations;
  let eq =
    Plan.fun2 b (Plan.attach b singletons "c" (v_str (key_text 2))) "t"
      Plan.P_eq "res" "c"
  in
  let ph = check_keyed "the: equality above" (Plan.select b eq "t") in
  Alcotest.(check int) "the: equality above compares codes" 1
    ph.Profile.code_preds;
  List.iter
    (fun (msg, groups, select) -> ignore (check_keyed msg (the_of ~select groups)))
    [ ("the: unsorted singletons", [ 3; 1; 2 ], false);
      ("the: empty", [], false);
      ("the: a run of two, dropped by a selection", [ 1; 2; 2; 3 ], true) ];
  List.iter
    (fun (msg, groups) ->
       check_error_parity ~mk:keys_store msg (the_of groups))
    [ ("the: a run of two", [ 1; 2; 2; 3 ]);
      ("the: a run of three", [ 1; 1; 1 ]);
      ("the: the first long run", [ 1; 2; 2; 3; 3; 3 ]);
      ("the: a group split across runs", [ 1; 2; 2; 0; 2 ]) ]

(* An [eq ""] join behind a [the] over attribute values: the key column
   stays text ids through the aggregate and the join compares ids. *)
let test_code_join_behind_the () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"d.xml"
       {|<a x="" y="1"><b z=""/><c w="q"/></a>|});
  let r =
    Engine.run ~with_profile:true st
      {|count(for $a in doc("d.xml")//@* where data($a) eq "" return $a)|}
  in
  Alcotest.(check (list string)) "answer" [ "2" ]
    (List.map Value.to_string r.Engine.items);
  let ph = Profile.phys (Option.get r.Engine.profile) in
  Alcotest.(check bool) "compared on codes" true (ph.Profile.code_preds >= 1);
  Alcotest.(check int) "no late materialization" 0
    ph.Profile.late_materializations

(* An aligned join hands its inputs' columns through unchanged (a [#]
   numbering stays a [Seq]); the input's other consumers, and the
   join's own consumers, must not see each other's work. *)
let test_aligned_shared_input () =
  List.iter
    (fun (kname, kind, _) ->
       let b = Plan.builder () in
       let base =
         Plan.rowid b
           (key_side b kind ~key:"a" ~pay:"x" ~base:0 [ 1; 2; 3; 5; 8 ])
           "id"
       in
       let right = Plan.project b base [ ("b", "a"); ("y", "x") ] in
       let joined = Plan.join b base right "a" "b" in
       let numbered = Plan.fun2 b joined "s" Plan.P_add "x" "y" in
       let other = Plan.fun2 b base "s" Plan.P_mul "x" "id" in
       let out p = Plan.project b p [ ("k", "a"); ("s", "s"); ("n", "id") ] in
       let plan = Plan.union b (out numbered) (out other) in
       let ph =
         check_keyed (kname ^ " keys: aligned join with a shared input") plan
       in
       (* boxed strings match through [Kernels.join_indices], which
          counts no path *)
       if kind <> `Str then
         Alcotest.(check int) (kname ^ ": the join is aligned") 1
           ph.Profile.joins_aligned)
    [ ("int", `Int, `Int); ("string", `Str, `Str); ("code", `Code, `Code) ]

let test_distinct_key_columns () =
  let b = Plan.builder () in
  let keys = [ 3; 1; 3; 2; 1; 3; -5; min_int; -5 ] in
  let base =
    Plan.lit b [| "i"; "n"; "s"; "u" |]
      (List.mapi
         (fun r k ->
            [| v_int k; key_attr k; v_str (key_text k); v_int (r mod 2) |])
         keys)
  in
  let base = Plan.fun1 b base "c" Plan.P_string "n" in
  let base = Plan.attach b base "k" (v_str "const") in
  let rowid = Plan.rowid b base "seq" in
  let distinct cols =
    check_keyed
      ("distinct over " ^ String.concat "," cols)
      (Plan.distinct b (Plan.project b rowid (List.map (fun c -> (c, c)) cols)))
  in
  List.iter
    (fun cols -> ignore (distinct cols))
    [ [ "i" ]; [ "n" ]; [ "s" ]; [ "k" ]; [ "seq" ]; [ "i"; "u" ];
      [ "k"; "u" ]; [ "n"; "s"; "u" ]; [ "c"; "u"; "k" ];
      [ "i"; "n"; "s"; "c"; "k"; "u" ] ];
  (* text-id keys compare as ids: only the final result decodes its
     strings *)
  Alcotest.(check int) "distinct over codes decodes once" 1
    (distinct [ "c" ]).Profile.late_materializations;
  (* over a selection: the keys are read through it *)
  let selected =
    Plan.select b (Plan.fun2 b rowid "p" Plan.P_gt "seq" "u") "p"
  in
  check_keyed "distinct over a selection"
    (Plan.distinct b (Plan.project b selected [ ("c", "c"); ("u", "u") ]))
  |> ignore

(* The profile says which path each typed equi-join took. *)
let test_join_paths () =
  let b = Plan.builder () in
  let side key pay keys =
    Plan.lit b [| key; pay |]
      (List.mapi (fun i k -> [| v_int k; v_int i |]) keys)
  in
  let join l r = Plan.join b l r "a" "b" in
  let aligned = join (side "a" "x" [ 1; 2; 3 ]) (side "b" "y" [ 1; 2; 3 ]) in
  let merged = join (side "a" "x" [ 1; 1; 2 ]) (side "b" "y" [ 1; 2; 2 ]) in
  let hashed = join (side "a" "x" [ 2; 1; 2 ]) (side "b" "y" [ 1; 2 ]) in
  let profile = Profile.create () in
  List.iter
    (fun p -> ignore (Physical.run ~profile (store ()) p))
    [ aligned; merged; hashed ];
  let line = "physical: equi-joins 1 aligned, 1 merged, 1 hashed" in
  Alcotest.(check bool) ("profile prints: " ^ line) true
    (Astring.String.is_infix ~affix:line (Profile.to_string profile))

(* ------------------------------------------------------ run-time order *)

(* A surviving [%] observes its input: at most 64 sorted runs merge,
   more sort. No plan property is consulted, so a column computed at run
   time ([d := c + c]) merges although nothing proves its order. Each
   case equals the reference executor row for row at jobs 1 and 4. *)
let test_rownum_runs () =
  let b = Plan.builder () in
  (* [runs] ascending runs of [len] rows each, the runs descending *)
  let c_runs ~runs ~len =
    Plan.lit b [| "c"; "x" |]
      (List.init (runs * len) (fun i ->
           [| v_int (((runs - (i / len)) * 100) + (i mod len)); v_int i |]))
  in
  let rank input =
    Plan.rownum b
      (Plan.fun2 b input "d" Plan.P_add "c" "c")
      "pos" [ ("d", Plan.Asc) ] None
  in
  let merges msg plan =
    (check_keyed msg plan).Profile.sorts_to_merges
  in
  Alcotest.(check int) "ascending computed column: merged" 1
    (merges "ascending d" (rank (c_runs ~runs:1 ~len:100)));
  Alcotest.(check int) "64 runs: merged" 1
    (merges "64 runs" (rank (c_runs ~runs:64 ~len:2)));
  Alcotest.(check int) "65 descending runs: sorted" 0
    (merges "65 runs" (rank (c_runs ~runs:65 ~len:2)));
  let asc lo =
    Plan.lit b [| "c"; "x" |]
      (List.init 50 (fun i -> [| v_int (lo + (2 * i)); v_int (lo + i) |]))
  in
  Alcotest.(check int) "union of two ascending sides: merged" 1
    (merges "union" (rank (Plan.union b (asc 0) (asc 1))))

(* ---------------------------------------------------------------- steps *)

(* The step kernel evaluates every iteration in one loop-lifted call
   and builds a typed batch; its rows must be the reference executor's
   per-iteration results, in the same order. Two documents, so that
   contexts span fragments; every fresh store assigns the same node ids. *)
let two_docs () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"a.xml"
       "<a><b><c/><d/></b><c k=\"1\"/></a>");
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"z.xml" "<z><c/><y><c/></y></z>");
  st

let doc_node =
  let st = two_docs () in
  fun uri pre ->
    let root = Option.get (Xmldb.Doc_store.find_document st uri) in
    Value.Node (Xmldb.Node_id.make ~frag:(Xmldb.Node_id.frag root) ~pre)

let step_cases =
  let c = Plan.N_name (Xmldb.Qname.make "c") in
  Xmldb.Axis.
    [ (Child, Plan.N_any); (Child, c); (Descendant, c);
      (Descendant_or_self, Plan.N_any); (Attribute, Plan.N_any);
      (Attribute, Plan.N_name (Xmldb.Qname.make "k"));
      (Parent, Plan.N_any); (Ancestor_or_self, Plan.N_wild);
      (Following, c); (Preceding, Plan.N_any);
      (Following_sibling, Plan.N_any); (Preceding_sibling, c) ]

let check_step_parity msg rows =
  let b = Plan.builder () in
  let input = Plan.lit b [| "iter"; "item" |] rows in
  List.iter
    (fun (axis, test) ->
       let p = Plan.step b input axis test in
       List.iter
         (fun (iname, step_impl) ->
            check_parity ~mk:two_docs ~step_impl
              (Printf.sprintf "%s, %s::%s, %s" msg (Xmldb.Axis.to_string axis)
                 (Plan_pp.ntest_str test) iname)
              p)
         [ ("scan", Eval.Scan); ("tag index", Eval.Tag_index) ])
    step_cases

let test_step_parity () =
  let a = doc_node "a.xml" and z = doc_node "z.xml" in
  (* ascending runs, several iterations: the typed loop-lifted path *)
  check_step_parity "ascending runs"
    [ [| v_int 1; a 1 |]; [| v_int 1; z 1 |]; [| v_int 3; a 2 |];
      [| v_int 3; a 5 |]; [| v_int 4; z 3 |] ];
  (* one iteration over both documents, unsorted, with a duplicate and an
     attribute context *)
  check_step_parity "one iteration, two documents"
    [ [| v_int 1; z 3 |]; [| v_int 1; a 1 |]; [| v_int 1; a 6 |];
      [| v_int 1; z 1 |]; [| v_int 1; a 1 |]; [| v_int 1; a 2 |] ];
  (* iters 2, 1, 2: not one run per iteration, so the boxed kernel's
     first-seen grouping decides the row order *)
  check_step_parity "non-monotone iters"
    [ [| v_int 2; a 1 |]; [| v_int 1; z 1 |]; [| v_int 2; a 2 |] ]

(* One-row runs that step the same context again, in no document order
   and across both documents, alone and around a multi-row run: every
   axis and both step realizations must give the reference executor's
   rows. *)
let test_step_repeated_contexts () =
  let a = doc_node "a.xml" and z = doc_node "z.xml" in
  let one_row =
    List.mapi
      (fun i n -> [| v_int (i + 1); n |])
      [ a 1; z 1; a 1; a 2; z 1; a 1 ]
  in
  let mixed =
    [ [| v_int 1; a 1 |]; [| v_int 2; z 1 |]; [| v_int 3; a 5 |];
      [| v_int 3; a 1 |]; [| v_int 3; z 1 |]; [| v_int 4; a 1 |];
      [| v_int 6; z 1 |] ]
  in
  check_step_parity "repeated contexts" one_row;
  check_step_parity "repeated contexts and a multi-row run" mixed

let test_step_errors () =
  let b = Plan.builder () in
  let mixed =
    Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; doc_node "a.xml" 1 |]; [| v_int 1; v_int 7 |] ]
  in
  let p = Plan.step b mixed Xmldb.Axis.Child Plan.N_any in
  check_error_parity ~mk:two_docs "node and integer items" p;
  Alcotest.(check string) "the reference executor's message"
    "dynamic: expected a node, got xs:integer"
    (run_outcome (fun () -> Physical.run (two_docs ()) p))

(* The physical plan dump names the step's axis and node test. *)
let test_step_plan_dump () =
  let b = Plan.builder () in
  let input = Plan.lit b [| "iter"; "item" |] [] in
  let plan =
    Plan.step b input Xmldb.Axis.Child (Plan.N_name (Xmldb.Qname.make "seller"))
  in
  let dump = Lower.to_string plan in
  Alcotest.(check bool) ("dump has the step kernel: " ^ dump) true
    (Astring.String.is_infix ~affix:"] step [child::seller]" dump)

(* ------------------------------------------------------- construction *)

(* Node construction, run by both executors at jobs 1 and at jobs 4:
   rows, errors and the stores built must agree. The documents give
   every node kind: in c.xml, 0 document, 1 a, 2 b, 3 "x", 4 c, 5 @k,
   6 @m, 7 "y", 8 comment, 9 PI, 10 "z"; in d.xml, 0 document, 1 d,
   2 "w", 3 e, 4 "v". *)
let cons_store () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"c.xml"
       {|<a><b>x</b><c k="1" m="2">y<!--co--><?p d?></c>z</a>|});
  ignore (Xmldb.Xml_parser.load_document st ~uri:"d.xml" "<d>w<e/>v</d>");
  st

let cons_node =
  let st = cons_store () in
  fun uri pre ->
    let root = Option.get (Xmldb.Doc_store.find_document st uri) in
    Value.Node (Xmldb.Node_id.make ~frag:(Xmldb.Node_id.frag root) ~pre)

let check_construction msg plan =
  List.iter
    (fun jobs ->
       check_parity ~mk:cons_store ~jobs
         (Printf.sprintf "%s (jobs=%d)" msg jobs) plan)
    [ 1; 4 ]

let check_construction_error msg plan =
  List.iter
    (fun jobs ->
       check_error_parity ~mk:cons_store ~jobs
         (Printf.sprintf "%s (jobs=%d)" msg jobs) plan)
    [ 1; 4 ]

let qname s = Value.Qname_v (Xmldb.Qname.make s)

let loop b iters =
  Plan.lit b [| "iter" |] (List.map (fun i -> [| v_int i |]) iters)

(* Names as a constant column, and as the boxed [×] of the loop with a
   name constant makes them (one value repeated in a Mixed column). *)
let names_const b iters v = Plan.attach b (loop b iters) "item" v

let names_cross b iters v =
  Plan.cross b (loop b iters) (Plan.lit b [| "item" |] [ [| v |] ])

let content b rows =
  Plan.lit b [| "iter"; "pos"; "item" |]
    (List.map (fun (i, p, v) -> [| v_int i; v_int p; v |]) rows)

(* Rows of value-carrying nodes whose item becomes the store text id of
   the node's value (a [Column.Strs] in the physical executor). *)
let strs b rows =
  Plan.project b
    (Plan.fun1 b (content b rows) "s" Plan.P_string "item")
    [ ("iter", "iter"); ("pos", "pos"); ("item", "s") ]

let pair b rows = Plan.project b rows [ ("iter", "iter"); ("item", "item") ]

let test_elem_construction () =
  let b = Plan.builder () in
  let c = cons_node "c.xml" and d = cons_node "d.xml" in
  let r = qname "r" in
  check_construction "content in iter runs"
    (Plan.elem b (names_cross b [ 1; 2; 3 ] r)
       (content b [ (1, 1, c 2); (1, 2, c 4); (2, 1, c 10); (3, 1, d 1) ]));
  (* a union of per-child batches: iters 1 2 3 1 2 3 1, positions out of
     order within iter 1, and iter 4 without content *)
  let child1 = content b [ (1, 1, c 2); (2, 1, c 4); (3, 1, d 3) ] in
  let child2 =
    content b [ (1, 3, c 10); (2, 2, d 1); (3, 2, c 2); (1, 2, d 3) ]
  in
  check_construction "content as a union of per-child batches"
    (Plan.elem b (names_cross b [ 1; 2; 3; 4 ] r) (Plan.union b child1 child2));
  check_construction "names and content out of iter order"
    (Plan.elem b (names_cross b [ 3; 1; 2 ] r)
       (content b [ (2, 2, c 2); (3, 1, v_int 7); (2, 1, v_str "s") ]));
  check_construction "equal positions in one iteration"
    (Plan.elem b (names_const b [ 1 ] r)
       (content b [ (1, 2, c 2); (1, 1, d 3); (1, 2, c 10); (1, 1, c 4) ]));
  check_construction "no content at all"
    (Plan.elem b (names_const b [ 1; 2 ] r) (content b []))

let test_elem_names () =
  let b = Plan.builder () in
  let c = cons_node "c.xml" in
  let body = content b [ (1, 1, c 2); (2, 1, v_str "t"); (3, 1, c 3) ] in
  check_construction "Const QName" (Plan.elem b (names_const b [ 1; 2; 3 ] (qname "p")) body);
  check_construction "Const string"
    (Plan.elem b (names_const b [ 1; 2; 3 ] (v_str "x:s")) body);
  check_construction "Mixed QName and string names"
    (Plan.elem b
       (Plan.lit b [| "iter"; "item" |]
          [ [| v_int 1; qname "a" |]; [| v_int 2; v_str "b" |];
            [| v_int 3; qname "a" |] ])
       body);
  check_construction_error "a name that is not a QName"
    (Plan.elem b
       (Plan.lit b [| "iter"; "item" |]
          [ [| v_int 1; qname "a" |]; [| v_int 2; v_int 7 |] ])
       body);
  check_construction_error "a constant name that is not a QName"
    (Plan.elem b (names_const b [ 1; 2 ] (v_dbl 1.5)) body);
  check_construction_error "an attribute name that is not a QName"
    (Plan.attr b (names_const b [ 1 ] (v_bool true))
       (Plan.lit b [| "iter"; "item" |] [ [| v_int 1; v_str "v" |] ]))

let test_elem_content_kinds () =
  let b = Plan.builder () in
  let c = cons_node "c.xml" and d = cons_node "d.xml" in
  let names = names_cross b [ 1; 2 ] (qname "r") in
  check_construction "attributes before other content"
    (Plan.elem b names
       (content b [ (1, 1, c 5); (1, 2, c 6); (1, 3, c 2); (2, 1, c 5) ]));
  check_construction_error "an attribute after other content"
    (Plan.elem b names (content b [ (1, 1, c 2); (1, 2, c 5) ]));
  check_construction_error "an attribute after an atom"
    (Plan.elem b names (content b [ (1, 1, v_str "a"); (1, 2, c 6) ]));
  check_construction "adjacent text nodes of two fragments merge"
    (Plan.elem b names
       (content b
          [ (1, 1, c 3); (1, 2, d 2); (1, 3, v_str "s"); (1, 4, v_int 5);
            (1, 5, c 2); (2, 1, v_str ""); (2, 2, v_str "t");
            (2, 3, v_dbl 2.5); (2, 4, c 10) ]));
  let empty_text =
    Plan.attach b
      (Plan.textnode b (Plan.lit b [| "iter"; "item" |] [ [| v_int 1; v_str "" |] ]))
      "pos" (v_int 2)
  in
  check_construction "an empty text node"
    (Plan.elem b names
       (Plan.union b (content b [ (1, 1, v_str "a"); (1, 3, c 3) ]) empty_text));
  check_construction "document, comment and PI content"
    (Plan.elem b names
       (content b [ (1, 1, c 0); (1, 2, c 8); (1, 3, c 9); (2, 1, d 0) ]));
  check_construction "store-text content, merged and not"
    (Plan.elem b names
       (strs b [ (1, 1, c 3); (1, 2, d 2); (2, 1, c 5); (2, 2, c 8) ]));
  let inner =
    Plan.attach b
      (Plan.elem b (names_const b [ 1; 2 ] (qname "s"))
         (content b [ (1, 1, v_str "x"); (2, 1, c 2) ]))
      "pos" (v_int 2)
  in
  check_construction "nested: a constructed element as content"
    (Plan.elem b names
       (Plan.union b (content b [ (1, 1, v_str "y"); (2, 3, c 3) ]) inner))

let test_textify_construction () =
  let b = Plan.builder () in
  let c = cons_node "c.xml" and d = cons_node "d.xml" in
  let with_const_pos rows =
    Plan.attach b
      (Plan.lit b [| "iter"; "item" |]
         (List.map (fun (i, v) -> [| v_int i; v |]) rows))
      "pos" (v_int 1)
  in
  check_construction "nodes, Const pos"
    (Plan.textify b (with_const_pos [ (1, c 2); (2, d 1); (3, c 10) ]));
  check_construction "nodes, Const pos, several per iteration"
    (Plan.textify b (with_const_pos [ (1, c 2); (1, d 1); (2, c 10) ]));
  check_construction "ints, Const pos"
    (Plan.textify b (with_const_pos [ (1, v_int 1); (2, v_int 2); (2, v_int 3) ]));
  check_construction "doubles"
    (Plan.textify b
       (content b [ (1, 1, v_dbl 1.5); (1, 2, v_dbl 2.0); (2, 1, v_dbl (-0.5)) ]));
  check_construction "store text"
    (Plan.textify b
       (strs b [ (1, 1, c 3); (1, 2, c 7); (2, 1, c 10); (3, 2, c 5); (3, 1, d 2) ]));
  check_construction "mixed items out of order"
    (Plan.textify b
       (content b
          [ (1, 1, v_int 1); (1, 3, v_str "s"); (1, 2, c 2); (1, 4, v_dbl 2.5);
            (2, 2, v_str "a"); (2, 1, v_bool true); (3, 1, d 1) ]));
  check_construction "nodes out of iter order"
    (Plan.textify b (content b [ (2, 1, c 2); (1, 1, d 1); (1, 2, c 3) ]))

let test_attr_text_comment () =
  let b = Plan.builder () in
  let c = cons_node "c.xml" and d = cons_node "d.xml" in
  let names = names_const b [ 1; 2; 3 ] (qname "k") in
  check_construction "attribute values: store text, one missing"
    (Plan.attr b names (pair b (strs b [ (2, 1, c 3); (1, 1, c 5) ])));
  check_construction "attribute values: ints, the last of an iteration wins"
    (Plan.attr b (names_cross b [ 1; 2; 3 ] (qname "k"))
       (Plan.lit b [| "iter"; "item" |]
          [ [| v_int 1; v_int 5 |]; [| v_int 2; v_int 6 |];
            [| v_int 2; v_int 7 |]; [| v_int 3; v_int 8 |] ]));
  check_construction "attribute values: nodes"
    (Plan.attr b names
       (Plan.lit b [| "iter"; "item" |]
          [ [| v_int 1; c 4 |]; [| v_int 2; d 0 |]; [| v_int 3; c 6 |] ]));
  check_construction "attribute values: none"
    (Plan.attr b names (Plan.lit b [| "iter"; "item" |] []));
  let items =
    Plan.lit b [| "iter"; "item" |]
      [ [| v_int 1; v_str "" |]; [| v_int 2; c 1 |]; [| v_int 3; v_int 4 |];
        [| v_int 4; c 8 |] ]
  in
  check_construction "text constructor" (Plan.textnode b items);
  check_construction "comment constructor" (Plan.commentnode b items);
  check_construction "text constructor over store text"
    (Plan.textnode b (pair b (strs b [ (1, 1, c 3); (2, 1, d 4) ])));
  check_construction "comment constructor over store text"
    (Plan.commentnode b (pair b (strs b [ (1, 1, c 9); (2, 1, c 7) ])))

(* ------------------------------------------------------ corpus parity *)

(* The optimized plan of every corpus query — queries/*.xq and XMark
   Q1-Q20 at scale 0.002 — run through the reference executor and the
   physical kernels, serially and at jobs 4 over forced-tiny morsels:
   same schema, same rows, same order (or the same error), and the same
   store afterwards, byte for byte as a snapshot. Each run arms an
   unlimited budget, and both executors must also cross the same number
   of operator boundaries and charge the same rows. *)
let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let corpus_store () =
  let st = store () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
       (Lazy.force auction_xml));
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"t.xml"
       "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>");
  st

let test_corpus_parity () =
  let files =
    Sys.readdir queries_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat queries_dir f)))
  in
  List.iter
    (fun (name, q) ->
       let plan = (Engine.analyze q).Engine.aoptimized in
       let outcome run =
         let guard = Basis.Budget.start Basis.Budget.unlimited in
         let st = corpus_store () in
         let rows =
           match run ~guard st with
           | t -> Array.to_list (Table.schema t) @ table_strings t
           | exception e -> [ Printexc.to_string e ]
         in
         Printf.sprintf "budget: %d ops, %d rows" (Basis.Budget.ops guard)
           (Basis.Budget.rows guard)
         :: ("store: " ^ store_digest st)
         :: rows
       in
       let reference = outcome (fun ~guard st -> Eval.run ~guard st plan) in
       List.iter
         (fun jobs ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s (jobs=%d)" name jobs)
              reference
              (outcome (fun ~guard st ->
                   Physical.run ~guard ~jobs ~morsel:4 st plan)))
         [ 1; 4 ])
    (files @ Xmark.Xmark_queries.all)

(* -------------------------------------------------- budget integration *)

let test_budget_through_physical () =
  let b = Plan.builder () in
  let big = Plan.lit b [| "item" |] (List.init 100 (fun i -> [| v_int i |])) in
  let p = Plan.distinct b (Plan.fun2 b big "r" Plan.P_mul "item" "item") in
  let spec = Basis.Budget.limits ~max_rows:50 () in
  let outcome () =
    match Physical.run ~guard:(Basis.Budget.start spec) (store ()) p with
    | (_ : Table.t) -> "ok"
    | exception Basis.Err.Resource_error _ -> "resource"
  in
  Alcotest.(check string) "row budget trips through physical kernels"
    "resource" (outcome ())

let () =
  Alcotest.run "physical"
    [ ("lowering",
       [ Alcotest.test_case "one kernel per node" `Quick
           test_one_kernel_per_node;
         Alcotest.test_case "sharing preserved" `Quick test_sharing_preserved ]);
      ("kernels",
       [ Alcotest.test_case "empty tables" `Quick test_empty_tables;
         Alcotest.test_case "all-Mixed columns" `Quick test_all_mixed_columns;
         Alcotest.test_case "select of select" `Quick test_select_of_select;
         Alcotest.test_case "distinct over selection" `Quick
           test_distinct_over_selection;
         Alcotest.test_case "constant selections" `Quick
           test_constant_selections ]);
      ("typed parity",
       [ Alcotest.test_case "float comparisons" `Quick
           test_float_comparison_parity;
         Alcotest.test_case "int arithmetic" `Quick
           test_int_arithmetic_parity;
         Alcotest.test_case "theta-join coercion" `Quick
           test_theta_coercion_parity;
         Alcotest.test_case "inequality theta joins" `Quick test_theta_matrix;
         Alcotest.test_case "theta joins on ints beyond 2^53" `Quick
           test_theta_exact_ints;
         Alcotest.test_case "int overflow" `Quick test_int_overflow_parity;
         Alcotest.test_case "errors" `Quick test_error_parity ]);
      ("key shapes",
       [ Alcotest.test_case "joins" `Quick test_join_key_shapes;
         Alcotest.test_case "semi/antijoins" `Quick test_semijoin_key_shapes;
         Alcotest.test_case "=/!= predicate" `Quick test_predicate_key_shapes;
         Alcotest.test_case "strings x constant" `Quick test_const_string_keys;
         Alcotest.test_case "strings across fragments" `Quick
           test_cross_fragment_strings;
         Alcotest.test_case "atomize across fragments" `Quick
           test_atomize_across_fragments;
         Alcotest.test_case "the over iter runs" `Quick test_the_over_runs;
         Alcotest.test_case "code join behind the" `Quick
           test_code_join_behind_the;
         Alcotest.test_case "aligned join, shared input" `Quick
           test_aligned_shared_input;
         Alcotest.test_case "distinct key columns" `Quick
           test_distinct_key_columns;
         Alcotest.test_case "join paths" `Quick test_join_paths ]);
      ("run-time order",
       [ Alcotest.test_case "rownum merges observed runs" `Quick
           test_rownum_runs ]);
      ("steps",
       [ Alcotest.test_case "step parity" `Quick test_step_parity;
         Alcotest.test_case "repeated contexts" `Quick
           test_step_repeated_contexts;
         Alcotest.test_case "step errors" `Quick test_step_errors;
         Alcotest.test_case "plan dump" `Quick test_step_plan_dump ]);
      ("construction",
       [ Alcotest.test_case "elem content grouping" `Quick
           test_elem_construction;
         Alcotest.test_case "elem and attr names" `Quick test_elem_names;
         Alcotest.test_case "elem content kinds" `Quick
           test_elem_content_kinds;
         Alcotest.test_case "textify" `Quick test_textify_construction;
         Alcotest.test_case "attr, text, comment" `Quick
           test_attr_text_comment ]);
      ("budgets",
       [ Alcotest.test_case "budget trips" `Quick
           test_budget_through_physical ]);
      ("corpus",
       [ Alcotest.test_case "reference = physical, row for row" `Slow
           test_corpus_parity ]) ]

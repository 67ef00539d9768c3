(* xrquy — the command-line front end.

     xrquy run   [-d uri=file.xml ...] [-q query.xq | -e expr] [options]
     xrquy plan  [-e expr | -q file] [options]     print the algebra plan
     xrquy xmark [--scale f] [--query Qn] [options] run XMark queries
     xrquy gen   [--scale f] [-o out.xml]           generate an XMark doc

   Plan-shaping options, shared by run/plan/xmark:
     --mode ordered|unordered    force the ordering mode
     --no-rules                  disable the Figure-7 rules (baseline)
     --no-cda                    disable column dependency analysis
     --no-rewrite                disable the logical rewriter
     --no-order-props            disable ordering-property reasoning
                                 (the rewriter's sort elision)
     --no-join-isolation         disable join-graph isolation (the
                                 where-past-lets slide and the semijoin/
                                 antijoin synthesis rules)
     --no-joinrec                disable value-join recognition
     --no-hoist                  disable loop-invariant hoisting

   Execution (run/xmark):
     --interpret                 use the reference interpreter
     --tag-index                 tag-indexed steps instead of the scan
     --no-code-eval              disable compressed execution
     --profile                   print the per-bucket execution profile

   Plan output (plan):
     --dot                       print plans as Graphviz dot

   Parallelism (run/xmark):
     --jobs N                    morsel-parallel physical execution on N
                                 domains (default: XRQ_JOBS, else 1)

   Resource governance (run/xmark):
     --timeout S                 wall-clock deadline per query, in seconds
     --max-rows N                cumulative materialized-row budget
     --max-bytes N               cumulative estimated-byte budget
     --max-ops N                 operator-evaluation budget
     --no-fallback               fail instead of degrading to the
                                 interpreter on internal errors

   Plan sharing and the prepared-plan cache (run/xmark):
     --tree-eval                 sharing-oblivious tree evaluation
     --plan-cache N              prepared-plan LRU capacity (default 64)
     --no-plan-cache             disable the prepared-plan cache
     --repeat K                  (xmark) run each query K times
   Cache hit/miss/eviction counters are printed to stderr after the run;
   `plan` prints each plan's DAG-vs-tree node counts (sharing factor).

   Every command exits 0 on success, or with the error taxonomy's code:
   1 dynamic, 2 static (incl. parse errors), 3 resource, 4 internal. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------------------------------------------------- common args *)

let docs_arg =
  let doc = "Load an XML document and register it as URI (uri=path)." in
  Arg.(value & opt_all string [] & info [ "d"; "doc" ] ~docv:"URI=FILE" ~doc)

let query_file_arg =
  let doc = "Read the query from $(docv)." in
  Arg.(value & opt (some string) None & info [ "q"; "query-file" ] ~docv:"FILE" ~doc)

let expr_arg =
  let doc = "The query text itself." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let mode_arg =
  let doc = "Force the ordering mode (overrides the query prolog)." in
  Arg.(value & opt (some (enum [ ("ordered", Xquery.Ast.Ordered);
                                 ("unordered", Xquery.Ast.Unordered) ])) None
       & info [ "mode" ] ~docv:"MODE" ~doc)

let no_rules_arg =
  Arg.(value & flag & info [ "no-rules" ]
         ~doc:"Disable the order-indifference compilation rules \
               (FN:UNORDERED, LOC#, BIND#).")

let no_cda_arg =
  Arg.(value & flag & info [ "no-cda" ]
         ~doc:"Disable column dependency analysis and plan simplification.")

let no_hoist_arg =
  Arg.(value & flag & info [ "no-hoist" ] ~doc:"Disable loop-invariant hoisting.")

let interpret_arg =
  Arg.(value & flag & info [ "interpret" ]
         ~doc:"Evaluate with the reference tree-walking interpreter.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ] ~doc:"Print the execution profile.")

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Print plans in Graphviz dot syntax.")

let no_rewrite_arg =
  Arg.(value & flag & info [ "no-rewrite" ]
         ~doc:"Disable the logical rewriter (selection/function pushdown, \
               join synthesis over cross products, order-insensitive join \
               reassociation).")

let no_order_props_arg =
  Arg.(value & flag & info [ "no-order-props" ]
         ~doc:"Disable ordering-property reasoning: the rewriter elides \
               no sort, so plans keep every sort. Results are identical \
               either way.")

let no_code_eval_arg =
  Arg.(value & flag & info [ "no-code-eval" ]
         ~doc:"Disable compressed execution in the physical backend: no \
               batched staircase scans over bulk-decoded packed columns, \
               no text-id string columns, no integer-compared string \
               equalities. Results are bit-identical either way; this is \
               the materialized reference path benchmarks compare \
               against.")

let no_joinrec_arg =
  Arg.(value & flag & info [ "no-joinrec" ]
         ~doc:"Disable value-join recognition on FLWOR where clauses and path predicates.")

let no_join_isolation_arg =
  Arg.(value & flag & info [ "no-join-isolation" ]
         ~doc:"Disable join-graph isolation: no where-past-lets slide at \
               compile time, no semijoin/antijoin synthesis from the \
               existential count-then-filter scaffolds. Results are \
               identical either way.")

let tag_index_arg =
  Arg.(value & flag & info [ "tag-index" ]
         ~doc:"Evaluate steps with TwigStack-style tag-indexed element \
               streams instead of the staircase scan.")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"S"
           ~doc:"Abort the query after $(docv) seconds (exit code 3).")

let max_rows_arg =
  Arg.(value & opt (some int) None
       & info [ "max-rows" ] ~docv:"N"
           ~doc:"Abort after materializing $(docv) rows across all operators.")

let max_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "max-bytes" ] ~docv:"N"
           ~doc:"Abort after materializing an estimated $(docv) bytes.")

let max_ops_arg =
  Arg.(value & opt (some int) None
       & info [ "max-ops" ] ~docv:"N"
           ~doc:"Abort after $(docv) operator evaluations.")

let no_fallback_arg =
  Arg.(value & flag & info [ "no-fallback" ]
         ~doc:"Disable graceful degradation: report internal errors of the \
               compiled backend instead of retrying on the interpreter.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Execute order-indifferent physical kernels on $(docv) \
                 domains (morsel-driven parallelism). Results, errors and \
                 profile counters are identical to serial execution. \
                 Default: the XRQ_JOBS environment variable, else 1.")

let tree_eval_arg =
  Arg.(value & flag & info [ "tree-eval" ]
         ~doc:"Evaluate plans as trees, re-computing shared subplans at \
               every reference (the sharing-oblivious cost model; results \
               are identical to the default DAG evaluation).")

let plan_cache_arg =
  Arg.(value & opt int 64
       & info [ "plan-cache" ] ~docv:"N"
           ~doc:"Capacity of the prepared-plan LRU cache (default 64): \
                 repeated queries skip parse, compile and optimize.")

let no_plan_cache_arg =
  Arg.(value & flag & info [ "no-plan-cache" ]
         ~doc:"Disable the prepared-plan cache.")

let mk_cache ~plan_cache ~no_plan_cache =
  if no_plan_cache || plan_cache <= 0 then None
  else Some (Engine.create_cache ~capacity:plan_cache ())

let report_cache_stats cache =
  Option.iter
    (fun c ->
       Printf.eprintf "plan cache: %s\n"
         (Engine.Plan_cache.stats_to_string (Engine.cache_stats c)))
    cache

let budget_spec timeout_s max_rows max_bytes max_ops =
  match (timeout_s, max_rows, max_bytes, max_ops) with
  | None, None, None, None -> None
  | _ ->
    Some
      { Basis.Budget.unlimited with
        Basis.Budget.timeout_s; max_rows; max_bytes; max_ops }

(* The plan-shaping part of [Engine.opts] — every flag that changes the
   compiled plan — as one term that run, plan and xmark share. *)
let plan_opts_term =
  let make mode no_rules no_cda no_hoist no_joinrec no_join_isolation
      no_rewrite no_order_props =
    { Engine.default_opts with
      Engine.mode;
      unordered_rules = not no_rules;
      cda = not no_cda;
      hoist = not no_hoist;
      join_rec = not no_joinrec;
      join_isolation = not no_join_isolation;
      rewrite = not no_rewrite;
      order_props = not no_order_props }
  in
  Term.(const make $ mode_arg $ no_rules_arg $ no_cda_arg $ no_hoist_arg
        $ no_joinrec_arg $ no_join_isolation_arg $ no_rewrite_arg
        $ no_order_props_arg)

let jobs_of = function
  | Some j -> max 1 j
  | None -> Engine.default_opts.Engine.jobs

(* ...and the execution part, which run and xmark add on top of it:
   backend, step implementation, evaluation mode, budgets, fallback,
   parallelism and compressed execution. *)
let opts_term =
  let make opts interpret tag_index tree_eval timeout max_rows max_bytes
      max_ops no_fallback jobs no_code_eval =
    { opts with
      Engine.backend =
        (if interpret then Engine.Interpreted else Engine.Compiled);
      step_impl =
        (if tag_index then Algebra.Eval.Tag_index else Algebra.Eval.Scan);
      eval_mode = (if tree_eval then Algebra.Eval.Tree else Algebra.Eval.Dag);
      budget = budget_spec timeout max_rows max_bytes max_ops;
      fallback = not no_fallback;
      jobs = jobs_of jobs;
      code_eval = not no_code_eval }
  in
  Term.(const make $ plan_opts_term $ interpret_arg $ tag_index_arg
        $ tree_eval_arg $ timeout_arg $ max_rows_arg $ max_bytes_arg
        $ max_ops_arg $ no_fallback_arg $ jobs_arg $ no_code_eval_arg)

let load_documents store specs =
  List.iter
    (fun spec ->
       match String.index_opt spec '=' with
       | Some i ->
         let uri = String.sub spec 0 i in
         let path = String.sub spec (i + 1) (String.length spec - i - 1) in
         ignore (Xmldb.Xml_parser.load_file store ~uri path)
       | None ->
         ignore (Xmldb.Xml_parser.load_file store ~uri:(Filename.basename spec) spec))
    specs

let query_text query_file expr =
  match (query_file, expr) with
  | Some f, _ -> read_file f
  | None, Some e -> e
  | None, None -> Basis.Err.static "no query given (positional QUERY or -q FILE)"

(* One readable line per failure, one exit code per error class:
   1 dynamic, 2 static, 3 resource, 4 internal. *)
let handle f =
  match f () with
  | () -> 0
  | exception e ->
    (match Engine.classify_error e with
     | Some { Engine.kind; message } ->
       Printf.eprintf "xrquy: %s error: %s\n" (Basis.Err.kind_label kind)
         message;
       Basis.Err.exit_code kind
     | None ->
       (match e with
        | Sys_error m ->
          (* missing query/document file and friends: the user's input *)
          Printf.eprintf "xrquy: static error: %s\n" m;
          Basis.Err.exit_code Basis.Err.Static
        | Failure m ->
          Printf.eprintf "xrquy: internal error: %s\n" m;
          Basis.Err.exit_code Basis.Err.Internal
        | e -> raise e))

let report_degraded r =
  match r.Engine.degraded with
  | Some reason -> Printf.eprintf "xrquy: degraded: %s\n" reason
  | None -> ()

(* ----------------------------------------------------------------- run *)

let run_cmd =
  let action docs qf expr opts profile plan_cache no_plan_cache =
    handle (fun () ->
        let store = Xmldb.Doc_store.create () in
        load_documents store docs;
        let cache = mk_cache ~plan_cache ~no_plan_cache in
        let r =
          Engine.run ?cache ~opts ~with_profile:profile store
            (query_text qf expr)
        in
        print_endline r.Engine.serialized;
        report_degraded r;
        (match r.Engine.profile with
         | Some p ->
           prerr_newline ();
           prerr_string (Algebra.Profile.to_string p)
         | None -> ());
        report_cache_stats cache;
        Printf.eprintf "-- %d items, %.1f ms\n" (List.length r.Engine.items)
          (r.Engine.wall_seconds *. 1000.0))
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate an XQuery expression")
    Term.(const action $ docs_arg $ query_file_arg $ expr_arg $ opts_term
          $ profile_arg $ plan_cache_arg $ no_plan_cache_arg)

(* ---------------------------------------------------------------- plan *)

(* Per-node property note for the plan dump: constant and key columns,
   plus the guaranteed sort orders unless ordering-property reasoning is
   off — all read from one Algebra.Props analyzer. *)
let props_annot ~order_props a n =
  let module P = Algebra.Props in
  let p = P.props a n in
  let set name s =
    if P.SSet.is_empty s then []
    else [ Printf.sprintf "%s:%s" name (String.concat "," (P.SSet.elements s)) ]
  in
  let consts = P.SSet.of_list (List.map fst (P.SMap.bindings p.P.consts)) in
  let ordering =
    if not order_props then []
    else match P.annotate a n with "" -> [] | s -> [ s ]
  in
  let parts = set "const" consts @ set "key" p.P.keys @ ordering in
  if parts = [] then None
  else Some ("(" ^ String.concat " " parts ^ ")")

let plan_cmd =
  let action qf expr opts dot =
    handle (fun () ->
        let a = Engine.analyze ~opts (query_text qf expr) in
        let raw = a.Engine.araw and optimized = a.Engine.aoptimized in
        let order_props = opts.Engine.order_props in
        let props = Algebra.Props.make () in
        let render p =
          if dot then Algebra.Plan_pp.to_dot p
          else
            Algebra.Plan_pp.to_tree ~annot:(props_annot ~order_props props) p
        in
        let sharing p =
          Printf.sprintf "%d DAG nodes, %d as a tree (sharing factor %.2f)"
            (Algebra.Plan.count_ops p) (Algebra.Plan.count_tree_nodes p)
            (Algebra.Plan.sharing_factor p)
        in
        Printf.printf "-- emitted plan: %s\n-- sharing: %s\n%s\n"
          (Algebra.Plan_pp.summary raw) (sharing raw)
          (if opts.Engine.cda then "" else render raw);
        if opts.Engine.cda then begin
          Printf.printf "-- after column dependency analysis: %s\n"
            (Algebra.Plan_pp.summary optimized);
          Printf.printf "-- sharing: %s\n" (sharing optimized)
        end;
        if opts.Engine.rewrite then begin
          let rs = a.Engine.arewrite in
          Printf.printf "-- rewriter: %d fires in %d rounds, %d -> %d operators\n"
            (Algebra.Rewrite.total_fires rs) rs.Algebra.Rewrite.rounds
            rs.Algebra.Rewrite.ops_before rs.Algebra.Rewrite.ops_after;
          List.iter
            (fun (rule, k) -> Printf.printf "--   %-18s %d\n" rule k)
            rs.Algebra.Rewrite.fires
        end;
        Printf.printf "-- join graph: %s\n"
          (Algebra.Joingraph.summary_to_string
             (Algebra.Joingraph.summary optimized));
        if opts.Engine.cda then print_string (render optimized);
        if not dot then begin
          Printf.printf
            "-- physical plan: %d kernels, %d parallelizable (\xE2\x88\xA5)\n"
            (Algebra.Lower.count_kernels optimized)
            (Algebra.Lower.count_parallel optimized);
          print_string (Algebra.Lower.to_string optimized)
        end)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Compile a query and print its algebra plan")
    Term.(const action $ query_file_arg $ expr_arg $ plan_opts_term
          $ dot_arg)

(* --------------------------------------------------------------- xmark *)

let scale_arg =
  Arg.(value & opt float 0.01
       & info [ "scale" ] ~docv:"F" ~doc:"XMark scale factor (f = 1 is ~25k persons).")

let xmark_query_arg =
  Arg.(value & opt (some string) None
       & info [ "query" ] ~docv:"QN" ~doc:"Run a single XMark query (Q1..Q20).")

let repeat_arg =
  Arg.(value & opt int 1
       & info [ "repeat" ] ~docv:"K"
           ~doc:"Run each query $(docv) times (exercises the plan cache).")

let xmark_cmd =
  let action scale qname opts profile plan_cache no_plan_cache repeat =
    handle (fun () ->
        let store = Xmldb.Doc_store.create () in
        let _, bytes = Xmark.Xmark_gen.load ~scale store in
        Printf.eprintf "auction.xml: %.2f MB, %d nodes\n"
          (float_of_int bytes /. 1e6) (Xmldb.Doc_store.total_nodes store);
        let cache = mk_cache ~plan_cache ~no_plan_cache in
        let queries =
          match qname with
          | Some n -> [ (n, Xmark.Xmark_queries.get n) ]
          | None -> Xmark.Xmark_queries.all
        in
        for _ = 1 to max 1 repeat do
          List.iter
            (fun (n, q) ->
               let r = Engine.run ?cache ~opts ~with_profile:profile store q in
               Printf.printf "%-4s %6d items %10.1f ms\n%!" n
                 (List.length r.Engine.items) (r.Engine.wall_seconds *. 1000.0);
               report_degraded r;
               match r.Engine.profile with
               | Some p -> print_string (Algebra.Profile.to_string p)
               | None -> ())
            queries
        done;
        report_cache_stats cache)
  in
  Cmd.v (Cmd.info "xmark" ~doc:"Run XMark benchmark queries on a generated instance")
    Term.(const action $ scale_arg $ xmark_query_arg $ opts_term
          $ profile_arg $ plan_cache_arg $ no_plan_cache_arg $ repeat_arg)

(* ----------------------------------------------------------------- gen *)

let gen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) (default stdout).")
  in
  let action scale out =
    handle (fun () ->
        let src = Xmark.Xmark_gen.generate ~scale () in
        match out with
        | None -> print_string src
        | Some path ->
          let oc = open_out_bin path in
          output_string oc src;
          close_out oc;
          Printf.eprintf "wrote %d bytes to %s\n" (String.length src) path)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate an XMark auction.xml instance")
    Term.(const action $ scale_arg $ out_arg)

(* --------------------------------------------------------------- store *)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let store_stats_line store =
  Printf.sprintf "%d documents, %d nodes, %d table bytes"
    (List.length (Xmldb.Doc_store.documents store))
    (Xmldb.Doc_store.total_nodes store)
    (Xmldb.Doc_store.encoded_bytes store)

let store_save_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the snapshot to $(docv).")
  in
  let xmark_arg =
    Arg.(value & opt (some float) None
         & info [ "xmark" ] ~docv:"F"
             ~doc:"Also load a generated XMark instance at scale $(docv), \
                   registered as auction.xml.")
  in
  let action docs xmark_scale out =
    handle (fun () ->
        let store = Xmldb.Doc_store.create () in
        load_documents store docs;
        (match xmark_scale with
         | Some scale -> ignore (Xmark.Xmark_gen.load ~scale store)
         | None -> ());
        if Xmldb.Doc_store.documents store = [] then
          Basis.Err.static "nothing to save (give -d uri=file and/or --xmark F)";
        Xmldb.Doc_store.Snapshot.save store out;
        Printf.eprintf "snapshot v%d: %s -> %s (%d bytes)\n"
          Xmldb.Doc_store.Snapshot.format_version (store_stats_line store) out
          (file_size out))
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Build a store from documents and write a versioned snapshot")
    Term.(const action $ docs_arg $ xmark_arg $ out_arg)

let store_load_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"The snapshot file to load.")
  in
  let expr_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "e"; "expr" ] ~docv:"QUERY" ~doc:"The query text itself.")
  in
  let action file qf expr mode interpret profile jobs no_code_eval =
    handle (fun () ->
        let store = Xmldb.Doc_store.Snapshot.load file in
        Printf.eprintf "loaded %s: %s\n" file (store_stats_line store);
        match (qf, expr) with
        | None, None ->
          List.iter
            (fun (uri, _) -> print_endline uri)
            (Xmldb.Doc_store.documents store)
        | _ ->
          let opts =
            { Engine.default_opts with
              Engine.mode;
              backend =
                (if interpret then Engine.Interpreted else Engine.Compiled);
              jobs = jobs_of jobs;
              code_eval = not no_code_eval }
          in
          let r =
            Engine.run ~opts ~with_profile:profile store (query_text qf expr)
          in
          print_endline r.Engine.serialized;
          report_degraded r;
          (match r.Engine.profile with
           | Some p ->
             prerr_newline ();
             prerr_string (Algebra.Profile.to_string p)
           | None -> ());
          Printf.eprintf "-- %d items, %.1f ms\n" (List.length r.Engine.items)
            (r.Engine.wall_seconds *. 1000.0))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Load a snapshot; list its documents or evaluate a query on it")
    Term.(const action $ file_arg $ query_file_arg $ expr_opt_arg $ mode_arg
          $ interpret_arg $ profile_arg $ jobs_arg $ no_code_eval_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Save and load encoded document-store snapshots")
    [ store_save_cmd; store_load_cmd ]

let () =
  let info =
    Cmd.info "xrquy" ~version:"1.0.0"
      ~doc:"Order indifference in XQuery: a relational XQuery engine"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ run_cmd; plan_cmd; xmark_cmd; gen_cmd; store_cmd ]))

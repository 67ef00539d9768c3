(* The end-to-end benchmark's program (perfbench/run.py builds and runs
   it from the root of a checkout):

     bench.exe run --workload W --seed N --seconds S --trace 0|1 --serve EXE
     bench.exe refs --workload W --seed N [--out DIR]

   [run] measures one workload and prints, as its last line, one JSON
   object with the end-to-end metrics (--trace 0) or the per-layer
   metrics of a traced run (--trace 1). [refs] writes the interpreter
   references for (workload, seed) — the ones perfbench/refs ships. *)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1 \
     --serve EXE\n\
    \       bench.exe refs --workload W --seed N [--out DIR]";
  exit 2

let () =
  let cmd, rest =
    match Array.to_list Sys.argv with
    | _ :: cmd :: rest -> (cmd, rest)
    | _ -> usage ()
  in
  let rec opts acc = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let kv = opts [] rest in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> usage ()
  in
  let w =
    match Corpus.of_name (get "workload") with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" in
  match cmd with
  | "refs" ->
    let src = Corpus.document w seed in
    Refs.generate ?dir:(List.assoc_opt "out" kv) w seed src
      (Corpus.queries w)
  | "run" ->
    let seconds = int "seconds" and exe = get "serve" in
    let tally, metrics =
      match int "trace", w with
      | 0, (Corpus.Compile_cold | Corpus.Exec_warm) ->
        Local.measure w seed seconds
      | 0, Corpus.Serve_rw -> Serve_load.measure ~exe seed seconds
      | 1, _ -> Trace.measure ~exe w seed seconds
      | _ -> usage ()
    in
    Measure.print_result tally ~end_to_end:(int "trace" = 0) metrics
  | _ -> usage ()

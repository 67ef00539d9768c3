(* Clocks, order statistics, the run's tally and its result line. *)

let now = Basis.Clock.now

(* [time f] = (f's result, its monotonic wall time in seconds) *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of a non-empty sample. *)
let quantile q xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile 0.5 xs
let iqr xs = quantile 0.75 xs -. quantile 0.25 xs

(* The statistic for a timing repeated within a run: its minimum, the
   run's best. Noise on a shared host only ever adds time, in bursts and
   in phases of a few minutes: a fixed CPU loop's per-second median
   varies up to 1.7x on the two-core host this benchmark was tuned on,
   while its per-second minimum stays within 10%. Over five runs of
   exec-warm in such a phase, the per-query median moved 15-22% and the
   minimum 7-11%. *)
let best xs = List.fold_left Float.min Float.infinity xs

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external set_affinity : int array -> bool = "perfbench_set_affinity"

let cpus = allowed_cpus ()
let next_cpu = ref 0

(* Called before each timed pass: move to the next CPU the process may
   use. A core whose sibling a neighbour keeps busy runs slow for seconds
   at a time; rotating confines that to a share of the passes instead of
   a whole run, and [best] then follows the quieter core. *)
let rotate () =
  if Array.length cpus > 1 then begin
    ignore (set_affinity [| cpus.(!next_cpu mod Array.length cpus) |]);
    incr next_cpu
  end

(* Back to every allowed CPU (a child process inherits the mask). *)
let unpin () = if Array.length cpus > 1 then ignore (set_affinity cpus)

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
      if String.starts_with ~prefix:"VmHWM:" l then
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
      else None)
  |> Option.value ~default:nan

(* What a run checked: every compared output is an attempt; a wrong
   output, an error or a shed request is a failure. An invariant the
   benchmark relies on (identical store at each pass start, a replay that
   compiles the same program, counts that repeat) marks the run
   incorrect without being an output failure. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : string list;
}

let tally () = { attempted = 0; failed = 0; broken = [] }

let record t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

let invariant t ok what =
  if not ok then begin
    t.broken <- what :: t.broken;
    Printf.eprintf "perfbench: INVARIANT %s\n%!" what
  end

(* Every metric as a readable line, then the result as the last line of
   standard output. An end-to-end result also carries the share of
   attempts answered correctly: fail_ratio = 1 - ok_ratio, which is
   reported this way round because a metric must never read 0. *)
let print_result t ~end_to_end metrics =
  let metrics =
    if not end_to_end then metrics
    else
      metrics
      @ [ ( "ok_ratio",
            1. -. (float_of_int t.failed /. float_of_int (max 1 t.attempted)),
            "ratio" ) ]
  in
  List.iter (fun (k, v, u) -> Printf.printf "%-26s %14.6f %s\n" k v u) metrics;
  if end_to_end then
    Printf.printf "%-26s %14.6f ratio (%d of %d attempts)\n" "fail_ratio"
      (float_of_int t.failed /. float_of_int (max 1 t.attempted))
      t.failed t.attempted;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  invariant t finite "a metric is not a finite number";
  let field (k, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k
      (if Float.is_finite v then v else 0.) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0 && t.broken = [] && t.attempted > 0)
    t.attempted t.failed
    (String.concat ", " (List.map field metrics))

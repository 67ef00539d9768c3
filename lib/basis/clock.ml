(* Monotonic clock. All deadline and profiling arithmetic in the engine
   uses this scale, never Unix.gettimeofday: the wall clock can be stepped
   by NTP or an operator, which would fire timeouts early or hold them off
   forever. The origin is unspecified (boot-relative on Linux); only
   differences are meaningful. *)

external monotonic_ns : unit -> int64 = "exrquy_clock_monotonic_ns"

let now () = Int64.to_float (monotonic_ns ()) *. 1e-9

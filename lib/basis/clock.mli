(** Monotonic clock (CLOCK_MONOTONIC) for deadline and duration
    arithmetic. Unlike [Unix.gettimeofday], it cannot jump when NTP steps
    the wall clock, so {!Budget} timeouts can neither fire early nor be
    suppressed. The origin is unspecified; only differences mean
    anything. *)

(** Seconds on the monotonic scale (the unit {!Budget} deadlines use). *)
val now : unit -> float

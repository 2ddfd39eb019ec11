(** Monotonic clock for the pool's busy/idle accounting, the flow's wall
    budget, the daemon's deadlines and benchmark timing.  Readings count
    from an arbitrary fixed point ([CLOCK_MONOTONIC]), so only the
    difference of two readings means anything; it never jumps when the
    system clock is set.  CPU time ([Sys.time]) is the wrong axis once work
    spreads over domains: a 4-worker pool burns ~4 CPU-seconds per wall
    second, so speedups are invisible in CPU time. *)

val now_s : unit -> float
(** Monotonic seconds. *)

val now_ns : unit -> int64
(** Monotonic nanoseconds, read without a float round trip. *)

val ns_to_s : int64 -> float

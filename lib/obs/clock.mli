(** Monotonized process clock for telemetry timestamps, and the
    allocation counter read alongside it.

    [Unix.gettimeofday] anchored at module-load time and clamped to a
    process-wide high-water mark, so successive readings never decrease
    even across domains (a stepped system clock shows up as a stall, not
    as negative span durations). Resolution is sub-microsecond. *)

val now_ns : unit -> int64
(** Nanoseconds since process start, monotonically non-decreasing. *)

val now_us : unit -> int64
(** {!now_ns} divided down to microseconds (the Chrome trace unit). *)

val seconds_since : int64 -> float
(** [seconds_since t0] is the elapsed time in seconds between a previous
    {!now_ns} reading [t0] and now. *)

val wall_s : unit -> float
(** Raw wall-clock seconds since the Unix epoch (for log timestamps;
    not monotonized). *)

val alloc_words : unit -> float
(** Words allocated by the running domain so far, minor and direct
    major allocations without double-counting promotions. Cheap (never
    walks the heap); the difference of two readings is the allocation of
    the code between them — the [alloc_words] of trace spans and of
    cross-validation cells. *)

(** Flight recorder: fixed-capacity rings of recent structured events,
    one ring per domain shard, merged deterministically and dumped as
    JSONL — the post-hoc counterpart to live tracing.

    The library's probes reach it through {!Trace.emit} and
    {!Trace.with_span}. Where the trace sink streams every span as it
    happens, the recorder keeps only the recent tail (drop-oldest per
    ring) in memory, and writes it out when something goes wrong: on
    demand, on a [Refused] health verdict or solver non-convergence (the
    core layers call {!auto_dump}), and at process exit once a dump path
    is configured. A failed run nobody was watching thereby explains
    itself after the fact.

    {b Overhead contract.} A probe against a disabled recorder is one
    load and one branch; enabled, it is one mutex-protected array store
    per event. Recording never reads or mutates the instrumented
    computation: estimates are bit-for-bit identical with the recorder
    on or off.

    {b Determinism contract.} Events merge by a stable sort on
    [(ts_us, domain, seq)] — a pure function of the ring contents. The
    multiset of events emitted by a jobs-invariant computation is itself
    jobs-invariant; which [domain] recorded an event is scheduling, so
    treat it as a label, not a key. *)

type event = {
  seq : int;  (** per-ring sequence number, strictly increasing from 0 *)
  domain : int;  (** id of the recording domain *)
  ts_us : int64;  (** {!Clock} microseconds *)
  kind : string;
      (** event class: ["span_begin"], ["span_end"], ["instant"],
          ["solver_iter"], ["solver_done"], ["verdict"], ... *)
  name : string;  (** span/solver/probe name *)
  fields : (string * Field.t) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Fresh recorder, disabled, with [capacity] slots {e per ring}
    (default 4096; there are 16 rings). Raises [Invalid_argument] when
    [capacity < 1]. *)

val default : t
(** The process-wide recorder the library's built-in probes target.
    Starts disabled; the CLI enables it under [--flight-recorder]. *)

val enable : t -> unit

val disable : t -> unit

val enabled : t -> bool

val record : t -> ?fields:(string * Field.t) list -> kind:string -> string -> unit
(** [record t ~kind name] appends one event to the calling domain's
    ring, dropping that ring's oldest event when full. Disabled: one
    branch, no allocation. *)

val events : t -> event list
(** Merged snapshot of every ring, oldest first (stable sort on
    [(ts_us, domain, seq)]). *)

val recorded : t -> int
(** Events ever recorded (including dropped ones). *)

val dropped : t -> int
(** Events lost to ring rotation so far. *)

val reset : t -> unit
(** Empty every ring (counters included). The dump path is kept. *)

val dump : t -> reason:string -> Sink.t -> unit
(** Write a JSONL dump: one header object
    ([{"kind": "recorder_dump", "reason": ..., "events": N, "dropped":
    D, "capacity": C}]) followed by one event object per line
    ([kind]/[name]/[domain]/[seq]/[ts_us] and the fields under
    ["args"]). *)

val set_dump_path : t -> string option -> unit
(** Configure where {!auto_dump} writes. The first non-[None] path also
    registers an [at_exit] hook that dumps (reason ["exit"]) if the
    recorder is still enabled — each dump truncates the file, so the
    exit dump supersedes earlier emergency dumps with a superset of
    their events. *)

val auto_dump : t -> reason:string -> unit
(** Dump to the configured path (truncating), or do nothing when no
    path is set. Called by the library on [Refused] verdicts and solver
    non-convergence. *)

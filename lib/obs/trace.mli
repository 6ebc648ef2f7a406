(** The one event producer: every probe in the library is a {!with_span}
    or an {!emit}, and the three telemetry outputs read that one record.

    - The flight recorder ({!Recorder.default}) receives every event
      while it is enabled.
    - The trace sink receives Chrome trace-event JSONL: spans as ["X"]
      complete events with [ts]/[dur] in microseconds from {!Clock} and
      [alloc_words] among their args, [kind = "instant"] events as ["i"]
      events. The stream opens with a ["["] line and omits the closing
      bracket, which chrome://tracing and ui.perfetto.dev both accept and
      which keeps the file valid after a crash. Nesting is reconstructed
      by the viewer from time-range containment per [tid], and [tid] is
      the emitting domain's id, so spans raised inside pool workers
      appear on the worker's own row.
    - The convergence sink receives [kind = "solver_iter"] events as flat
      JSON objects, [{"solver": name}] followed by the event's fields:
      [{"solver": "cgls", "solve": 3, "iteration": 17, "relres": 1.2e-7,
      "phase": "phase2", "precond": "block_jacobi", "warm": true}].

    With no sink installed and the recorder off, {!with_span} runs the
    thunk after two branches. No output reads the computation back:
    estimates are bit-for-bit identical with telemetry on or off. *)

val enabled : ?kind:string -> unit -> bool
(** Without [kind]: whether a trace sink is installed. With [kind]:
    whether an {!emit} of that kind reaches any output — call sites test
    it before building a field list. *)

val set_sink : Sink.t option -> unit
(** Install (or remove, with [None]) the trace sink; any previous sink
    is closed, and a fresh sink immediately receives the opening ["["]
    line. *)

val set_convergence_sink : Sink.t option -> unit
(** Install (or remove) the convergence sink, closing any previous one. *)

val emit : ?fields:(string * Field.t) list -> kind:string -> string -> unit
(** [emit ~kind name] records one event: into the recorder when it is
    enabled, as a trace ["i"] line when [kind = "instant"], and as a
    convergence line when [kind = "solver_iter"]. *)

val with_span : ?args:(string * Field.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and records a span covering its
    execution, including when [f] raises: [span_begin]/[span_end]
    recorder events (the end carrying [args @ [dur_us; alloc_words]])
    and one trace ["X"] event (args [args @ [alloc_words]]). Allocation
    is the GC words the running domain allocated inside the span.
    Disabled: exactly [f ()]. *)

val close : unit -> unit
(** Close and detach both sinks. *)

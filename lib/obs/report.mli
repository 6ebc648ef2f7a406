(** Post-hoc telemetry report: one operator-readable page from the raw
    files the pipeline writes.

    [render] takes the {e contents} (not paths) of any subset of the
    four telemetry outputs and returns the formatted page:

    - a per-phase wall-time + allocation profile (recorder [span_end]
      events or trace ["X"] events; a trace without [alloc_words] args
      shows [-] in the allocation column),
    - the top-N slowest individual spans,
    - a convergence summary table — one row per iterative solve with
      phase/preconditioner/warm context, iteration count, final relative
      residual, and convergence verdict — plus the residual tail of the
      first non-converged solve (or the last solve when all converged),
    - the health verdict(s) with quarantine and non-convergence counts
      (recorder [verdict]/[quarantine] events, Prometheus counters as
      fallback).

    Sections render independently from whichever inputs carry their
    data; with no recognizable telemetry at all the result says so
    rather than printing an empty page. Run-to-run varying numbers
    (wall ms, alloc words) sit in their own columns, so the
    deterministic ones (names, iteration counts, residuals, verdicts)
    are stable to select in tests. *)

val render :
  ?recorder:string ->
  ?trace:string ->
  ?metrics:string ->
  ?convergence:string ->
  ?top:int ->
  ?tail:int ->
  unit ->
  string
(** [render ~recorder ~trace ~metrics ~convergence ~top ~tail ()] —
    every input optional; [top] (default 5) bounds the slow-span list,
    [tail] (default 8) the residual tail. Malformed lines are skipped,
    never fatal. *)

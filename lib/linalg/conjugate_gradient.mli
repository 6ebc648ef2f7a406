(** The solve statistics and telemetry hooks shared by the iterative
    solvers.

    The conjugate-gradient recurrence runs inside {!Lsqr.cgls}, which
    applies it to the normal equations implicitly; this module holds no
    solve of its own. It keeps what {!Lsqr} and [Core.Plan] share: the
    {!stats} record every iterative solve returns, and the probes that
    feed the solver histograms and emit the [solver_iter] /
    [solver_done] events. It stays a module of its own so the [stats] field path and
    the metrics it registers ([lia_solver_nonconverged_total],
    [lia_cgls_relres], [lia_cgls_iter_seconds]) keep one home. *)

type stats = {
  iterations : int;
  residual_norm : float;  (** final residual norm ({!Lsqr.stats} says which) *)
  relative_residual : float;
      (** [residual_norm] over the solver's reference norm ([0.] when
          that is 0) — compare against the [tol] the solve was asked for *)
  converged : bool;
      (** whether the solve reached [tol] before hitting [max_iter] or
          stalling. A [false] here has already been counted in the
          [lia_solver_nonconverged_total] metric and logged as a warning;
          callers decide whether to degrade or refuse. *)
}

(** {2 Shared telemetry hooks}

    The iterative solvers ({!Lsqr} included) feed the [lia_cgls_relres] /
    [lia_cgls_iter_seconds] histograms and emit [solver_iter] /
    [solver_done] events through {!Obs.Trace.emit}, which the flight
    recorder keeps and the convergence stream writes as JSONL. Each is
    behind its own enable check, and none reads the computation back,
    so estimates are bit-for-bit identical instrumented or not. *)

val instrumented : unit -> bool
(** Whether the solver metrics or any output of [solver_iter] events is on —
    solvers check once per solve and skip per-iteration clock reads and
    probe calls entirely when it is [false]. *)

val new_solve_id : unit -> int
(** Next process-wide solve id (1, 2, ...), so convergence lines from
    interleaved solves can be told apart. *)

val note_iteration :
  solver:string ->
  solve:int ->
  iteration:int ->
  relative_residual:float ->
  iter_seconds:float ->
  context:(string * Obs.Field.t) list ->
  unit
(** Record one solver iteration into the histograms and emit it as a
    [solver_iter] event. [context] is the caller's solve labels
    (["phase"], ["precond"], ["warm"], ...). *)

val note_solve_done :
  solver:string ->
  solve:int ->
  context:(string * Obs.Field.t) list ->
  stats ->
  unit
(** Emit a solve's final stats as a [solver_done] event. *)

val note_nonconvergence :
  solver:string -> iterations:int -> relative_residual:float -> unit
(** Shared non-convergence hook for the iterative solvers ({!Lsqr} uses
    it too): bumps the [lia_solver_nonconverged_total] counter, emits an
    {!Obs.Logger} warning naming the solver, and triggers
    {!Obs.Recorder.auto_dump} (reason ["nonconvergence"]) so a starved
    solve leaves a flight-recorder dump behind even if the process dies
    before [at_exit]. *)

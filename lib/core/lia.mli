(** The Loss Inference Algorithm (LIA) — Section 5.3 of the paper.

    Phase 1 learns the link variances from [m] snapshots by solving the
    second-moment system [Σ̂* = A v]. Phase 2 sorts links by variance,
    eliminates the quietest columns from the routing matrix until it has
    full column rank, solves [Y = R* X*] on the target snapshot, and
    assigns transmission rate 1 (loss 0) to the eliminated links.

    One {!solver} value — the same type as {!Plan.backend} — configures
    both phases. {!infer_checked} is the one entry point that runs both:
    Phase 1 through {!learn}, then a single-use {!Plan} that solves one
    measurement. A serving loop that diagnoses many snapshots against
    the same routing matrix and known variances calls [Plan.make] once
    and amortizes the factorization across [Plan.solve] /
    [Plan.solve_batch] calls. *)

module Plan = Plan
(** The factor-once, solve-many serving path. *)

type result = Plan.result = {
  variances : float array;
      (** learnt loss-variance per link (Phase 1 output) *)
  transmission : float array;
      (** inferred transmission rate [φ̂ₑ] per link, clamped to (0, 1];
          eliminated links get exactly 1 *)
  loss_rates : float array;  (** [1 - transmission], per link *)
  kept : int array;  (** columns of [R*] *)
  removed : int array;  (** columns approximated as loss-free *)
}

(** How both phases solve their linear systems: the one solver
    configuration, shared with the Phase-2 plan ([Plan.backend] is the
    same type). {!learn} and {!plan_backend} are the one place this
    choice is translated into a Phase-1 algorithm and a Phase-2 plan
    backend. *)
type solver = Plan.backend =
  | Dense_qr
      (** the historical path: streaming normal equations
          ({!Variance_estimator.estimate_streaming_ess}) for Phase 1,
          dense Householder QR for Phase 2. Exact, and fastest while the
          dense panels fit. *)
  | Cgls of {
      tol : float;  (** CGLS relative tolerance (1e-10 in {!default_cgls}) *)
      max_iter : int option;  (** [None] = the CGLS default cap *)
      precond : Variance_estimator.precond_spec;
          (** preconditioner for the Phase-1 augmented solve, built by
              {!Variance_estimator.preconditioner}: [Pc_jacobi] (the
              {!default_cgls} choice), [Pc_none], or
              [Pc_block_jacobi groups] for the hierarchical AS-sharded
              path (groups from {!Topology.Partition.group_cols}).
              Block-Jacobi also carries over to Phase 2
              ({!plan_backend}); the other choices leave Phase 2 on raw
              CGLS. *)
    }
      (** matrix-free: Phase 1 runs preconditioned CGLS against the
          implicit augmented operator
          ({!Variance_estimator.estimate_matfree_ess}), Phase 2 solves
          through the sparse [R*]. Memory stays O(non-zeros + vectors) —
          the only path that scales past the n_p² wall — and agrees with
          [Dense_qr] to solver tolerance on full-rank systems. *)

val default_cgls : solver
(** [Cgls { tol = 1e-10; max_iter = None; precond = Pc_jacobi }]. *)

val learn :
  ?solver:solver ->
  ?jobs:int ->
  ?min_pair_samples:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * Variance_estimator.ess
(** Phase 1: the link variances learnt from the [m × n_p] snapshot
    matrix [y], with the effective-sample-size report. [solver] (default
    [Dense_qr]) picks the algorithm; negative sample covariances are
    dropped and the variances clamped at 0 under both. Pairs with fewer
    than [min_pair_samples] (default 2) overlapping snapshots are
    excluded. Raises [Invalid_argument] as the estimator it dispatches
    to. Bit-for-bit identical for every [jobs] value. *)

val plan_backend : solver -> Plan.backend
(** Phase 2: the plan backend matching [solver]. [Dense_qr] is
    returned as is; [Cgls] keeps its tolerance and cap and its
    preconditioner only when that is block-Jacobi ([Pc_jacobi]
    preconditions Phase 1 only, so Phase 2 then runs raw CGLS). *)

val congested : result -> threshold:float -> bool array
(** Links whose inferred loss rate exceeds the threshold [tl]. *)

(** {1 Inference}

    The one end-to-end entry point. It holds up on production ingest,
    where snapshot files arrive ragged, NaN-laden, duplicated, or short:
    the learning matrix is scrubbed through {!Quarantine}, the variances
    are learnt pairwise-complete with an effective-sample-size guard,
    and the caller receives a typed verdict instead of an exception
    escape, a NaN-laden estimate, or a silent wrong answer. *)

type degradation = {
  quarantine : Quarantine.report;  (** what ingest scrubbing removed *)
  ess : Variance_estimator.ess;  (** pairwise-complete sample accounting *)
  target_missing : int;  (** missing entries excluded from [y_now] *)
  target_corrupt : int;  (** corrupt entries excluded from [y_now] *)
}

type health =
  | Clean
      (** nothing was quarantined or skipped; the result is bit-for-bit
          {!learn} followed by [Plan.solve (Plan.make ...)] on the same
          inputs *)
  | Degraded of degradation
      (** inference proceeded on the surviving data; the report bounds
          what was lost *)
  | Refused of string
      (** too little usable signal — no estimate is returned, and the
          reason says why *)

type checked = { health : health; result : result option }
(** [result] is [Some] iff [health] is not [Refused]; when present its
    [loss_rates] and [variances] are always finite. *)

val infer_checked :
  ?solver:solver ->
  ?jobs:int ->
  ?min_pair_samples:int ->
  ?max_missing_fraction:float ->
  ?max_skipped_pair_fraction:float ->
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  unit ->
  checked
(** [infer_checked ~r ~y_learn ~y_now ()] runs both phases: [y_learn]
    is the [m × n_p] matrix of log path transmission rates of the
    learning snapshots, [y_now] the log measurement of the snapshot to
    diagnose. It tolerates faulty input:

    - [y_learn] is scrubbed ({!Quarantine.scrub}, tolerating up to
      [max_missing_fraction] (default 0.5) missing cells per row);
      refused when fewer than 2 rows survive;
    - variances are learnt pairwise-complete with at least
      [min_pair_samples] (default 2) overlapping snapshots per pair;
      refused when more than [max_skipped_pair_fraction] (default 0.5)
      of the linked path pairs had to be skipped;
    - invalid entries of [y_now] are excluded and Phase 2 solves over
      the valid paths only; refused when none remain;
    - any solver failure or non-finite output becomes [Refused], never
      an exception escape.

    [solver] (default [Dense_qr]) picks the linear-algebra path of both
    phases ({!learn}, {!plan_backend}); the quarantine,
    effective-sample-size accounting, and verdict rules are identical
    under both, so [Cgls] changes estimates only within solver
    tolerance. [jobs] (default [Parallel.Pool.default_jobs ()]) runs
    Phase 1's covariance and normal-equation kernels and Phase 2's QR on
    a domain pool. Raises [Invalid_argument] only for dimension
    mismatches (programming errors, not data faults), before any work is
    done. Deterministic: same inputs give the same verdict and
    bit-identical estimates for every [jobs] value. *)

val health_label : health -> string
(** ["clean"], ["degraded"], or ["refused"]. *)

val health_summary : health -> string
(** One-line rendering including quarantine and sample accounting. *)

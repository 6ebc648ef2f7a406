(** Phase 1 of LIA: solving [Σ̂* = A v] for the link variances (Sec 5.1).

    Theorem 1 guarantees [A] has full column rank, so with exact
    covariances the solution is unique. With sampled covariances the
    system is inconsistent; it is solved in the least-squares sense by
    one of two algorithms, picked by [Lia.learn] from the [Lia.solver]:
    {!estimate_streaming_ess} forms and factors the sparse normal
    equations, {!estimate_matfree_ess} runs CGLS against the implicit
    [A]. Neither ever materializes [A]. The paper's own method, a dense
    Householder QR of the materialized [A] ({!Augmented.build}), survives
    only as the oracle the test suite checks both against. Negative
    sample covariances — pure sampling artifacts, as covariances of path
    losses are non-negative under the model — are dropped by default, as
    in the paper's experiments.

    {b Graceful degradation.} Both kernels tolerate missing
    measurements (NaN cells, as produced by {!Quarantine.scrub} or by
    host churn): each pair covariance is computed over the
    pairwise-complete snapshots only, with column means taken over the
    present entries, and pairs with fewer than [min_pair_samples]
    overlapping snapshots are excluded from the system. On a complete
    matrix the guarded path is never entered and the result is
    bit-for-bit the historical estimator. *)

type ess = {
  pairs_total : int;
      (** path pairs whose augmented row is non-empty (pairs sharing at
          least one link) *)
  pairs_used : int;
      (** of those, pairs with at least [min_pair_samples] overlapping
          snapshots — equal to [pairs_total] on a complete matrix *)
  samples_min : int;
      (** smallest pairwise-complete sample count among the used pairs
          ([m] on a complete matrix; 0 when no pair was usable) *)
}
(** Effective-sample-size accounting for the pairwise-complete
    estimator, the signal [Lia.infer_checked] grades degradation on. *)

val estimate_streaming_ess :
  ?jobs:int ->
  ?drop_negative:bool ->
  ?clamp:bool ->
  ?min_pair_samples:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * ess
(** Solves the normal equations of [Σ̂* = A v] in one pass over the path
    pairs, accumulating [AᵀA] and [AᵀΣ̂*] directly: pairs of paths that
    share no link contribute nothing and are skipped, so memory is
    O(n_c²) regardless of the n_p(n_p+1)/2 virtual rows. This is what
    makes the PlanetLab-scale systems (hundreds of thousands of path
    pairs) solvable in seconds, as reported in Section 6.4. Returns the
    variances and the effective-sample-size report.

    [drop_negative] (default true) ignores the equations with
    [Σ̂ᵢᵢ' < 0]; [clamp] (default true) clamps the solution at 0.

    The pair triangle is partitioned into balanced blocks processed by
    [jobs] domains (default [Parallel.Pool.default_jobs ()], so 1 on a
    single-core host); per-block partials are merged in a fixed order.
    The Gram matrix is then factored by {!Linalg.Cholesky}, whose rows
    are spread over the same [jobs] domains with a fixed per-entry
    operation order. The variances are bit-for-bit identical, and the
    [ess] integers exact and identical, for every [jobs] value.

    [min_pair_samples] (default 2) is the effective-sample-size guard of
    the pairwise-complete path: pairs with fewer overlapping snapshots
    are excluded from the normal equations. Raises [Invalid_argument]
    when it is below 2, on a width mismatch between [r] and [y], and
    with fewer than 2 snapshots. *)

(** {1 Matrix-free path}

    {!estimate_streaming_ess} never materializes [A] but still forms the
    dense [n_c × n_c] Gram matrix and, above all, touches every one of
    the n_p(n_p+1)/2 pair rows with a per-row allocation. The matrix-free
    path goes further: the augmented system is solved iteratively
    ({!Linalg.Lsqr.cgls} over {!Augmented.matfree}) with memory bounded
    by a handful of length-[n_c] and length-n_p(n_p+1)/2 vectors, which
    is what survives at path counts where even the streaming Gram
    assembly is the wall. *)

type precond_spec =
  | Pc_none  (** raw CGLS, no scaling *)
  | Pc_jacobi
      (** column-count equalization — the historical default, bit-for-bit
          the pre-preconditioner-hook arithmetic *)
  | Pc_block_jacobi of int array array
      (** hierarchical block-Jacobi over the given column groups (e.g.
          {!Topology.Partition.group_cols} of an AS partition): each
          group's Gram block is Cholesky-factored independently and
          applied in place over the group's column indices
          ({!Linalg.Precond.block_jacobi}); no column is reordered. The
          groups must be disjoint; columns in no group pass through
          unscaled. *)

val preconditioner :
  ?jobs:int ->
  cols:int ->
  diag:(unit -> Linalg.Vector.t) ->
  gram_blocks:(int array array -> Linalg.Matrix.t array) ->
  precond_spec ->
  Linalg.Precond.t option * string
(** The one translation of a {!precond_spec} into a right preconditioner
    for {!Linalg.Lsqr.cgls}, shared by Phase 1 (the augmented operator)
    and the Phase-2 {!Plan} backend ([R*]), together with its telemetry
    label (["none"], ["jacobi"], ["block_jacobi"]). [cols] is the
    operator's column count. [diag ()] is its Gram diagonal, called only
    for [Pc_jacobi]. [gram_blocks groups] returns the dense Gram diagonal
    block of each group, called only for [Pc_block_jacobi], with sorted
    copies of the non-empty groups. [Pc_none] is [None]. Block factoring
    fans over [jobs] domains and is jobs-invariant. *)

type matfree_options = {
  tol : float;  (** CGLS relative tolerance on [‖Aᵀr‖] (default 1e-10) *)
  max_iter : int option;  (** iteration cap; [None] = [2 · n_c] *)
  mf_drop_negative : bool;
      (** as [drop_negative] of {!estimate_streaming_ess} (default true) *)
  mf_clamp : bool;  (** as [clamp] of {!estimate_streaming_ess} (default true) *)
  mf_min_pair_samples : int;
      (** as [min_pair_samples] of {!estimate_streaming_ess} (default 2) *)
  sample : (float * int) option;
      (** [Some (fraction, seed)] solves over a deterministic row-sampling
          sketch ({!Augmented.sample_mask}) instead of the full triangle —
          a speed/accuracy dial for very large systems. [None] (default)
          uses every row. *)
  mf_precond : precond_spec;  (** default [Pc_jacobi] *)
}

val default_matfree_options : matfree_options

val estimate_matfree_ess :
  ?options:matfree_options ->
  ?jobs:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * ess * Linalg.Lsqr.stats
(** The matrix-free estimator: builds the right-hand side [Σ̂*] and a row
    mask (drop-negative rule, effective-sample-size guard, optional
    sampling sketch) in one cache-tiled sweep, then runs CGLS against
    the implicit augmented operator under the [mf_precond]
    preconditioner ({!preconditioner}). Solves the same
    least-squares problem as the streaming path over the same surviving
    rows, so on full-column-rank systems the minimizer agrees to solver
    tolerance. The [ess] accounting matches {!estimate_streaming_ess}
    pair for pair; the CGLS iteration count is added to the
    [lia_cgls_iterations] counter and logged at info level. Bit-for-bit
    identical for every [jobs] value. Raises [Invalid_argument] as
    {!estimate_streaming_ess}. *)

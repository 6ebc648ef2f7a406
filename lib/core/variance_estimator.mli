(** Phase 1 of LIA: solving [Σ̂* = A v] for the link variances (Sec 5.1).

    Theorem 1 guarantees [A] has full column rank, so with exact
    covariances the solution is unique. With sampled covariances the
    system is inconsistent; we solve it in the least-squares sense, by
    default through the sparse normal equations (the paper uses a dense
    Householder QR, also available here as an ablation). Negative sample
    covariances — pure sampling artifacts, as covariances of path losses
    are non-negative under the model — are dropped by default, as in the
    paper's experiments.

    {b Graceful degradation.} The streaming kernel tolerates missing
    measurements (NaN cells, as produced by {!Quarantine.scrub} or by
    host churn): each pair covariance is computed over the
    pairwise-complete snapshots only, with column means taken over the
    present entries, and pairs with fewer than [min_pair_samples]
    overlapping snapshots are excluded from the system. On a complete
    matrix the guarded path is never entered and the result is
    bit-for-bit the historical estimator. *)

type method_ = Normal_equations | Dense_qr

type options = {
  method_ : method_;
  drop_negative : bool;  (** ignore equations with [Σ̂ᵢᵢ' < 0] (default true) *)
  clamp : bool;  (** clamp inferred variances at 0 (default true) *)
}

val default_options : options
(** [{ method_ = Normal_equations; drop_negative = true; clamp = true }] *)

val solve :
  ?options:options -> ?jobs:int ->
  a:Linalg.Sparse.t -> sigma_star:Linalg.Vector.t -> unit ->
  Linalg.Vector.t
(** The estimated link variance vector [v̂] (length = columns of [a]).
    Raises [Invalid_argument] on a length mismatch and [Failure] if the
    dense QR path meets a rank-deficient system. [jobs] parallelizes the
    normal-equation assembly and its Cholesky factorization (ignored by
    the dense QR path). *)

val estimate :
  ?options:options -> ?jobs:int ->
  r:Linalg.Sparse.t -> y:Linalg.Matrix.t -> unit ->
  Linalg.Vector.t
(** Convenience: builds [A] from [r], [Σ̂*] from the snapshot matrix [y]
    (eq. 7), and solves. With the default [Normal_equations] method this
    dispatches to {!estimate_streaming}, which is mathematically identical
    but never materializes [A]. *)

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

val estimate_streaming :
  ?jobs:int ->
  ?drop_negative:bool ->
  ?clamp:bool ->
  ?min_pair_samples:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t
(** Solves the normal equations of [Σ̂* = A v] in one pass over the path
    pairs, accumulating [AᵀA] and [AᵀΣ̂*] directly: pairs of paths that
    share no link contribute nothing and are skipped, so memory is
    O(n_c²) regardless of the n_p(n_p+1)/2 virtual rows. This is what
    makes the PlanetLab-scale systems (hundreds of thousands of path
    pairs) solvable in seconds, as reported in Section 6.4.

    The pair triangle is partitioned into balanced blocks processed by
    [jobs] domains (default [Parallel.Pool.default_jobs ()], so 1 on a
    single-core host); per-block partials are merged in a fixed order.
    The Gram matrix is then factored by {!Linalg.Cholesky}, whose rows
    are spread over the same [jobs] domains with a fixed per-entry
    operation order. The result is bit-for-bit identical for every
    [jobs] value.

    [min_pair_samples] (default 2) is the effective-sample-size guard of
    the pairwise-complete path: pairs with fewer overlapping snapshots
    are excluded from the normal equations. Raises [Invalid_argument]
    when it is below 2. *)

val estimate_streaming_ess :
  ?jobs:int ->
  ?drop_negative:bool ->
  ?clamp:bool ->
  ?min_pair_samples:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * ess
(** {!estimate_streaming} plus the effective-sample-size report; the
    returned variances are bit-for-bit those of {!estimate_streaming}.
    The [ess] integers are exact and identical for every [jobs] value. *)

(** {1 Matrix-free path}

    {!estimate_streaming} never materializes [A] but still forms the
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
          {!Topology.Partition.group_cols} of an AS partition): the
          operator is reordered into doubly-bordered block-diagonal form
          and each group's Gram block is Cholesky-factored independently
          ({!Linalg.Precond.block_jacobi}). The groups must partition the
          columns; the border group rides last. *)

type matfree_options = {
  tol : float;  (** CGLS relative tolerance on [‖Aᵀr‖] (default 1e-10) *)
  max_iter : int option;  (** iteration cap; [None] = [2 · n_c] *)
  mf_drop_negative : bool;  (** as [options.drop_negative] (default true) *)
  mf_clamp : bool;  (** as [options.clamp] (default true) *)
  mf_min_pair_samples : int;  (** as in {!estimate_streaming} (default 2) *)
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
    sampling sketch) in one cache-tiled sweep, then runs Jacobi-scaled
    CGLS against the implicit augmented operator. Solves the same
    least-squares problem as the streaming path over the same surviving
    rows, so on full-column-rank systems the minimizer agrees to solver
    tolerance. The [ess] accounting matches {!estimate_streaming_ess}
    pair for pair; the CGLS iteration count is added to the
    [lia_cgls_iterations] counter. Bit-for-bit identical for every
    [jobs] value. Raises [Invalid_argument] as {!estimate_streaming}. *)

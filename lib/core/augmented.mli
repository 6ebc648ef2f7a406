(** The augmented matrix [A] of Definition 1.

    For a routing matrix [R] with [n_p] rows, [A] has one row per ordered
    pair [(i, j)] with [i <= j]: the element-wise product [Ri∗ ⊗ Rj∗]
    (which is [Ri∗] itself when [i = j], since [R] is 0/1). Lemma 1 turns
    [Σ = R diag(v) Rᵀ] into the linear system [Σ* = A v], and Theorem 1
    shows [A] has full column rank for every valid topology — this is what
    makes the link variances identifiable. *)

val row_index : np:int -> i:int -> j:int -> int
(** Row of the pair [(i, j)], [0 <= i <= j < np], in the canonical
    upper-triangular order: all pairs [(0, j)], then [(1, j)], etc.
    Raises [Invalid_argument] on a bad pair. *)

val row_pair : np:int -> int -> int * int
(** Inverse of {!row_index}. *)

val row_count : np:int -> int
(** [np * (np+1) / 2]. *)

val build : ?jobs:int -> Linalg.Sparse.t -> Linalg.Sparse.t
(** The full augmented matrix, rows in {!row_index} order. For [n_p] paths
    this has [n_p (n_p + 1) / 2] rows; it stays cheap because rows are
    stored sparsely. Row generation is spread over [jobs] domains
    (default [Parallel.Pool.default_jobs ()]); each row is produced by
    exactly one block, so the result is identical for every [jobs]. *)

(** {1 Matrix-free operator}

    [build] stores one sparse row per path pair, which is fine to ~10³
    paths and hopeless at 10⁵ (5·10⁹ rows). The operator below computes
    the products [v ↦ A v] and [w ↦ Aᵀ w] straight from the routing
    matrix: a pair row's support is [Ri∗ ⊗ Rj∗], so each product streams
    over the pair triangle intersecting CSR rows on the fly — O(nnz of
    [R] work per band sweep, zero per-pair allocation, and memory that
    never exceeds the vectors themselves. This is what an iterative
    least-squares solver ({!Linalg.Lsqr.cgls}) needs to solve
    [Σ* = A v] at path counts where even forming [AᵀA] row-by-row is
    the bottleneck. *)

val matfree :
  ?jobs:int -> ?mask:Bytes.t -> Linalg.Sparse.t -> Linalg.Lsqr.operator
(** [matfree r] is the implicit augmented matrix of [r] as an
    {!Linalg.Lsqr.operator} ([rows = row_count], [cols = Sparse.cols r]).

    [mask], when given, must have {!row_count} bytes: rows whose byte is
    ['\000'] are treated as deleted — their product entries are 0 and
    their adjoint contributions are skipped. This is how the estimator
    expresses both the paper's drop-negative-covariance rule and the
    seeded row-sampling sketch without changing the operator shape.

    Both products sweep the pair triangle in cache-blocked 2-D tiles
    ({!Parallel.Chunk.tile_bounds}) over flat [Bigarray] CSR storage
    ({!Linalg.Sparse.to_csr}): the tile's [j]-band rows stay hot in
    cache while [i] walks its band, and no intersection is ever
    materialized. Tiles are distributed over [jobs] domains in blocks
    whose count depends only on the problem size; [apply] writes each
    output entry from exactly one tile and [apply_t] merges per-block
    private accumulators in block index order, so both products are
    bit-for-bit identical for every [jobs] value. *)

val matfree_column_counts :
  ?jobs:int -> ?mask:Bytes.t -> Linalg.Sparse.t -> float array
(** Diagonal of [AᵀA] for the (masked) implicit matrix: entry [e] counts
    the live pair rows whose support contains link [e]. Exact integer
    counts (in floats), one tiled sweep, jobs-invariant. This is the
    Gram diagonal Phase 1 hands {!Variance_estimator.preconditioner}
    for the Jacobi preconditioner ({!Linalg.Precond.jacobi}). *)

val gram_blocks :
  ?jobs:int ->
  ?mask:Bytes.t ->
  Linalg.Sparse.t ->
  groups:int array array ->
  Linalg.Matrix.t array
(** [gram_blocks r ~groups] builds, for each column group, the dense
    diagonal block [(AᵀA)_{g,g}] of the (masked) implicit augmented
    matrix's Gram — entry [(a, b)] counts the live pair rows whose
    support contains both group columns. Because the pair product [⊗]
    commutes with column restriction, each block is computed from the
    group-restricted routing rows alone, never touching the other
    columns: this is the per-AS factorization unit of the hierarchical
    solve path ({!Linalg.Precond.block_jacobi}, built by
    {!Variance_estimator.preconditioner}). Groups are processed in
    parallel over [jobs] domains, each writing only its own output slot;
    entries are exact integer counts, so results are bit-for-bit
    identical for every [jobs]. [mask] has the same semantics as in
    {!matfree}. *)

val sample_mask : np:int -> fraction:float -> seed:int -> Bytes.t
(** A deterministic row-sampling sketch mask: row [k] is kept iff a
    SplitMix64 hash of [(seed, k)] falls below [fraction]. The same
    [(np, fraction, seed)] always selects the same rows, on every
    platform. [fraction] outside [0, 1] raises [Invalid_argument];
    [fraction = 1.] keeps every row. *)

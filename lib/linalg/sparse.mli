(** Sparse 0/1 matrices stored by rows.

    Routing matrices [R] and the augmented matrix [A] of the paper are 0/1
    and extremely sparse (a row has one entry per link of a path). A row is
    the strictly increasing array of its nonzero column indices. This
    module provides exactly the operations the tomography pipeline needs:
    row-wise products (the [⊗] of Definition 1), matrix-vector products,
    dense conversion of column subsets, and least squares through the
    normal equations, which keeps the [n_p(n_p+1)/2 × n_c] system of eq. (8)
    tractable. *)

type row = int array
(** Strictly increasing column indices of the 1-entries. *)

type t

val create : cols:int -> row array -> t
(** [create ~cols rows] validates that every row is strictly increasing and
    within [0 .. cols-1]. Raises [Invalid_argument] otherwise. *)

val rows : t -> int

val cols : t -> int

val row : t -> int -> row
(** The row's support (do not mutate). *)

val nnz : t -> int
(** Number of stored ones. *)

val get : t -> int -> int -> bool
(** Membership test by binary search. *)

val row_product : row -> row -> row
(** Sorted intersection: the support of the element-wise product of two 0/1
    rows ([Ri∗ ⊗ Rj∗] in the paper). *)

val mul_vec : t -> Vector.t -> Vector.t
(** [mul_vec m x] is [m x]. *)

val tmul_vec : t -> Vector.t -> Vector.t
(** [tmul_vec m x] is [mᵀ x]. *)

val mul_transpose_vec : t -> Vector.t -> Vector.t
(** [mul_transpose_vec m x] is [mᵀ x] — the operator-facing name of
    {!tmul_vec}, paired with {!mul_vec} when a sparse matrix is handed to
    an iterative least-squares solver ({!Lsqr.of_sparse}). *)

type int1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat native-int storage for the packed row representation. *)

type csr = { ptr : int1; idx : int1 }
(** Classic compressed-sparse-row storage of the 0/1 support: row [i]'s
    column indices are [idx.{ptr.{i}} .. idx.{ptr.{i+1}-1}], strictly
    increasing. [ptr] has [rows + 1] entries; [idx] has {!nnz}. One flat
    allocation per array, so a kernel that streams many rows (the
    matrix-free augmented operator sweeps every path pair) walks
    contiguous memory instead of chasing a pointer per row. *)

val to_csr : t -> csr
(** Pack the rows into fresh flat storage, O(nnz). The result does not
    alias the sparse matrix. *)

val column_counts : t -> int array
(** For each column, how many rows contain it. *)

val to_dense : t -> Matrix.t

val dense_cols : t -> int array -> Matrix.t
(** [dense_cols m idx] is the dense [rows × |idx|] matrix of the selected
    columns (in the given order). *)

val select_rows : t -> int array -> t
(** Keeps the given rows in the given order (duplicates allowed). *)

val select_cols : t -> int array -> t
(** Keeps the given columns, renumbering them [0 .. |idx|-1] in order. Rows
    keep only their surviving entries (possibly becoming empty). *)

val permute_cols : t -> int array -> t
(** [permute_cols m order] reorders the columns: new column [k] is old
    column [order.(k)]. [order] must be a permutation of
    [0 .. cols-1] — unlike {!select_cols} nothing is dropped — so the
    result is the same matrix up to column numbering. This is the block
    reordering of the hierarchical solve path: with [order] the
    concatenation of an AS partition's groups, the permuted matrix has
    each group's columns contiguous (doubly-bordered block-diagonal
    form). Raises [Invalid_argument] if [order] is not a
    permutation. *)

val gram_block : t -> int array -> Matrix.t
(** [gram_block m idx] is the dense [|idx| × |idx|] diagonal block
    [(mᵀm)_{idx,idx}] of the Gram matrix — entry [(a,b)] counts the rows
    containing both column [idx.(a)] and column [idx.(b)]. O(nnz) plus
    O(per-row hits²); exact integer counts, deterministic. The
    per-group factor of {!Precond.block_jacobi}. *)

val transpose : t -> t

val cols_index : t -> row array
(** CSC-style column index, built in one O(nnz) pass: entry [j] is the
    strictly increasing array of the rows whose support contains column
    [j] (exactly the rows of {!transpose}). Lets a consumer scatter a
    column densely in O(nnz of the column) instead of probing all rows
    with {!get} — the [Core.Rank_reduction] sweep builds it once per
    scan. Entries are fresh arrays the caller may keep. *)

val normal_matrix : ?jobs:int -> t -> Matrix.t
(** [normal_matrix a] is the dense Gram matrix [aᵀ a], assembled row by row
    in O(nnz per row squared). Row blocks are scattered in parallel over
    [jobs] domains (default [Parallel.Pool.default_jobs ()]); since every
    entry is an exact integer count, the result is bit-for-bit identical
    for every [jobs]. *)

val normal_rhs : t -> Vector.t -> Vector.t
(** [normal_rhs a b] is [aᵀ b]. *)

val least_squares : ?ridge:float -> ?jobs:int -> t -> Vector.t -> Vector.t
(** Minimizes [‖a x − b‖₂] by solving the normal equations with a
    (regularized) Cholesky factorization. Suitable when [a] has full column
    rank, which Theorem 1 guarantees for augmented matrices of valid
    topologies. [jobs] is passed to {!normal_matrix} and
    {!Cholesky.factorize_regularized}; the result is bit-for-bit
    identical for every value. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

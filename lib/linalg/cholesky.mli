(** Cholesky factorization of symmetric positive-definite matrices.

    Used to solve the normal equations [AᵀA v = AᵀΣ*] that arise from the
    variance-identification system (eq. 8 of the paper) when the augmented
    matrix is too tall to factor densely. *)

exception Not_positive_definite

type t

val factorize : ?jobs:int -> Matrix.t -> t
(** [factorize m] computes the lower-triangular [L] with [m = L Lᵀ].
    Raises [Not_positive_definite] if a pivot is not strictly positive and
    [Invalid_argument] if [m] is not square. The strictly upper part of [m]
    is ignored (assumed symmetric).

    The factorization is blocked by column panels, and from order 128 up
    the rows below each panel are spread over [jobs] domains (default
    [Parallel.Pool.default_jobs ()]). Every entry subtracts its
    [l_ik l_jk] terms in ascending [k], as the textbook column loop does,
    so the factor is bit-for-bit identical for every [jobs] value. Each
    attempt runs in a [cholesky.factorize] trace span carrying [n] and
    [ridge], timed into [lia_cholesky_seconds]. *)

val factorize_regularized : ?jobs:int -> ?ridge:float -> Matrix.t -> t
(** Like {!factorize} but retries with [ridge * mean_diag] added to the
    diagonal on failure, multiplying the ridge by ten up to a bound; raises
    [Not_positive_definite] only if even the heavily regularized matrix
    fails. Default initial [ridge] is [1e-10]. Each retry counts into
    [lia_cholesky_ridge_retries_total]. *)

val lower : t -> Matrix.t

val solve_vec : t -> Vector.t -> Vector.t
(** [solve_vec f b] solves [L Lᵀ x = b]. *)

val solve : Matrix.t -> Vector.t -> Vector.t
(** One-shot [factorize] + [solve_vec]. *)

val log_det : t -> float
(** Log-determinant of the factored matrix. *)

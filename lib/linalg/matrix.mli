(** Dense row-major matrices of floats.

    The representation is a flat [float array] with explicit row and column
    counts, so rows can be scanned without per-row bounds checks and the
    whole payload stays in one allocation. Indices are 0-based. Operations
    raise [Invalid_argument] on dimension mismatches. *)

type t

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val of_arrays : float array array -> t
(** Builds from an array of rows; all rows must have the same length.
    An empty outer array yields the [0 × 0] matrix. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
(** [get] without bounds checks, for the inner loops of the factorizations
    ([Qr], [Cholesky]) where the enclosing loop already pins the indices.
    Out-of-range indices are undefined behaviour. *)

val unsafe_set : t -> int -> int -> float -> unit
(** [set] without bounds checks; same contract as {!unsafe_get}. *)

val unsafe_data : t -> float array
(** The row-major storage itself, not a copy: entry [(i, j)] sits at
    index [i * cols + j], and writes show through the matrix. For the
    dense kernels that fill or factor a matrix in place ([Cholesky], the
    Phase-1 Gram assembly). *)

val copy : t -> t

val row : t -> int -> Vector.t
(** [row m i] is a fresh copy of row [i]. *)

val col : t -> int -> Vector.t
(** [col m j] is a fresh copy of column [j]. *)

val transpose : t -> t

val add : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. *)

val mul_vec : t -> Vector.t -> Vector.t
(** [mul_vec m x] is [m x]. *)

val tmul_vec : t -> Vector.t -> Vector.t
(** [tmul_vec m x] is [mᵀ x] without forming the transpose. *)

val gram : t -> t
(** [gram m] is [mᵀ m] (symmetric positive semi-definite). *)

val diag : Vector.t -> t
(** Square matrix with the given diagonal. *)

val diagonal : t -> Vector.t
(** Diagonal of a matrix (length [min rows cols]). *)

val select_cols : t -> int array -> t
(** [select_cols m idx] keeps columns [idx] in the given order. *)

val approx_equal : ?tol:float -> t -> t -> bool

val is_symmetric : ?tol:float -> t -> bool

val pp : Format.formatter -> t -> unit

(** Incremental orthonormal column basis.

    Phase 2 of the LIA algorithm repeatedly asks whether a set of routing
    matrix columns is linearly independent while columns are removed in
    variance order. This module maintains an orthonormal basis of the span
    of the columns accepted so far (modified Gram–Schmidt with one
    re-orthogonalization pass), so each test costs O(dim × basis size)
    instead of a fresh factorization. *)

type t

val create : dim:int -> t
(** Empty basis for vectors of dimension [dim]. *)

val size : t -> int
(** Number of basis vectors, i.e. the rank of the accepted set. *)

val try_add : ?tol:float -> t -> Vector.t -> bool
(** [try_add b v] orthogonalizes [v] against the basis. If the residual has
    norm greater than [tol] (default [1e-8]) times the norm of [v], the
    normalized residual joins the basis and the call returns [true];
    otherwise the basis is unchanged and the call returns [false] ([v] is
    numerically in the span). The zero vector is always dependent. *)

val in_span : ?tol:float -> t -> Vector.t -> bool
(** Like {!try_add} but never modifies the basis. *)

val copy : t -> t

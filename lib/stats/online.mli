(** Online (single-pass) moment accumulators.

    Welford's algorithm for mean/variance and its bivariate extension for
    covariance. These are used to accumulate statistics over snapshot
    streams without storing them, and as a numerically stable reference for
    the batch covariance estimator of eq. (7). *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance (divides by [n-1]); 0 when fewer than two
    observations. *)

val variance_population : t -> float
(** Population variance (divides by [n]); 0 when empty. *)

val merge : t -> t -> t
(** Combine two accumulators (parallel Welford merge). *)

(** Bivariate accumulator for covariances. *)
module Cov : sig
  type t

  val create : unit -> t

  val add : t -> float -> float -> unit

  val covariance : t -> float
  (** Unbiased sample covariance; 0 when fewer than two pairs. *)

  val correlation : t -> float
  (** Pearson correlation; 0 when either marginal variance vanishes. *)
end

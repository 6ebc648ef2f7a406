(** Fixed-width histograms, used to bin the mean-vs-variance scatter of
    Figure 3 and to summarize loss-rate distributions in reports. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Raises [Invalid_argument] unless [lo < hi] and [bins > 0]. Values
    outside [lo, hi) are counted in saturated edge bins. *)

val add : t -> float -> unit

val count : t -> int
(** Total number of added values. *)

val bin_count : t -> int -> int
(** Number of values in bin [i]. *)

val bin_bounds : t -> int -> float * float
(** Lower and upper edge of bin [i]. *)

val normalized : t -> float array
(** Bin frequencies summing to 1 (all zeros when empty). *)

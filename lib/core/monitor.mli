(** Streaming LIA: a sliding window of snapshots with on-demand inference.

    Deployments collect snapshots continuously; this wrapper keeps the
    last [window] measurements and runs {!Lia.infer_checked} over them
    against any fresh snapshot — the operational mode of the PlanetLab
    experiment (learn on the previous [m] snapshots, diagnose the next).
    Every inference learns the variances from the window as it stands,
    so host churn can never serve a stale estimate. *)

type t

val create : r:Linalg.Sparse.t -> window:int -> t
(** Raises [Invalid_argument] when [window < 2]. *)

type observation =
  | Accepted  (** every measurement was a valid log success rate *)
  | Accepted_degraded of { missing : int; corrupt : int }
      (** buffered, but with that many cells neutralized to missing *)
  | Rejected of Quarantine.reason
      (** not buffered: too little of the snapshot was usable *)

val observation_to_string : observation -> string

val observe : ?max_missing_fraction:float -> t -> Linalg.Vector.t -> observation
(** Appends a snapshot measurement (log path transmission rates),
    evicting the oldest when the window is full. NaN cells are treated
    as missing, non-finite or positive log rates as corrupt (neutralized
    to missing after being counted). A snapshot whose invalid fraction
    exceeds [max_missing_fraction] (default 0.5) — or that is entirely
    invalid — is rejected and never enters the window, so a faulty
    collector cannot push the monitor's variance estimates off a cliff.
    Raises [Invalid_argument] on a length mismatch only. *)

val size : t -> int
(** Snapshots currently held. *)

val window_matrix : t -> Linalg.Matrix.t
(** The current window as a snapshot matrix (oldest row first). *)

val infer :
  ?min_pair_samples:int ->
  ?max_missing_fraction:float ->
  ?max_skipped_pair_fraction:float ->
  t ->
  y_now:Linalg.Vector.t ->
  Lia.checked
(** {!Lia.infer_checked} over the current window: never raises on data
    faults, returning a typed verdict instead; an under-filled window
    (fewer than 2 snapshots) is a [Refused] verdict, not an error. *)

val anomaly_model : t -> Anomaly.model
(** Per-path baseline over the current window. *)

(** Leveled structured logger.

    A record is a level, a message, and optional {!Field.t} fields. With
    no sink installed, records go to a shared stderr sink in the pretty
    format; a JSONL file sink gets one JSON object per line carrying a
    wall-clock [ts]. A logger whose level is [None] is disabled: {!log}
    is one branch. The pretty format is deliberately timestamp-free so
    cram tests and diff-based triage stay deterministic. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

val level_of_string : string -> (level option, string) result
(** Accepts [off|none|debug|info|warn|warning|error] (case-insensitive);
    [Ok None] means disabled. *)

type format = Pretty | Json

type t

val default : t
(** The process-wide logger. Starts disabled (level [None]). *)

val set_level : t -> level option -> unit

val level : t -> level option

val set_sink : t -> ?format:format -> Sink.t option -> unit
(** Install an output sink ([format] defaults to [Json]); [None] reverts
    to pretty stderr. *)

val info : ?fields:(string * Field.t) list -> t -> string -> unit
val warn : ?fields:(string * Field.t) list -> t -> string -> unit

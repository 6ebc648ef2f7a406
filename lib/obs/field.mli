(** Structured values attached to log records and trace-span arguments,
    with the JSON fragments the sinks need to serialize them. *)

type t = Str of string | Int of int | Float of float | Bool of bool

val json_string : string -> string
(** JSON string literal: the string escaped (quotes, backslashes, control
    characters) and wrapped in double quotes. *)

val to_text : t -> string
(** Unquoted rendering for the pretty sink. *)

val assoc_json : (string * t) list -> string
(** [{"k": v, ...}] in list order. *)

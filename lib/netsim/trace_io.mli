(** Plain-text serialization of measurement campaigns.

    Format:
    {v
    netloss-measurements 1 <snapshots> <paths>
    <y_0,0> <y_0,1> ... <y_0,np-1>
    ...
    v}
    One row per snapshot of log path transmission rates (or delays, for
    the delay extension — the format is unit-agnostic). Blank lines and
    [#] comments are ignored. *)

val to_string : Linalg.Matrix.t -> string

val of_string : ?path:string -> ?strict:bool -> string -> Linalg.Matrix.t
(** Raises [Failure] on malformed input with a one-line
    ["<path>:<line>: ..."] diagnostic (bad header, ragged row with the
    expected width, unparsable number, row-count mismatch, or a last
    line with no newline — the mark of a truncated file, since {!save}
    ends every line with one). [path] names the source in the message;
    default ["<string>"]. Line numbers refer to the original text,
    counting skipped blank/comment lines.

    With [strict] (the default) each value must also be a valid log
    success rate — finite and [<= 0] — so NaN, [inf], and positive
    entries (success rate above 1) are rejected with the same
    [file:line] diagnostics. Pass [~strict:false] for quarantine-aware
    ingest paths that repair such cells downstream ({!Core.Quarantine});
    permissive loading still rejects structurally malformed files. *)

val save : string -> Linalg.Matrix.t -> unit

val load : ?strict:bool -> string -> Linalg.Matrix.t
(** {!of_string} on the file's contents, with [~path] set to the file
    name. *)

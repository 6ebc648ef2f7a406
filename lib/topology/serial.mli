(** Plain-text serialization of testbeds.

    A stable line-oriented format so topologies can be generated once,
    shared, and re-used across tool invocations:

    {v
    netloss-testbed 1
    node <id> host|router <as-id>
    edge <src> <dst>
    beacon <id>
    dest <id>
    v}

    Lines may appear in any order after the header; blank lines and lines
    starting with [#] are ignored. *)

val to_string : Testbed.t -> string

val of_string : ?path:string -> string -> Testbed.t
(** Raises [Failure] on malformed input: ["<path>:<line>: ..."] for a bad
    line — including a last line with no newline, the mark of a truncated
    file, since {!save} ends every line with one — and ["<path>: ..."]
    for an invalid graph or testbed (missing header, sparse node ids,
    duplicate edge, beacon or destination that is not a node). [path]
    names the source in the message; default ["<string>"]. *)

val save : string -> Testbed.t -> unit
(** [save path testbed] writes the file atomically (via a temp file in the
    same directory). *)

val load : string -> Testbed.t
(** {!of_string} on the file's contents, with [~path] set to the file
    name. Raises [Sys_error] if unreadable, [Failure] if malformed. *)

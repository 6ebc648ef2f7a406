(** The one-line kernel probe used by the instrumented hot layers. *)

val kernel :
  ?args:(string * Field.t) list ->
  hist:Metrics.histogram ->
  string ->
  (unit -> 'a) ->
  'a
(** [kernel ~hist name f] runs [f] inside a {!Trace.with_span} span named
    [name] and records its duration into [hist] (seconds). With tracing
    and metrics both disabled this costs two branches. *)

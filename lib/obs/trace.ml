(* The one event producer. Every probe is an [emit] or a [with_span], and
   the three outputs read the same record:

   - the flight recorder (Recorder.default) keeps every event while it is
     enabled;
   - the trace sink gets the Chrome/Perfetto "JSON array format" written
     incrementally: the first line is "[", every event line is a complete
     JSON object followed by a comma, and the closing "]" is omitted —
     the loaders accept the unterminated form, which lets us append from
     several domains and survive a killed process. Spans are "X"
     (complete) events carrying ts/dur in microseconds; nesting is
     reconstructed by the viewer from containment of [ts, ts+dur) ranges
     within one tid, and tid is the raising domain's id, so pool-worker
     spans land on their own rows. Instants are "i" events;
   - the convergence sink gets each solver_iter event as one flat object
     led by the solver name, for plotting convergence curves offline.

   Spans carry the GC words they allocated (minor + major - promoted, by
   Gc.quick_stat delta on the running domain) in both the recorder's
   span_end and the trace's "X" args; the report profiler's per-phase
   allocation column is built from them. *)

let sink : Sink.t option ref = ref None

let convergence : Sink.t option ref = ref None

let replace cell s =
  Option.iter Sink.close !cell;
  cell := s

let set_sink s =
  replace sink s;
  Option.iter (fun s -> Sink.write s "[") s

let set_convergence_sink s = replace convergence s

let close () =
  set_sink None;
  set_convergence_sink None

let enabled ?kind () =
  match kind with
  | None -> !sink <> None
  | Some kind -> (
      Recorder.enabled Recorder.default
      ||
      match kind with
      | "instant" -> !sink <> None
      | "solver_iter" -> !convergence <> None
      | _ -> false)

let chrome sink ~name ~ph ~ts_us ~dur_us ~args =
  let b = Buffer.create 160 in
  Printf.bprintf b
    "{\"name\": %s, \"cat\": \"lia\", \"ph\": \"%c\", \"ts\": %Ld, \"pid\": 0, \
     \"tid\": %d"
    (Field.json_string name) ph ts_us
    (Domain.self () :> int);
  (match dur_us with
  | Some d -> Printf.bprintf b ", \"dur\": %Ld" d
  | None -> ());
  if args <> [] then Printf.bprintf b ", \"args\": %s" (Field.assoc_json args);
  Buffer.add_string b "},";
  Sink.write sink (Buffer.contents b)

let emit ?(fields = []) ~kind name =
  Recorder.record Recorder.default ~fields ~kind name;
  match (kind, !sink, !convergence) with
  | "instant", Some s, _ ->
      chrome s ~name ~ph:'i' ~ts_us:(Clock.now_us ()) ~dur_us:None ~args:fields
  | "solver_iter", _, Some s ->
      Sink.write s (Field.assoc_json (("solver", Field.Str name) :: fields))
  | _ -> ()

let with_span ?(args = []) name f =
  let recording = Recorder.enabled Recorder.default in
  match !sink with
  | None when not recording -> f ()
  | _ ->
      let t0 = Clock.now_ns () in
      let w0 = Clock.alloc_words () in
      if recording then
        Recorder.record Recorder.default ~fields:args ~kind:"span_begin" name;
      Fun.protect
        ~finally:(fun () ->
          let t1 = Clock.now_ns () in
          let dur_us = Int64.div (Int64.sub t1 t0) 1_000L in
          let alloc =
            ("alloc_words", Field.Int (int_of_float (Clock.alloc_words () -. w0)))
          in
          if recording then
            Recorder.record Recorder.default ~kind:"span_end" name
              ~fields:(args @ [ ("dur_us", Field.Int (Int64.to_int dur_us)); alloc ]);
          match !sink with
          | Some s ->
              chrome s ~name ~ph:'X' ~ts_us:(Int64.div t0 1_000L)
                ~dur_us:(Some dur_us) ~args:(args @ [ alloc ])
          | None -> ())
        f

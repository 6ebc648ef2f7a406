(* In-memory layer spans for the traced run.

   Each span records its name, start and end, the span that encloses it
   and the run/rep it belongs to. Nothing is written while the benchmark
   measures: [write] emits the collected spans at exit as Chrome
   trace-event JSONL in the format [Obs.Trace] produces, so
   [lia_cli report --trace FILE] renders them. Disabled, [run] is the
   bare thunk call. *)

type span = {
  id : int;
  parent : int;  (** 0 at the top level *)
  name : string;
  run : int;
  rep : int;
  t0 : int64;  (** ns, [Obs.Clock] *)
  t1 : int64;
  alloc_words : float;  (** allocated on the calling domain *)
}

type t = {
  mutable enabled : bool;
  run_id : int;
  mutable rep : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** most recent first *)
}

let create ~run_id = { enabled = false; run_id; rep = 0; next = 1; stack = []; spans = [] }

(* words allocated by this domain so far, as [Obs.Trace] counts them *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let run t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let w0 = alloc_words () in
    let t0 = Obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Obs.Clock.now_ns () in
        let alloc_words = alloc_words () -. w0 in
        t.stack <- List.tl t.stack;
        t.spans <-
          { id; parent; name; run = t.run_id; rep = t.rep; t0; t1; alloc_words }
          :: t.spans)
      f
  end

let seconds s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

(* Spans of one rep, in start order. *)
let of_rep t rep = List.rev (List.filter (fun (s : span) -> s.rep = rep) t.spans)

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": %Ld, \
             \"dur\": %Ld, \"pid\": 0, \"tid\": 0, \"args\": %s},\n"
            (Obs.Field.json_string s.name) (Int64.div s.t0 1000L)
            (Int64.div (Int64.sub s.t1 s.t0) 1000L)
            (Obs.Field.assoc_json
               [
                 ("run", Obs.Field.Int s.run);
                 ("rep", Obs.Field.Int s.rep);
                 ("span", Obs.Field.Int s.id);
                 ("parent", Obs.Field.Int s.parent);
               ]))
        (List.rev t.spans))

(* Tests for lib/obs: histogram bucket-edge semantics, deterministic
   counter merges under the domain pool, well-formed trace JSONL from pool
   workers, and the contract that enabling telemetry never changes the
   bits the inference computes. *)

module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Pool = Parallel.Pool

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal v1 v2 =
  Array.length v1 = Array.length v2 && Array.for_all2 bits_equal v1 v2

(* --- histograms -------------------------------------------------------- *)

let test_histogram_bucket_edges () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~buckets:[| 1.; 2.; 4. |] "h_seconds" in
  (* Prometheus inclusive-le: an observation equal to an edge lands in
     that edge's bucket; above the last edge goes to the +Inf overflow *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.5 ];
  Alcotest.(check (array int))
    "per-bucket counts" [| 2; 2; 1; 1 |]
    (Obs.Metrics.histogram_counts h);
  Alcotest.(check int) "total count" 6 (Obs.Metrics.histogram_count h);
  Alcotest.(check bool) "sum" true
    (abs_float (Obs.Metrics.histogram_sum h -. 13.5) < 1e-12)

let test_histogram_rejects_bad_buckets () =
  let reg = Obs.Metrics.create () in
  Alcotest.check_raises "non-increasing edges"
    (Invalid_argument
       "Obs.Metrics.histogram: bucket edges must be strictly increasing")
    (fun () -> ignore (Obs.Metrics.histogram reg ~buckets:[| 1.; 1. |] "bad"))

let test_registration_idempotent () =
  let reg = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter reg "shared_total" in
  let c2 = Obs.Metrics.counter reg "shared_total" in
  Obs.Metrics.incr c1;
  Obs.Metrics.incr c2;
  Alcotest.(check int) "same underlying cells" 2 (Obs.Metrics.counter_value c1);
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument
       "Obs.Metrics: \"shared_total\" registered with another type")
    (fun () -> ignore (Obs.Metrics.gauge reg "shared_total"))

let test_disabled_probes_are_inert () =
  let reg = Obs.Metrics.create ~on:false () in
  let c = Obs.Metrics.counter reg "quiet_total" in
  let h = Obs.Metrics.histogram reg "quiet_seconds" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 1.0;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.histogram_count h)

(* --- deterministic merges under the pool ------------------------------- *)

let test_counter_merge_across_jobs () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "work_total" in
  let h = Obs.Metrics.histogram reg "work_seconds" in
  List.iter
    (fun jobs ->
      Obs.Metrics.reset reg;
      Pool.parallel_for ~jobs ~min_block:16 ~n:5000 (fun i ->
          Obs.Metrics.incr c;
          if i land 1023 = 0 then Obs.Metrics.observe h 1e-4);
      (* sharded integer cells merge by summation: the merged value is
         independent of which domain ran which block *)
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d counter" jobs)
        5000
        (Obs.Metrics.counter_value c);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d histogram count" jobs)
        5
        (Obs.Metrics.histogram_count h))
    [ 1; 2; 4 ]

(* --- trace JSONL from pool workers ------------------------------------- *)

(* minimal structural validity: a single-line JSON object, braces and
   brackets balanced outside strings, quotes closed, escapes consumed *)
let json_object_well_formed line =
  let n = String.length line in
  let s =
    if n > 0 && line.[n - 1] = ',' then String.sub line 0 (n - 1) else line
  in
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then false
  else begin
    let depth = ref 0 and in_str = ref false and esc = ref false in
    let ok = ref true in
    String.iter
      (fun ch ->
        if !esc then esc := false
        else if !in_str then begin
          match ch with
          | '\\' -> esc := true
          | '"' -> in_str := false
          | _ -> ()
        end
        else
          match ch with
          | '"' -> in_str := true
          | '{' | '[' -> incr depth
          | '}' | ']' ->
              decr depth;
              if !depth < 0 then ok := false
          | _ -> ())
      s;
    !ok && !depth = 0 && (not !in_str) && not !esc
  end

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* pull an integer field out of one event line; enough of a parser for
   the fixed shapes Trace writes *)
let field_int line key =
  let marker = Printf.sprintf "\"%s\": " key in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length line then
      Alcotest.failf "field %s missing in %s" key line
    else if String.sub line i ml = marker then i + ml
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < String.length line
    && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let test_pool_spans_well_formed_jsonl () =
  let sink, lines = Obs.Sink.memory () in
  Obs.Trace.set_sink (Some sink);
  Obs.Trace.with_span "outer" (fun () ->
      Pool.for_blocks ~jobs:2 4 (fun b ->
          Obs.Trace.with_span "inner"
            ~args:[ ("block", Obs.Field.Int b) ]
            (fun () -> ignore (Sys.opaque_identity (b * b)))));
  Obs.Trace.close ();
  let ls = lines () in
  (match ls with
  | opening :: _ -> Alcotest.(check string) "array opening" "[" opening
  | [] -> Alcotest.fail "empty trace");
  let events = List.tl ls in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "well-formed event %s" l)
        true (json_object_well_formed l))
    events;
  let named name = List.filter (contains ~needle:("\"name\": \"" ^ name ^ "\"")) events in
  (* 1 outer + 4 inner + 4 pool.task wrappers *)
  Alcotest.(check int) "one outer span" 1 (List.length (named "outer"));
  Alcotest.(check int) "inner span per block" 4 (List.length (named "inner"));
  Alcotest.(check int) "pool.task span per block" 4
    (List.length (named "pool.task"));
  (* nesting: whatever domain each inner span ran on, its time range is
     contained in the outer span's range *)
  let outer = List.hd (named "outer") in
  let o_ts = field_int outer "ts" and o_dur = field_int outer "dur" in
  List.iter
    (fun l ->
      let ts = field_int l "ts" and dur = field_int l "dur" in
      Alcotest.(check bool) "starts inside outer" true (ts >= o_ts);
      Alcotest.(check bool) "ends inside outer" true
        (ts + dur <= o_ts + o_dur))
    (named "inner")

(* --- telemetry never changes the inference ----------------------------- *)

let random_campaign seed =
  let rng = Rng.create seed in
  let n = 120 + (seed mod 80) in
  let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:13 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:12 in
  (r, y_learn, target.Netsim.Snapshot.y)

let prop_inference_bits_unchanged_by_obs =
  QCheck.Test.make ~count:4
    ~name:"inference bit-identical with telemetry enabled vs disabled"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, y_now = random_campaign seed in
      let reg = Obs.Metrics.default in
      Obs.Metrics.disable reg;
      let off = Generators.infer ~r ~y_learn ~y_now () in
      Obs.Metrics.reset reg;
      Obs.Metrics.enable reg;
      let trace_sink, _ = Obs.Sink.memory () in
      Obs.Trace.set_sink (Some trace_sink);
      let log_sink, _ = Obs.Sink.memory () in
      Obs.Logger.set_sink Obs.Logger.default (Some log_sink);
      Obs.Logger.set_level Obs.Logger.default (Some Obs.Logger.Debug);
      let on = Generators.infer ~r ~y_learn ~y_now () in
      Obs.Logger.set_level Obs.Logger.default None;
      Obs.Logger.set_sink Obs.Logger.default None;
      Obs.Trace.close ();
      Obs.Metrics.disable reg;
      Obs.Metrics.reset reg;
      vec_bits_equal off.Core.Lia.loss_rates on.Core.Lia.loss_rates
      && off.Core.Lia.kept = on.Core.Lia.kept)

(* --- histogram quantiles ------------------------------------------------ *)

let test_histogram_quantile () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~buckets:[| 1.; 2.; 4. |] "q_seconds" in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Obs.Metrics.histogram_quantile h 0.5));
  (* 10 observations in (0,1], 10 in (1,2]: the median sits exactly at
     the shared edge, p75 interpolates halfway into the second bucket *)
  for _ = 1 to 10 do
    Obs.Metrics.observe h 0.5;
    Obs.Metrics.observe h 1.5
  done;
  let close msg want got = Alcotest.(check bool) msg true (abs_float (want -. got) < 1e-9) in
  close "p50 at bucket edge" 1.0 (Obs.Metrics.histogram_quantile h 0.5);
  close "p75 interpolated" 1.5 (Obs.Metrics.histogram_quantile h 0.75);
  close "p100 upper edge" 2.0 (Obs.Metrics.histogram_quantile h 1.0);
  (* overflow bucket clamps to the largest finite edge *)
  Obs.Metrics.observe h 100.;
  close "overflow clamped" 4.0 (Obs.Metrics.histogram_quantile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Obs.Metrics.histogram_quantile: q outside [0, 1]")
    (fun () -> ignore (Obs.Metrics.histogram_quantile h 1.5))

(* --- flight recorder ---------------------------------------------------- *)

let test_recorder_drop_oldest () =
  let rec_ = Obs.Recorder.create ~capacity:4 () in
  Obs.Recorder.enable rec_;
  for i = 0 to 9 do
    Obs.Recorder.record rec_ ~kind:"instant"
      ~fields:[ ("i", Obs.Field.Int i) ]
      "tick"
  done;
  Alcotest.(check int) "recorded counts everything" 10
    (Obs.Recorder.recorded rec_);
  Alcotest.(check int) "dropped the overflow" 6 (Obs.Recorder.dropped rec_);
  let evs = Obs.Recorder.events rec_ in
  Alcotest.(check int) "kept exactly capacity" 4 (List.length evs);
  (* drop-oldest: survivors are the last 4, in order *)
  Alcotest.(check (list int))
    "newest survive in order" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.Recorder.seq) evs);
  Obs.Recorder.reset rec_;
  Alcotest.(check int) "reset empties" 0
    (List.length (Obs.Recorder.events rec_))

let prop_recorder_ring_semantics =
  QCheck.Test.make ~count:50 ~name:"recorder ring keeps the newest tail"
    QCheck.(pair (int_range 1 32) (int_range 0 100))
    (fun (capacity, n) ->
      let rec_ = Obs.Recorder.create ~capacity () in
      Obs.Recorder.enable rec_;
      for i = 0 to n - 1 do
        Obs.Recorder.record rec_ ~kind:"instant"
          ~fields:[ ("i", Obs.Field.Int i) ]
          "tick"
      done;
      let evs = Obs.Recorder.events rec_ in
      let kept = min n capacity in
      Obs.Recorder.recorded rec_ = n
      && Obs.Recorder.dropped rec_ = max 0 (n - capacity)
      && List.length evs = kept
      && List.map (fun e -> e.Obs.Recorder.seq) evs
         = List.init kept (fun k -> n - kept + k))

let prop_recorder_merge_jobs_invariant =
  QCheck.Test.make ~count:20
    ~name:"recorder event multiset invariant across jobs"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let runs =
        List.map
          (fun jobs ->
            let rec_ = Obs.Recorder.create () in
            Obs.Recorder.enable rec_;
            Pool.parallel_for ~jobs ~min_block:16 ~n:(200 + (seed mod 100))
              (fun i ->
                Obs.Recorder.record rec_ ~kind:"work"
                  ~fields:[ ("i", Obs.Field.Int i) ]
                  "block");
            Obs.Recorder.events rec_
            |> List.map (fun e ->
                   ( e.Obs.Recorder.kind,
                     e.Obs.Recorder.name,
                     e.Obs.Recorder.fields ))
            |> List.sort compare)
          [ 1; 2; 4 ]
      in
      match runs with
      | [ a; b; c ] -> a = b && a = c
      | _ -> false)

(* the recorder-off vs recorder-on bit-identity contract, exercised
   through the cgls path so the per-iteration solver probes fire *)
let prop_inference_bits_unchanged_by_recorder =
  QCheck.Test.make ~count:4
    ~name:"inference bit-identical with recorder + convergence on vs off"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, y_now = random_campaign seed in
      let solver =
        Core.Lia.Cgls
          {
            tol = 1e-10;
            max_iter = None;
            precond = Core.Variance_estimator.Pc_jacobi;
          }
      in
      Obs.Recorder.disable Obs.Recorder.default;
      let off = Generators.infer ~solver ~r ~y_learn ~y_now () in
      Obs.Recorder.enable Obs.Recorder.default;
      let conv_sink, _ = Obs.Sink.memory () in
      Obs.Trace.set_convergence_sink (Some conv_sink);
      let on = Generators.infer ~solver ~r ~y_learn ~y_now () in
      Obs.Trace.set_convergence_sink None;
      Obs.Recorder.disable Obs.Recorder.default;
      Obs.Recorder.reset Obs.Recorder.default;
      vec_bits_equal off.Core.Lia.loss_rates on.Core.Lia.loss_rates
      && off.Core.Lia.kept = on.Core.Lia.kept)

(* --- convergence stream ------------------------------------------------- *)

(* every line is one well-formed JSON object; iteration indices within a
   solve id are strictly increasing from 1 *)
let prop_convergence_jsonl_well_formed =
  QCheck.Test.make ~count:10 ~name:"convergence JSONL well-formed"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, y_now = random_campaign seed in
      let solver =
        Core.Lia.Cgls
          {
            tol = 1e-10;
            max_iter = None;
            precond = Core.Variance_estimator.Pc_none;
          }
      in
      let sink, lines = Obs.Sink.memory () in
      Obs.Trace.set_convergence_sink (Some sink);
      ignore (Core.Lia.infer_checked ~solver ~r ~y_learn ~y_now ());
      Obs.Trace.set_convergence_sink None;
      let ls = lines () in
      let last_iter = Hashtbl.create 8 in
      ls <> []
      && List.for_all
           (fun line ->
             json_object_well_formed line
             &&
             match Obs.Json.of_string_opt line with
             | None -> false
             | Some json -> (
                 let get k f = Option.bind (Obs.Json.member k json) f in
                 match
                   ( get "solver" Obs.Json.to_string_opt,
                     get "solve" Obs.Json.to_int_opt,
                     get "iteration" Obs.Json.to_int_opt,
                     get "relres" Obs.Json.to_float_opt )
                 with
                 | Some _, Some solve, Some iteration, Some relres ->
                     let prev =
                       Option.value ~default:0 (Hashtbl.find_opt last_iter solve)
                     in
                     Hashtbl.replace last_iter solve iteration;
                     iteration = prev + 1 && relres >= 0.
                 | _ -> false))
           ls)

(* --- report rendering --------------------------------------------------- *)

let test_report_renders_sections () =
  let recorder =
    String.concat "\n"
      [
        {|{"kind": "recorder_dump", "reason": "nonconvergence", "events": 4, "dropped": 0, "capacity": 4096}|};
        {|{"kind": "span_end", "name": "plan.solve", "domain": 0, "seq": 1, "ts_us": 10, "args": {"dur_us": 250, "alloc_words": 1000}}|};
        {|{"kind": "solver_iter", "name": "cgls", "domain": 0, "seq": 2, "ts_us": 11, "args": {"solve": 1, "iteration": 1, "relres": 0.25, "phase": "phase2", "precond": "none", "warm": false}}|};
        {|{"kind": "solver_done", "name": "cgls", "domain": 0, "seq": 3, "ts_us": 12, "args": {"solve": 1, "iterations": 1, "relres": 0.25, "converged": false, "phase": "phase2", "precond": "none", "warm": false}}|};
        {|{"kind": "verdict", "name": "lia.verdict", "domain": 0, "seq": 4, "ts_us": 13, "args": {"health": "degraded", "summary": "degraded (kept 8/10)"}}|};
      ]
  in
  let out = Obs.Report.render ~recorder () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %S" needle) true
        (contains ~needle out))
    [
      "reason=nonconvergence";
      "Per-phase profile";
      "plan.solve";
      "Convergence";
      "phase2";
      "2.500e-01";
      "NO";
      "Residual tail";
      "verdict: degraded";
    ];
  Alcotest.(check bool) "empty inputs say so" true
    (contains ~needle:"no telemetry"
       (Obs.Report.render ~recorder:"not json at all" ()))

(* --- one event record, three outputs ------------------------------------ *)

(* a cgls run with the recorder, the trace and the convergence stream all
   on: each output is a view of the same events *)
let test_outputs_agree () =
  let r, y_learn, y_now = random_campaign 17 in
  let solver =
    Core.Lia.Cgls
      { tol = 1e-10; max_iter = None; precond = Core.Variance_estimator.Pc_jacobi }
  in
  let rcd = Obs.Recorder.default in
  Obs.Recorder.reset rcd;
  Obs.Recorder.enable rcd;
  let trace_sink, trace_lines = Obs.Sink.memory () in
  let conv_sink, conv_lines = Obs.Sink.memory () in
  Obs.Trace.set_sink (Some trace_sink);
  Obs.Trace.set_convergence_sink (Some conv_sink);
  ignore (Core.Lia.infer_checked ~solver ~r ~y_learn ~y_now ());
  Obs.Trace.close ();
  Obs.Recorder.disable rcd;
  let events = Obs.Recorder.events rcd in
  let dump_sink, dump_lines = Obs.Sink.memory () in
  Obs.Recorder.dump rcd ~reason:"test" dump_sink;
  Obs.Recorder.reset rcd;
  let of_kind kind = List.filter (fun e -> e.Obs.Recorder.kind = kind) events in
  let sorted = List.sort compare in
  Alcotest.(check bool) "the run iterated" true (conv_lines () <> []);
  Alcotest.(check (list string))
    "convergence lines are the recorder's solver_iter events"
    (sorted (conv_lines ()))
    (sorted
       (List.map
          (fun e ->
            Obs.Field.assoc_json
              (("solver", Obs.Field.Str e.Obs.Recorder.name) :: e.Obs.Recorder.fields))
          (of_kind "solver_iter")));
  (* the convergence table without its converged column, which only
     solver_done events fill *)
  let table page =
    let rec after = function
      | "Convergence" :: _ :: _ :: rows -> rows
      | _ :: tl -> after tl
      | [] -> []
    in
    let rec rows = function
      | "" :: _ | [] -> []
      | row :: tl ->
          (match List.filter (( <> ) "") (String.split_on_char ' ' row) with
          | cols when List.length cols = 8 -> List.filteri (fun i _ -> i < 7) cols
          | cols -> cols)
          :: rows tl
    in
    rows (after (String.split_on_char '\n' page))
  in
  let from_recorder =
    table (Obs.Report.render ~recorder:(String.concat "\n" (dump_lines ())) ())
  in
  Alcotest.(check bool) "recorder table has rows" true (List.length from_recorder > 1);
  Alcotest.(check (list (list string)))
    "report rows agree across recorder and convergence" from_recorder
    (table (Obs.Report.render ~convergence:(String.concat "\n" (conv_lines ())) ()));
  let trace_spans =
    List.filter_map
      (fun line ->
        let line = String.sub line 0 (max 0 (String.length line - 1)) in
        match Obs.Json.of_string_opt line with
        | Some json when Obs.Json.member "ph" json = Some (Obs.Json.Str "X") ->
            Option.bind (Obs.Json.member "name" json) Obs.Json.to_string_opt
        | _ -> None)
      (trace_lines ())
  in
  Alcotest.(check bool) "the run traced spans" true (trace_spans <> []);
  Alcotest.(check (list string))
    "trace spans are the recorder's span_end events" (sorted trace_spans)
    (sorted (List.map (fun e -> e.Obs.Recorder.name) (of_kind "span_end")))

(* --- metric naming convention ------------------------------------------- *)

let test_metric_names_conform () =
  (* force every metric-registering module to link so its top-level
     registrations land in the default registry before the scan *)
  let touch : 'a. 'a -> unit = fun x -> ignore (Sys.opaque_identity x) in
  touch Core.Monitor.create;
  touch Core.Quarantine.scrub;
  touch Core.Plan.make;
  touch Core.Covariance.sigma_star;
  touch Core.Augmented.build;
  touch Core.Variance_estimator.estimate_streaming_ess;
  touch Linalg.Conjugate_gradient.note_nonconvergence;
  touch Linalg.Cholesky.factorize;
  touch Pool.get;
  let prefixes = [ "lia_"; "pool_"; "plan_" ] in
  let conforms name =
    List.exists
      (fun p ->
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p)
      prefixes
  in
  let offenders =
    List.filter
      (fun n -> not (conforms n))
      (Obs.Metrics.names Obs.Metrics.default)
  in
  Alcotest.(check (list string))
    "every registered metric is lia_/pool_/plan_-prefixed" [] offenders

(* --- dump format ------------------------------------------------------- *)

let test_dump_prometheus_shape () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"things done" "things_total" in
  let h = Obs.Metrics.histogram reg ~buckets:[| 0.1; 1. |] "lat_seconds" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 0.05;
  Obs.Metrics.observe h 5.0;
  let d = Obs.Metrics.dump reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "dump has %S" needle) true
        (contains ~needle d))
    [
      "# HELP things_total things done";
      "# TYPE things_total counter";
      "things_total 1";
      "# TYPE lat_seconds histogram";
      "lat_seconds_bucket{le=\"0.1\"} 1";
      (* cumulative: +Inf counts every observation *)
      "lat_seconds_bucket{le=\"+Inf\"} 2";
      "lat_seconds_count 2";
    ]

let metrics_tests =
  [
    Alcotest.test_case "histogram: inclusive bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "histogram: bad buckets rejected" `Quick
      test_histogram_rejects_bad_buckets;
    Alcotest.test_case "registration idempotent by name" `Quick
      test_registration_idempotent;
    Alcotest.test_case "disabled probes are inert" `Quick
      test_disabled_probes_are_inert;
    Alcotest.test_case "counter merge jobs-invariant" `Quick
      test_counter_merge_across_jobs;
    Alcotest.test_case "dump: Prometheus text shape" `Quick
      test_dump_prometheus_shape;
    Alcotest.test_case "histogram quantile interpolation" `Quick
      test_histogram_quantile;
    Alcotest.test_case "metric names conform to lia_/pool_/plan_" `Quick
      test_metric_names_conform;
  ]

let trace_tests =
  [
    Alcotest.test_case "pool spans emit well-formed JSONL" `Quick
      test_pool_spans_well_formed_jsonl;
  ]

let recorder_tests =
  Alcotest.test_case "ring drops oldest, keeps newest" `Quick
    test_recorder_drop_oldest
  :: Alcotest.test_case "report renders all sections" `Quick
       test_report_renders_sections
  :: Alcotest.test_case "recorder, trace and convergence agree" `Quick
       test_outputs_agree
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_recorder_ring_semantics;
         prop_recorder_merge_jobs_invariant;
         prop_convergence_jsonl_well_formed;
       ]

let invariance_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_inference_bits_unchanged_by_obs;
      prop_inference_bits_unchanged_by_recorder;
    ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("trace", trace_tests);
      ("recorder", recorder_tests);
      ("invariance", invariance_tests);
    ]

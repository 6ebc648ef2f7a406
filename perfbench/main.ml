(* End-to-end and per-layer benchmark of the [lia_cli infer] pipeline.

   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) time every layer call from this file's spans and report
   the per-layer metrics. The last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}; a failed output check
   makes the process exit 1 after printing it. --workload all runs every
   workload in turn; --self-check runs all of them at tiny sizes. *)

module Matrix = Linalg.Matrix
module Plan = Core.Plan
module VE = Core.Variance_estimator

let jobs = 2

(* --- metric catalogue ---------------------------------------------------- *)

type value = Float of float | Count of int

(* (name, unit); the direction and bounds live in BENCHMARK.json, which
   the self-check compares against this list *)
let end_to_end =
  [
    ("run_s", "s");
    ("setup_s", "s");
    ("serve_snapshots_per_s", "1/s");
    ("peak_heap_mb", "MB");
    ("dr", "fraction");
  ]

let per_layer =
  [
    ("parse.testbed_s", "s");
    ("parse.meas_s", "s");
    ("parse.meas_mb_per_s", "MB/s");
    ("routing.s", "s");
    ("routing.vlinks", "count");
    ("partition.s", "s");
    ("partition.groups", "count");
    ("quarantine.s", "s");
    ("quarantine.rows_quarantined", "count");
    ("quarantine.cells_scrubbed", "count");
    ("phase1.s", "s");
    ("phase1.pairs_total", "count");
    ("phase1.pairs_used_frac", "fraction");
    ("phase1.cgls_iters", "count");
    ("phase1.alloc_mwords", "Mwords");
    ("phase1.speedup_j2", "x");
    ("phase1.alt_solver_s", "s");
    ("rank.s", "s");
    ("rank.kept", "count");
    ("rank.removed", "count");
    ("plan.make_s", "s");
    ("plan.factor_s", "s");
    ("plan.rank", "count");
    ("solve.batch_s", "s");
    ("solve.per_snapshot_ms", "ms");
    ("solve.p50_ms", "ms");
    ("solve.p99_ms", "ms");
    ("solve.cgls_iters", "count");
    ("solve.speedup_j2", "x");
    ("report.s", "s");
    ("pool.busy_frac", "fraction");
    ("pool.queue_wait_p95_ms", "ms");
    ("pool.tasks", "count");
    ("pool.fallbacks", "count");
    ("gc.alloc_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("unattributed.s", "s");
    ("trace.overhead_frac", "fraction");
    ("host.cpus", "count");
  ]

(* --- small helpers ------------------------------------------------------- *)

let now = Obs.Clock.now_ns

let since t0 = Obs.Clock.seconds_since t0

let timed f =
  let t0 = now () in
  let x = f () in
  (x, since t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank quantile of a sorted array *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Runs [prog args], stdout into [stdout_file] (or inherited), and waits. *)
let spawn ?stdout_file prog args =
  let out =
    match stdout_file with
    | Some f -> Unix.openfile f [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
    | None -> Unix.stdout
  in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out Unix.stderr
  in
  if stdout_file <> None then Unix.close out;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128

(* --- inputs --------------------------------------------------------------- *)

(* Bumped whenever the generated files or the truth's layout change, so
   inputs cached by an older benchmark are not reused. *)
let inputs_version = 2

(* Generated in a child process, so the generator's heap never shows in
   [peak_heap_mb]; reused when present (inputs are a pure function of
   the workload's definition and the seed, which name the directory). *)
let ensure_inputs ~work ~tiny (w : Workload.t) ~seed =
  let key =
    String.sub (Digest.to_hex (Digest.string (Marshal.to_string (w, inputs_version) []))) 0 8
  in
  let dir =
    Filename.concat work (Printf.sprintf "inputs/%s-%s-s%d" w.Workload.name key seed)
  in
  if not (Sys.file_exists (Workload.truth_file dir)) then begin
    let tmp = Printf.sprintf "%s.tmp%d" dir (Unix.getpid ()) in
    rm_rf tmp;
    mkdir_p tmp;
    let code =
      spawn Sys.executable_name
        ([ "--gen"; tmp; "--workload"; w.Workload.name; "--seed"; string_of_int seed ]
        @ if tiny then [ "--tiny" ] else [])
    in
    if code <> 0 then failwith (Printf.sprintf "input generation exited %d" code);
    rm_rf dir;
    Sys.rename tmp dir
  end;
  dir

(* --- output checks ------------------------------------------------------- *)

type rep_check = { attempted : int; failed : int; problems : string list }

(* Checks one rep's outputs that need no ground truth. *)
let check_rep (w : Workload.t) ~digest0 (o : Pipeline.t) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let attempted = max 1 (Array.length o.Pipeline.results) in
  let bad_rows = ref 0 in
  (* a one-shot verdict is clean, or degraded when faults were injected *)
  (match (o.Pipeline.health, w.Workload.fault) with
  | None, _ | Some Core.Lia.Clean, None | Some (Core.Lia.Degraded _), Some _ -> ()
  | Some h, _ -> fail "verdict %s" (Core.Lia.health_label h));
  if Array.length o.Pipeline.results = 0 then fail "no estimates";
  Array.iter
    (fun (r : Core.Lia.result) ->
      if not (Array.for_all Float.is_finite r.Core.Lia.loss_rates) then
        fail "non-finite estimates")
    o.Pipeline.results;
  (* serving: sampled batch rows are bit-equal to a single Plan.solve *)
  (match (o.Pipeline.plan, o.Pipeline.health) with
  | Some plan, None ->
      let ys = Lazy.force o.Pipeline.y_solved in
      let n = Matrix.rows ys in
      List.iter
        (fun l ->
          let one = Plan.solve plan (Matrix.row ys l) and b = o.Pipeline.results.(l) in
          if
            not
              (bits_equal one.Core.Lia.loss_rates b.Core.Lia.loss_rates
              && bits_equal one.Core.Lia.transmission b.Core.Lia.transmission)
          then begin
            incr bad_rows;
            fail "solve_batch row %d differs from Plan.solve" l
          end)
        (List.sort_uniq compare (List.init 8 (fun k -> k * (n - 1) / 7)))
  | _ -> ());
  let d = Digest.string o.Pipeline.out in
  (match digest0 with
  | Some d0 when d0 <> d -> fail "report bytes differ between reps"
  | _ -> ());
  let failed =
    if !problems = [] then 0
    else if !bad_rows > 0 && List.length !problems = !bad_rows then !bad_rows
    else attempted
  in
  (d, { attempted; failed; problems = !problems })

(* The quarantine accounting a one-shot rep reported. *)
let quarantine_counts (o : Pipeline.t) =
  Option.map
    (fun ((q : Core.Quarantine.report), (tq : Core.Quarantine.vector_report)) ->
      {
        Workload.rows_quarantined = List.length q.Core.Quarantine.quarantined;
        corrupt_cells = q.Core.Quarantine.corrupt_cells;
        missing_cells = q.Core.Quarantine.missing_cells;
        target_missing = tq.Core.Quarantine.v_missing;
        target_corrupt = tq.Core.Quarantine.v_corrupt;
      })
    o.Pipeline.quarantine

(* Mean absolute error, detection rate and false-positive rate at the
   1% threshold crossval scores with, of a rep on the first window: over
   its target, or over its served snapshots. *)
let accuracy (truth : Workload.truth) (o : Pipeline.t) =
  let n = Array.length o.Pipeline.results in
  if n = 0 || n <> Array.length truth.Workload.realized then (nan, nan, nan)
  else begin
    let sum = [| 0.; 0.; 0. |] in
    Array.iteri
      (fun l (r : Core.Lia.result) ->
        let actual = truth.Workload.realized.(l) and inferred = r.Core.Lia.loss_rates in
        let errs = Core.Metrics.absolute_errors ~actual ~inferred in
        let flag = Array.map (fun q -> q > 0.01) in
        let loc = Core.Metrics.location ~actual:(flag actual) ~inferred:(flag inferred) in
        sum.(0) <- sum.(0) +. (Array.fold_left ( +. ) 0. errs /. float_of_int (Array.length errs));
        sum.(1) <- sum.(1) +. loc.Core.Metrics.dr;
        sum.(2) <- sum.(2) +. loc.Core.Metrics.fpr)
      o.Pipeline.results;
    let k = float_of_int n in
    (sum.(0) /. k, sum.(1) /. k, sum.(2) /. k)
  end

(* --- the measured loop ---------------------------------------------------- *)

(* What a rep leaves once it is checked: no pipeline data, so the heap
   the next rep runs over does not grow with the rep count. *)
type rep = {
  rep_no : int;
  window : int;
  traced : bool;
  run_s : float;
  setup_s : float;
  serve_s : float;
  quarantine : Workload.quarantine_counts option;
  spans : Span.span list;
  counters : (string * float) list;  (** library counters of a traced rep *)
}

(* Each rep's quarantine counts against what its own window's fault
   schedule implies; one problem line per mismatching rep. *)
let check_truth (truth : Workload.truth) reps =
  let fields (c : Workload.quarantine_counts) =
    [
      ("rows quarantined", c.Workload.rows_quarantined);
      ("corrupt cells", c.Workload.corrupt_cells);
      ("missing cells", c.Workload.missing_cells);
      ("target missing", c.Workload.target_missing);
      ("target corrupt", c.Workload.target_corrupt);
    ]
  in
  match truth.Workload.quarantine with
  | None -> []
  | Some expect ->
      List.filter_map
        (fun r ->
          let what = Printf.sprintf "rep %d (window %d): " r.rep_no r.window in
          match r.quarantine with
          | None -> Some (what ^ "no quarantine report")
          | Some got -> (
              match
                List.filter_map
                  (fun ((name, want), (_, got)) ->
                    if want = got then None
                    else
                      Some
                        (Printf.sprintf "%s: schedule implies %d, quarantine reports %d"
                           name want got))
                  (List.combine (fields expect.(r.window)) (fields got))
              with
              | [] -> None
              | diffs -> Some (what ^ String.concat "; " diffs)))
        reps

let pool_counter name = Obs.Metrics.counter Obs.Metrics.default name

let traced_rep tr ~rep_no (w : Workload.t) files =
  let m = Obs.Metrics.default in
  Obs.Metrics.reset m;
  Obs.Metrics.enable m;
  let pool = Parallel.Pool.get ~jobs in
  let tasks0 = (Parallel.Pool.stats pool).Parallel.Pool.tasks_run in
  let gc0 = Gc.quick_stat () in
  tr.Span.enabled <- true;
  tr.Span.rep <- rep_no;
  let o =
    Fun.protect
      ~finally:(fun () ->
        tr.Span.enabled <- false;
        Obs.Metrics.disable m)
      (fun () -> Span.run tr "infer" (fun () -> Pipeline.run ~tr ~jobs w files))
  in
  let st = Parallel.Pool.stats pool in
  let c name = float_of_int (Obs.Metrics.counter_value (pool_counter name)) in
  let busy = c "pool_worker_busy_ns_total" and idle = c "pool_worker_idle_ns_total" in
  let counters =
    [
      ("pool.busy_frac", if busy +. idle > 0. then busy /. (busy +. idle) else 0.);
      ( "pool.queue_wait_p95_ms",
        if Float.is_finite st.Parallel.Pool.queue_wait_p95 then
          1000. *. st.Parallel.Pool.queue_wait_p95
        else 0. );
      ("pool.tasks", float_of_int (st.Parallel.Pool.tasks_run - tasks0));
      ("pool.fallbacks", c "pool_sequential_fallbacks_total");
      ( "solve.cgls_iters",
        c "lia_cgls_iterations" -. float_of_int o.Pipeline.phase1_iters );
      ( "gc.major_collections",
        float_of_int ((Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections) );
    ]
  in
  (o, counters)

type measured = {
  reps : rep list;  (** in run order *)
  last : Pipeline.t;
  accuracy : float * float * float;  (** abs_err, dr, fpr; nan when traced *)
  attempted : int;
  failed : int;
  problems : string list;
  peak_heap_mb : float;
  measured_s : float;
  tracer : Span.t;  (** spans of every traced rep *)
}

(* Runs reps until [seconds] would be exceeded (at least [min_reps],
   and untraced at least one rep per window plus one), cycling through
   the workload's measurement windows. With [trace], reps alternate
   untraced/traced on the same window, so the tracing overhead is
   measured on the same inputs in the same process. Only the last rep's
   outputs are kept, so the heap holds one pipeline at a time. Untraced,
   rep k + 1 is the first window again: its accuracy is scored against
   the ground truth there, after [peak_heap_mb] was read at rep k. *)
let measure ~trace ~seconds ~min_reps ~cli_out (w : Workload.t) ~dir =
  let k = w.Workload.windows in
  let min_reps = if trace then min_reps else max min_reps (k + 1) in
  let tr = Span.create ~run_id:(Unix.getpid ()) in
  let reps = ref [] and attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let digests = Array.make k None and last = ref None in
  let acc = ref (nan, nan, nan) in
  let t_start = now () in
  let rep_no = ref 0 and peak_words = ref None in
  let continue () =
    let n = List.length !reps in
    n < min_reps
    || (trace && n mod 2 = 1)
    ||
    match !reps with
    | r :: _ -> since t_start +. r.run_s <= float_of_int seconds
    | [] -> true
  in
  while continue () do
    incr rep_no;
    let traced = trace && !rep_no mod 2 = 0 in
    let window = (if trace then (!rep_no - 1) / 2 else !rep_no - 1) mod k in
    let files = Workload.files_in dir w ~window in
    last := None;
    Gc.full_major ();
    let outcome =
      try
        Ok
          (if traced then traced_rep tr ~rep_no:!rep_no w files
           else (Pipeline.run ~tr ~jobs w files, []))
      with e -> Error (Printexc.to_string e)
    in
    match outcome with
    | Error msg ->
        incr attempted;
        incr failed;
        problems := ("exception: " ^ msg) :: !problems;
        (* a rep that raised has no timings; stop rather than spin *)
        if List.length !reps = 0 then raise Exit
    | Ok (o, counters) ->
        let d, c = check_rep w ~digest0:digests.(window) o in
        if digests.(window) = None then digests.(window) <- Some d;
        if !rep_no = 1 && cli_out <> o.Pipeline.out then begin
          problems := "in-process report differs from lia_cli infer stdout" :: !problems;
          incr failed
        end;
        if (not trace) && !rep_no = k + 1 then acc := accuracy (Workload.load_truth dir) o;
        attempted := !attempted + c.attempted;
        failed := !failed + c.failed;
        problems := c.problems @ !problems;
        last := Some o;
        reps :=
          {
            rep_no = !rep_no;
            window;
            traced;
            run_s = o.Pipeline.run_s;
            setup_s = o.Pipeline.setup_s;
            serve_s = o.Pipeline.serve_s;
            quarantine = quarantine_counts o;
            spans = (if traced then Span.of_rep tr !rep_no else []);
            counters;
          }
          :: !reps;
        (* the major heap's high-water mark after one pass over the
           windows: a fixed rep count, so it does not grow with the
           machine's speed through heap fragmentation *)
        if !rep_no = k then peak_words := Some (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let measured_s = since t_start in
  let peak_words =
    Option.value !peak_words ~default:(Gc.quick_stat ()).Gc.top_heap_words
  in
  match !last with
  | None -> raise Exit
  | Some last ->
      {
        reps = List.rev !reps;
        last;
        accuracy = !acc;
        attempted = !attempted;
        failed = !failed;
        problems = List.rev !problems;
        peak_heap_mb = float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.;
        measured_s;
        tracer = tr;
      }

(* --- metrics -------------------------------------------------------------- *)

(* A one-shot run amortizes nothing across snapshots: it serves one
   snapshot per run, so its serving rate is 1 / run_s. *)
let end_to_end_metrics (w : Workload.t) (m : measured) =
  let untraced = List.filter (fun r -> not r.traced) m.reps in
  let med f = median (List.map f untraced) in
  let run_s = med (fun r -> r.run_s) in
  let _, dr, _ = m.accuracy in
  [
    ("run_s", Float run_s);
    ("setup_s", Float (med (fun r -> r.setup_s)));
    ( "serve_snapshots_per_s",
      Float
        (if w.Workload.serve > 0 then
           float_of_int w.Workload.serve /. med (fun r -> r.serve_s)
         else 1. /. run_s) );
    ("peak_heap_mb", Float m.peak_heap_mb);
    ("dr", Float dr);
  ]

let span_s name (r : rep) =
  List.fold_left (fun acc s -> if s.Span.name = name then acc +. Span.seconds s else acc) 0. r.spans

let span_alloc name (r : rep) =
  List.fold_left (fun acc s -> if s.Span.name = name then acc +. s.Span.alloc_words else acc) 0. r.spans

(* Baselines on the last rep's inputs: jobs=1 re-timings, the other
   solver's Phase 1, rank reduction alone, and per-snapshot latency. *)
let baselines (w : Workload.t) (o : Pipeline.t) =
  let p1 ~jobs w precond =
    snd (timed (fun () -> Pipeline.phase1 w ~jobs ~precond ~r:o.Pipeline.r ~y:o.Pipeline.y_phase1))
  in
  let phase1_j1 = p1 ~jobs:1 w o.Pipeline.precond in
  let alt_solver_s =
    match w.Workload.solver with
    | Workload.Dense -> p1 ~jobs { w with Workload.solver = Workload.Cgls_block_jacobi } VE.Pc_jacobi
    | Workload.Cgls_block_jacobi -> p1 ~jobs { w with Workload.solver = Workload.Dense } VE.Pc_jacobi
  in
  let rank, rank_s =
    timed (fun () -> Core.Rank_reduction.eliminate o.Pipeline.r_plan o.Pipeline.variances)
  in
  let solve =
    match o.Pipeline.plan with
    | None -> [ ("solve.speedup_j2", 0.); ("solve.p50_ms", 0.); ("solve.p99_ms", 0.) ]
    | Some plan ->
        let ys = Lazy.force o.Pipeline.y_solved in
        let batch j = snd (timed (fun () -> Plan.solve_batch ~jobs:j plan ys)) in
        let t1 = batch 1 and tj = batch jobs in
        let n = Matrix.rows ys in
        (* 1000 single solves: the served rows, or the target repeated *)
        let lat =
          Array.init (max n 1000) (fun k ->
              let y = Matrix.row ys (k mod n) in
              1000. *. snd (timed (fun () -> Plan.solve plan y)))
        in
        Array.sort compare lat;
        [
          ("solve.speedup_j2", t1 /. tj);
          ("solve.p50_ms", quantile lat 0.50);
          ("solve.p99_ms", quantile lat 0.99);
        ]
  in
  ( phase1_j1,
    [
      ("phase1.alt_solver_s", alt_solver_s);
      ("rank.s", rank_s);
      ("rank.kept", float_of_int (Array.length rank.Core.Rank_reduction.kept));
      ("rank.removed", float_of_int (Array.length rank.Core.Rank_reduction.removed));
    ]
    @ solve )

let per_layer_metrics (w : Workload.t) ~meas_bytes (m : measured) =
  let traced = List.filter (fun r -> r.traced) m.reps in
  let untraced = List.filter (fun r -> not r.traced) m.reps in
  let med f = median (List.map f traced) in
  let o = m.last in
  let phase1_s = med (span_s "phase1") in
  let phase1_j1, base = baselines w o in
  let b name = List.assoc name base in
  let plan_make_s = med (span_s "plan.make") in
  let solve_s = med (span_s "solve") in
  let n_solved = Matrix.rows (Lazy.force o.Pipeline.y_solved) in
  let parse_meas_s = med (span_s "parse.meas") in
  let unattributed (r : rep) =
    let root = List.find (fun s -> s.Span.parent = 0) r.spans in
    Span.seconds root
    -. List.fold_left
         (fun acc s -> if s.Span.parent = root.Span.id then acc +. Span.seconds s else acc)
         0. r.spans
  in
  let counter name = med (fun r -> List.assoc name r.counters) in
  let ess = o.Pipeline.ess in
  let q = o.Pipeline.quarantine in
  [
    ("parse.testbed_s", Float (med (span_s "parse.testbed")));
    ("parse.meas_s", Float parse_meas_s);
    ("parse.meas_mb_per_s", Float (float_of_int meas_bytes /. 1e6 /. parse_meas_s));
    ("routing.s", Float (med (span_s "routing")));
    ("routing.vlinks", Count (Linalg.Sparse.cols o.Pipeline.r));
    ("partition.s", Float (med (span_s "partition")));
    ("partition.groups", Count o.Pipeline.groups);
    ("quarantine.s", Float (med (span_s "quarantine")));
    ( "quarantine.rows_quarantined",
      Count (match q with Some (q, _) -> List.length q.Core.Quarantine.quarantined | None -> 0) );
    ( "quarantine.cells_scrubbed",
      Count
        (match q with
        | Some (q, tq) -> q.Core.Quarantine.corrupt_cells + tq.Core.Quarantine.v_corrupt
        | None -> 0) );
    ("phase1.s", Float phase1_s);
    ("phase1.pairs_total", Count (match ess with Some e -> e.VE.pairs_total | None -> 0));
    ( "phase1.pairs_used_frac",
      Float
        (match ess with
        | Some e when e.VE.pairs_total > 0 ->
            float_of_int e.VE.pairs_used /. float_of_int e.VE.pairs_total
        | _ -> 0.) );
    ("phase1.cgls_iters", Count o.Pipeline.phase1_iters);
    ("phase1.alloc_mwords", Float (med (span_alloc "phase1") /. 1e6));
    ("phase1.speedup_j2", Float (phase1_j1 /. phase1_s));
    ("phase1.alt_solver_s", Float (b "phase1.alt_solver_s"));
    ("rank.s", Float (b "rank.s"));
    ("rank.kept", Count (int_of_float (b "rank.kept")));
    ("rank.removed", Count (int_of_float (b "rank.removed")));
    ("plan.make_s", Float plan_make_s);
    ("plan.factor_s", Float (plan_make_s -. b "rank.s"));
    ( "plan.rank",
      Count (match o.Pipeline.plan with Some p -> Plan.rank p | None -> 0) );
    ("solve.batch_s", Float solve_s);
    ("solve.per_snapshot_ms", Float (1000. *. solve_s /. float_of_int n_solved));
    ("solve.p50_ms", Float (b "solve.p50_ms"));
    ("solve.p99_ms", Float (b "solve.p99_ms"));
    ("solve.cgls_iters", Count (int_of_float (counter "solve.cgls_iters")));
    ("solve.speedup_j2", Float (b "solve.speedup_j2"));
    ("report.s", Float (med (span_s "report")));
    ("pool.busy_frac", Float (counter "pool.busy_frac"));
    ("pool.queue_wait_p95_ms", Float (counter "pool.queue_wait_p95_ms"));
    ("pool.tasks", Count (int_of_float (counter "pool.tasks")));
    ("pool.fallbacks", Count (int_of_float (counter "pool.fallbacks")));
    ("gc.alloc_mwords", Float (med (span_alloc "infer") /. 1e6));
    ("gc.major_collections", Count (int_of_float (counter "gc.major_collections")));
    ("unattributed.s", Float (med unattributed));
    ( "trace.overhead_frac",
      Float
        (median (List.map (fun r -> r.run_s) traced)
         /. median (List.map (fun r -> r.run_s) untraced)
        -. 1.) );
    ("host.cpus", Count (Domain.recommended_domain_count ()));
  ]

(* --- one workload ------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * value) list;
  lines : string list;  (** human-readable summary *)
}

let fmt_value = function
  | Float f -> Printf.sprintf "%.17g" f
  | Count n -> string_of_int n

let json_of (r : result) ~units =
  let metric (name, v) =
    let v = match v with Float f when not (Float.is_finite f) -> Float 0. | v -> v in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.Field.json_string name)
      (fmt_value v) (Obs.Field.json_string (List.assoc name units))
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let file_size path = In_channel.with_open_bin path In_channel.length |> Int64.to_int

let run_workload ~work ~cli ~tiny ~trace ~seconds ~min_reps ~trace_out w ~seed =
  let dir = ensure_inputs ~work ~tiny w ~seed in
  let files = Workload.files_in dir w ~window:0 in
  (* the real CLI on the first window's files and flags, once, untimed *)
  let cli_file = Filename.concat work (Printf.sprintf "cli-%s-%d.out" w.Workload.name (Unix.getpid ())) in
  let code =
    spawn ~stdout_file:cli_file cli
      ([ "infer"; "--testbed"; files.Workload.testbed; "--measurements"; files.Workload.meas ]
      @ Workload.cli_flags w ~jobs ~snapshots_file:files.Workload.snapshots)
  in
  let cli_out = In_channel.with_open_bin cli_file In_channel.input_all in
  Sys.remove cli_file;
  let m = measure ~trace ~seconds ~min_reps ~cli_out w ~dir in
  let truth_problems = check_truth (Workload.load_truth dir) m.reps in
  let problems =
    (if code <> 0 then [ Printf.sprintf "lia_cli infer exited %d" code ] else [])
    @ m.problems @ truth_problems
  in
  (* a one-shot rep is one inference, so each mismatching rep fails one *)
  let failed = min m.attempted (m.failed + List.length truth_problems) in
  let failed = if code <> 0 then max failed 1 else failed in
  let meas_bytes =
    file_size files.Workload.meas
    + match files.Workload.snapshots with Some s -> file_size s | None -> 0
  in
  let metrics = if trace then per_layer_metrics w ~meas_bytes m else end_to_end_metrics w m in
  Option.iter (Span.write m.tracer) trace_out;
  let n_untraced = List.length (List.filter (fun r -> not r.traced) m.reps) in
  let n_traced = List.length m.reps - n_untraced in
  let units = if trace then per_layer else end_to_end in
  let lines =
    Printf.sprintf "workload %s seed %d jobs %d host_cpus %d: %d untraced + %d traced reps in %.1f s"
      w.Workload.name seed jobs (Domain.recommended_domain_count ()) n_untraced n_traced
      m.measured_s
    :: Printf.sprintf "  run_s per untraced rep: %s"
         (String.concat " "
            (List.map (fun r -> Printf.sprintf "%.4f" r.run_s)
               (List.filter (fun r -> not r.traced) m.reps)))
    :: List.map
         (fun (name, v) ->
           Printf.sprintf "  %-28s %-20s %s" name (fmt_value v) (List.assoc name units))
         metrics
    @ (let abs_err, _, fpr = m.accuracy in
       if trace then []
       else
         [
           (* not in BENCHMARK.json: abs_err swings with each campaign's
              rank cut and fpr is often exactly 0 *)
           Printf.sprintf "  %-28s %-20.17g rate (not gated)" "abs_err" abs_err;
           Printf.sprintf "  %-28s %-20.17g fraction (not gated)" "fpr" fpr;
         ])
    @ [
        Printf.sprintf "  %-28s %-20s (%d/%d)" "failed_frac"
          (Printf.sprintf "%g" (float_of_int failed /. float_of_int (max 1 m.attempted)))
          failed m.attempted;
      ]
    @ List.map (fun p -> "  CHECK FAILED: " ^ p) problems
  in
  {
    correct = problems = [] && failed = 0;
    attempted = max 1 m.attempted;
    failed;
    metrics;
    lines;
  }

(* --- self-check ----------------------------------------------------------------- *)

(* The [name] (and [unit], when present) of every entry of one list of
   BENCHMARK.json. *)
let benchmark_entries json section =
  let str key item = Option.bind (Obs.Json.member key item) Obs.Json.to_string_opt in
  match Obs.Json.member section json with
  | Some (Obs.Json.List items) ->
      List.map
        (fun item ->
          match str "name" item with
          | Some n -> (n, Option.value ~default:"" (str "unit" item))
          | None -> failwith ("BENCHMARK.json: unnamed entry in " ^ section))
        items
  | _ -> failwith (Printf.sprintf "BENCHMARK.json: no %S list" section)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every workload at tiny size, untraced and traced: outputs correct,
   exactly the metrics BENCHMARK.json names, and a trace that
   [Obs.Report] renders with the layer spans. *)
let self_check ~work ~cli ~benchmark =
  let ok = ref true in
  let check what cond =
    if not cond then begin
      ok := false;
      Printf.printf "self-check FAILED: %s\n%!" what
    end
  in
  let json = Obs.Json.of_string (In_channel.with_open_bin benchmark In_channel.input_all) in
  let sorted l = List.sort compare l in
  check "end_to_end names/units match BENCHMARK.json"
    (sorted (benchmark_entries json "end_to_end") = sorted end_to_end);
  check "per_layer names/units match BENCHMARK.json"
    (sorted (benchmark_entries json "per_layer") = sorted per_layer);
  check "workloads match BENCHMARK.json"
    (sorted (List.map fst (benchmark_entries json "workloads"))
    = sorted (List.map (fun w -> w.Workload.name) Workload.all));
  List.iter
    (fun w ->
      let w = Workload.tiny w in
      List.iter
        (fun trace ->
          let what = Printf.sprintf "%s (trace %b)" w.Workload.name trace in
          let units = if trace then per_layer else end_to_end in
          let trace_out =
            if trace then Some (Filename.concat work (w.Workload.name ^ ".trace.jsonl")) else None
          in
          let r =
            run_workload ~work ~cli ~tiny:true ~trace ~seconds:0 ~min_reps:1 ~trace_out w ~seed:1
          in
          print_endline (List.hd r.lines);
          if not r.correct then List.iter print_endline r.lines;
          check (what ^ ": outputs correct") r.correct;
          check (what ^ ": emits every metric")
            (sorted (List.map fst r.metrics) = sorted (List.map fst units));
          check (what ^ ": metrics finite")
            (List.for_all (function _, Float f -> Float.is_finite f | _, Count _ -> true) r.metrics);
          check (what ^ ": json line parses") (Obs.Json.of_string_opt (json_of r ~units) <> None);
          Option.iter
            (fun path ->
              let page =
                Obs.Report.render ~trace:(In_channel.with_open_bin path In_channel.input_all) ()
              in
              check (what ^ ": trace renders with layer spans")
                (contains page "phase1" && contains page "plan.make"))
            trace_out)
        [ false; true ])
    Workload.all;
  if !ok then print_endline "self-check ok";
  !ok

(* --- command line ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe --workload NAME|all --seed N --seconds N --trace 0|1\n\
  \       main.exe --self-check\n\
   options: --cli PATH (lia_cli.exe) --work DIR (scratch inputs) --benchmark FILE"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | ("--self-check" | "--tiny") as flag :: rest -> parse ((flag, "1") :: acc) rest
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((key, v) :: acc) rest
    | bad :: _ ->
        prerr_endline ("unexpected argument " ^ bad);
        prerr_endline usage;
        exit 2
  in
  let opts = parse [] args in
  let get key default = Option.value ~default (List.assoc_opt key opts) in
  let int key default =
    match int_of_string_opt (get key default) with
    | Some n -> n
    | None ->
        prerr_endline (key ^ " expects an integer");
        exit 2
  in
  let work = get "--work" ".perfbench" in
  let cli = get "--cli" "_build/default/bin/lia_cli.exe" in
  let workload name =
    match Workload.find name with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ name);
        prerr_endline usage;
        exit 2
  in
  match List.assoc_opt "--gen" opts with
  | Some dir ->
      let w = workload (get "--workload" "") in
      let w = if List.mem_assoc "--tiny" opts then Workload.tiny w else w in
      ignore (Workload.generate w ~seed:(int "--seed" "1") ~dir)
  | None when List.mem_assoc "--self-check" opts ->
      mkdir_p work;
      let ok = self_check ~work ~cli ~benchmark:(get "--benchmark" "BENCHMARK.json") in
      exit (if ok then 0 else 1)
  | None -> (
      let seed = int "--seed" "1" and seconds = int "--seconds" "20" in
      let trace = int "--trace" "0" = 1 in
      match get "--workload" "" with
      | "all" ->
          let codes =
            List.map
              (fun w ->
                spawn Sys.executable_name
                  (List.concat_map
                     (fun (k, v) -> if k = "--workload" then [ k; w.Workload.name ] else [ k; v ])
                     (List.rev opts)))
              Workload.all
          in
          exit (List.fold_left max 0 codes)
      | name ->
          let w = workload name in
          if not (Sys.file_exists cli) then begin
            prerr_endline ("lia_cli not found at " ^ cli ^ " (build it first)");
            exit 2
          end;
          mkdir_p work;
          let trace_out =
            if trace then Some (Filename.concat work (Printf.sprintf "trace-%s-s%d.jsonl" name seed))
            else None
          in
          let r =
            try
              run_workload ~work ~cli ~tiny:false ~trace ~seconds ~min_reps:3 ~trace_out w ~seed
            with Exit ->
              prerr_endline "every rep raised; no measurement";
              exit 1
          in
          List.iter print_endline r.lines;
          print_endline (json_of r ~units:(if trace then per_layer else end_to_end));
          exit (if r.correct then 0 else 1))

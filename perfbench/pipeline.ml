(* One rep of the [lia_cli infer] pipeline, driven in-process.

   The steps are those of [bin/lia_cli.ml]'s [infer] command (and, for a
   one-shot inference, of [Core.Lia.infer_checked], which it calls),
   spelled out call by call so each layer's public function can be timed
   on its own. The printed bytes are compared against the real CLI once
   per invocation, which keeps this copy from drifting. *)

module Matrix = Linalg.Matrix
module Sparse = Linalg.Sparse
module Plan = Core.Plan
module VE = Core.Variance_estimator
module Quarantine = Core.Quarantine

(* lia_cli infer defaults *)
let threshold = 0.002
let top = 20
let cgls_tol = 1e-10

type t = {
  out : string;  (** the bytes [lia_cli infer] prints on stdout *)
  health : Core.Lia.health option;  (** one-shot inference only *)
  results : Core.Lia.result array;  (** empty when refused *)
  run_s : float;  (** testbed parse through the last output line *)
  setup_s : float;  (** until the first target snapshot can be solved *)
  serve_s : float;  (** snapshot parse + solve + output lines *)
  (* inputs and intermediate values, for the checks and baselines *)
  r : Sparse.t;
  groups : int;  (** AS partition groups; 0 when not partitioned *)
  y_phase1 : Matrix.t;  (** the matrix Phase 1 learned from *)
  precond : VE.precond_spec;
  ess : VE.ess option;
  phase1_iters : int;  (** CGLS iterations of Phase 1; 0 when dense *)
  variances : float array;
  quarantine : (Quarantine.report * Quarantine.vector_report) option;
  r_plan : Sparse.t;  (** routing matrix the plan was built on *)
  plan : Plan.t option;
  y_solved : Matrix.t Lazy.t;  (** rows solved through the plan *)
}

exception Refuse of string

(* only block-Jacobi carries over to the Phase-2 plan, as in [Core.Lia] *)
let backend (w : Workload.t) precond =
  match w.Workload.solver with
  | Workload.Dense -> Plan.Dense_qr
  | Workload.Cgls_block_jacobi ->
      let precond =
        match precond with
        | VE.Pc_block_jacobi _ -> precond
        | VE.Pc_none | VE.Pc_jacobi -> VE.Pc_none
      in
      Plan.Cgls { tol = cgls_tol; max_iter = None; precond }

let phase1 (w : Workload.t) ~jobs ~precond ~r ~y =
  match w.Workload.solver with
  | Workload.Dense ->
      let v, ess = VE.estimate_streaming_ess ~jobs ~min_pair_samples:2 ~r ~y () in
      (v, ess, 0)
  | Workload.Cgls_block_jacobi ->
      let options =
        {
          VE.default_matfree_options with
          VE.tol = cgls_tol;
          max_iter = None;
          sample = None;
          mf_precond = precond;
          mf_min_pair_samples = 2;
        }
      in
      let v, ess, stats = VE.estimate_matfree_ess ~options ~jobs ~r ~y () in
      (v, ess, stats.Linalg.Conjugate_gradient.iterations)

let routing_layers ~tr (w : Workload.t) (f : Workload.files) =
  let sp name f = Span.run tr name f in
  let tb = sp "parse.testbed" (fun () -> Topology.Serial.load f.Workload.testbed) in
  let red = sp "routing" (fun () -> Topology.Testbed.routing tb) in
  let precond =
    match w.Workload.solver with
    | Workload.Dense -> VE.Pc_jacobi
    | Workload.Cgls_block_jacobi ->
        VE.Pc_block_jacobi
          (sp "partition" (fun () ->
               Topology.Partition.group_cols
                 (Topology.Partition.by_as tb.Topology.Testbed.graph red)))
  in
  let groups =
    match precond with VE.Pc_block_jacobi g -> Array.length g | VE.Pc_none | VE.Pc_jacobi -> 0
  in
  (tb, red, precond, groups)

let check_width y r what =
  if Matrix.cols y <> Sparse.rows r then
    failwith (what ^ " width does not match the testbed's path count")

(* [lia_cli infer --testbed T --measurements M]: learn on all rows but
   the last, diagnose the last, through the quarantine-aware checked
   path. *)
let one_shot ~tr ~jobs (w : Workload.t) (f : Workload.files) =
  let sp name f = Span.run tr name f in
  let t0 = Obs.Clock.now_ns () in
  let tb, red, precond, groups = routing_layers ~tr w f in
  let r = red.Topology.Routing.matrix in
  let y = sp "parse.meas" (fun () -> Netsim.Trace_io.load ~strict:false f.Workload.meas) in
  check_width y r "measurement";
  let m = Matrix.rows y - 1 in
  if m < 2 then failwith "need at least 3 snapshots (m >= 2 learning + 1 target)";
  let y_learn = Matrix.init m (Matrix.cols y) (fun l i -> Matrix.get y l i) in
  let y_now = Matrix.row y m in
  let health_line h = Printf.sprintf "health: %s\n" (Core.Lia.health_summary h) in
  let base =
    {
      out = "";
      health = None;
      results = [||];
      run_s = 0.;
      setup_s = 0.;
      serve_s = 0.;
      r;
      groups;
      y_phase1 = y_learn;
      precond;
      ess = None;
      phase1_iters = 0;
      variances = [||];
      quarantine = None;
      r_plan = r;
      plan = None;
      y_solved = lazy (Matrix.of_arrays [| y_now |]);
    }
  in
  let st = ref base in
  let t_setup = ref 0L in
  let health, results, out =
    try
      let (scrubbed, q), (y_target, tq) =
        sp "quarantine" (fun () ->
            let learn = Quarantine.scrub ~max_missing_fraction:0.5 y_learn in
            (learn, Quarantine.scrub_vector y_now))
      in
      st := { !st with quarantine = Some (q, tq); y_phase1 = scrubbed };
      if Matrix.rows scrubbed < 2 then
        raise
          (Refuse
             (Printf.sprintf
                "%d usable learning snapshots after quarantine (need at least 2)"
                (Matrix.rows scrubbed)));
      if Array.length tq.Quarantine.valid = 0 then
        raise (Refuse "target snapshot has no usable measurements");
      let variances, ess, iters =
        try sp "phase1" (fun () -> phase1 w ~jobs ~precond ~r ~y:scrubbed)
        with Failure msg -> raise (Refuse ("variance estimation failed: " ^ msg))
      in
      st := { !st with variances; ess = Some ess; phase1_iters = iters };
      if
        ess.VE.pairs_total > 0
        && float_of_int (ess.VE.pairs_total - ess.VE.pairs_used)
           > 0.5 *. float_of_int ess.VE.pairs_total
      then
        raise
          (Refuse
             (Printf.sprintf
                "only %d/%d path pairs have %d overlapping snapshots (allowed \
                 skip fraction %g)"
                ess.VE.pairs_used ess.VE.pairs_total 2 0.5));
      let target_clean = Array.length tq.Quarantine.valid = Sparse.rows r in
      let r_plan, y_solve =
        if target_clean then (r, y_now)
        else
          let rows = tq.Quarantine.valid in
          (Sparse.select_rows r rows, Array.map (fun i -> y_target.(i)) rows)
      in
      let backend = backend w precond in
      let plan =
        try sp "plan.make" (fun () -> Plan.make ~jobs ~backend ~r:r_plan ~variances ())
        with Failure msg -> raise (Refuse ("phase-2 solve failed: " ^ msg))
      in
      st :=
        {
          !st with
          r_plan;
          plan = Some plan;
          y_solved = lazy (Matrix.of_arrays [| y_solve |]);
        };
      t_setup := Obs.Clock.now_ns ();
      let result =
        try sp "solve" (fun () -> Plan.solve plan y_solve)
        with Failure msg -> raise (Refuse ("phase-2 solve failed: " ^ msg))
      in
      if
        not
          (Array.for_all Float.is_finite result.Core.Lia.loss_rates
          && Array.for_all Float.is_finite result.Core.Lia.variances)
      then raise (Refuse "non-finite estimates survived the solve");
      let degraded =
        (not (Quarantine.clean q))
        || (not target_clean)
        || ess.VE.pairs_used < ess.VE.pairs_total
      in
      let health =
        if degraded then
          Core.Lia.Degraded
            {
              quarantine = q;
              ess;
              target_missing = tq.Quarantine.v_missing;
              target_corrupt = tq.Quarantine.v_corrupt;
            }
        else Core.Lia.Clean
      in
      let out =
        sp "report" (fun () ->
            let b = Buffer.create 4096 in
            Printf.bprintf b "learned variances from %d snapshots\n" m;
            Buffer.add_string b (health_line health);
            Buffer.add_string b
              (Core.Report.table
                 ~options:{ Core.Report.default_options with Core.Report.threshold; top }
                 ~graph:tb.Topology.Testbed.graph ~routing:red result);
            Buffer.contents b)
      in
      (health, [| result |], out)
    with Refuse reason ->
      let h = Core.Lia.Refused reason in
      (h, [||], health_line h)
  in
  let t1 = Obs.Clock.now_ns () in
  let secs a b = Int64.to_float (Int64.sub b a) /. 1e9 in
  let t_setup = if !t_setup = 0L then t1 else !t_setup in
  {
    !st with
    out;
    health = Some health;
    results;
    run_s = secs t0 t1;
    setup_s = secs t0 t_setup;
    serve_s = secs t_setup t1;
  }

(* [lia_cli infer --snapshots S]: learn on every row of the measurement
   file, build one plan, serve every row of [S] through it. *)
let serve ~tr ~jobs (w : Workload.t) (f : Workload.files) snapshots =
  let sp name f = Span.run tr name f in
  let t0 = Obs.Clock.now_ns () in
  let _tb, red, precond, groups = routing_layers ~tr w f in
  let r = red.Topology.Routing.matrix in
  let y = sp "parse.meas" (fun () -> Netsim.Trace_io.load f.Workload.meas) in
  check_width y r "measurement";
  if Matrix.rows y < 2 then failwith "need at least 2 learning snapshots to learn variances";
  let variances, ess, iters = sp "phase1" (fun () -> phase1 w ~jobs ~precond ~r ~y) in
  let plan =
    sp "plan.make" (fun () ->
        Plan.make ~jobs
          ~backend:(backend w precond)
          ~r ~variances ())
  in
  let t_setup = Obs.Clock.now_ns () in
  let ys = sp "parse.meas" (fun () -> Netsim.Trace_io.load snapshots) in
  check_width ys r "snapshot";
  let results =
    sp "solve" (fun () -> Plan.solve_batch ~jobs ~warm_start:false plan ys)
  in
  let out =
    sp "report" (fun () ->
        let b = Buffer.create (64 * Array.length results) in
        Printf.bprintf b "learned variances from %d snapshots\n" (Matrix.rows y);
        Printf.bprintf b "plan: kept %d columns, eliminated %d; serving %d snapshots\n"
          (Plan.rank plan)
          (Sparse.cols r - Plan.rank plan)
          (Array.length results);
        Printf.bprintf b "%-9s %-10s %-11s %s\n" "snapshot" "congested" "max loss"
          "lossiest link";
        Array.iteri
          (fun l res ->
            let congested = Core.Lia.congested res ~threshold in
            let count =
              Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 congested
            in
            let worst = Linalg.Vector.max_index res.Core.Lia.loss_rates in
            Printf.bprintf b "%-9d %-10d %-11.5f %d\n" l count
              res.Core.Lia.loss_rates.(worst) worst)
          results;
        Buffer.contents b)
  in
  let t1 = Obs.Clock.now_ns () in
  let secs a b = Int64.to_float (Int64.sub b a) /. 1e9 in
  {
    out;
    health = None;
    results;
    run_s = secs t0 t1;
    setup_s = secs t0 t_setup;
    serve_s = secs t_setup t1;
    r;
    groups;
    y_phase1 = y;
    precond;
    ess = Some ess;
    phase1_iters = iters;
    variances;
    quarantine = None;
    r_plan = r;
    plan = Some plan;
    y_solved = Lazy.from_val ys;
  }

let run ~tr ~jobs w f =
  match f.Workload.snapshots with
  | None -> one_shot ~tr ~jobs w f
  | Some s -> serve ~tr ~jobs w f s

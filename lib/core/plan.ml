module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Qr = Linalg.Qr

type result = {
  variances : float array;
  transmission : float array;
  loss_rates : float array;
  kept : int array;
  removed : int array;
}

type backend =
  | Dense_qr
  | Cgls of {
      tol : float;
      max_iter : int option;
      precond : Variance_estimator.precond_spec;
    }

(* the factored system behind a plan: a Householder QR of the dense R*,
   or the sparse R* kept implicit behind CGLS (with an optional
   preconditioner factored once at plan-build time) *)
type fact =
  | Direct of Qr.t
  | Iterative of {
      op : Linalg.Lsqr.operator;
      tol : float;
      max_iter : int option;
      precond : Linalg.Precond.t option;
      context : (string * Obs.Field.t) list;
          (* telemetry labels for every solve against this plan *)
    }

type t = {
  np : int;
  nc : int;
  variances : float array;
  kept : int array;
  removed : int array;
  backend : backend;
  fact : fact;
}

let m_build =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per inference-plan build (rank reduction + QR)"
    "plan_build_seconds"

let m_solve =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per snapshot solved through a plan (batch solves \
           contribute their per-snapshot average)"
    "plan_solve_snapshot_seconds"

let g_rank =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Columns kept by the most recent plan build" "plan_rank"

let g_deleted =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Columns eliminated by the most recent plan build"
    "plan_deleted_columns"

(* same counter the matrix-free phase-1 estimator registers; the registry
   returns the existing metric for a same-typed name *)
let m_cgls_iters =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS iterations run by the matrix-free phase-1 solver"
    "lia_cgls_iterations"

let make ?jobs ?(backend = Dense_qr) ~r ~variances () =
  let nc = Sparse.cols r and np = Sparse.rows r in
  if Array.length variances <> nc then
    invalid_arg "Lia: variance length mismatch";
  Obs.Probe.kernel ~hist:m_build
    ~args:[ ("np", Obs.Field.Int np); ("nc", Obs.Field.Int nc) ]
    "plan.build"
  @@ fun () ->
  let { Rank_reduction.kept; removed } = Rank_reduction.eliminate r variances in
  let fact =
    match backend with
    | Dense_qr -> Direct (Qr.factorize ?jobs (Sparse.dense_cols r kept))
    | Cgls { tol; max_iter; precond } ->
        (* columns renumbered in kept order, so solutions index like the
           QR path's *)
        let r_star = Sparse.select_cols r kept in
        let precond =
          match precond with
          | Variance_estimator.Pc_block_jacobi groups ->
              (* groups are in original column numbering; keep only the
                 surviving columns, renumbered to their kept position *)
              let pos = Array.make nc (-1) in
              Array.iteri (fun t j -> pos.(j) <- t) kept;
              let local g =
                Array.to_list g
                |> List.filter_map (fun j ->
                       if pos.(j) >= 0 then Some pos.(j) else None)
                |> Array.of_list
              in
              Variance_estimator.Pc_block_jacobi (Array.map local groups)
          | Variance_estimator.Pc_none | Variance_estimator.Pc_jacobi -> precond
        in
        let pc, pc_name =
          Variance_estimator.preconditioner ?jobs ~cols:(Array.length kept)
            ~diag:(fun () -> Array.map float_of_int (Sparse.column_counts r_star))
            ~gram_blocks:(Array.map (Sparse.gram_block r_star))
            precond
        in
        Iterative
          {
            op = Linalg.Lsqr.of_sparse r_star;
            tol;
            max_iter;
            precond = pc;
            context =
              [
                ("phase", Obs.Field.Str "phase2");
                ("precond", Obs.Field.Str pc_name);
              ];
          }
  in
  Obs.Metrics.set g_rank (float_of_int (Array.length kept));
  Obs.Metrics.set g_deleted (float_of_int (Array.length removed));
  { np; nc; variances = Array.copy variances; kept; removed; backend; fact }

let rank p = Array.length p.kept

let backend p = p.backend

let result_of_x p x_star =
  let transmission = Array.make p.nc 1. in
  Array.iteri
    (fun k j ->
      (* x is a log transmission rate; numerical noise can push it above 0 *)
      transmission.(j) <- Float.min 1. (exp x_star.(k)))
    p.kept;
  let loss_rates = Array.map (fun t -> 1. -. t) transmission in
  {
    variances = Array.copy p.variances;
    transmission;
    loss_rates;
    kept = Array.copy p.kept;
    removed = Array.copy p.removed;
  }

let least_squares_x ?x0 p y_now =
  match p.fact with
  | Direct fact -> Qr.least_squares fact y_now
  | Iterative { op; tol; max_iter; precond; context } ->
      let x, stats =
        Linalg.Lsqr.cgls ~tol ?max_iter ?x0 ?precond ~context op y_now
      in
      Obs.Metrics.add m_cgls_iters stats.Linalg.Conjugate_gradient.iterations;
      x

let solve p y_now =
  if Array.length y_now <> p.np then invalid_arg "Lia: measurement length mismatch";
  Obs.Probe.kernel ~hist:m_solve "plan.solve" @@ fun () ->
  result_of_x p (least_squares_x p y_now)

let solve_batch ?jobs ?(warm_start = false) p y =
  if Matrix.cols y <> p.np then invalid_arg "Lia: measurement length mismatch";
  let snapshots = Matrix.rows y in
  Obs.Trace.with_span
    ~args:[ ("snapshots", Obs.Field.Int snapshots) ]
    "plan.solve_batch"
  @@ fun () ->
  let t0 =
    if Obs.Metrics.enabled Obs.Metrics.default then Obs.Clock.now_ns () else 0L
  in
  let out =
    match p.fact with
    | Direct fact ->
        (* one RHS per column: reflectors then sweep all snapshots per pass *)
        let b = Matrix.transpose y in
        let x = Qr.least_squares_batch ?jobs fact b in
        Array.init snapshots (fun l -> result_of_x p (Matrix.col x l))
    | Iterative _ when warm_start ->
        (* consecutive snapshots of one deployment differ little, so
           snapshot k's solution is an excellent start for k+1: the chain
           is sequential by nature (each start needs the previous
           solution) and trades the pool fan-out for iteration savings.
           jobs-invariant trivially — no parallelism to vary. *)
        let out = Array.make snapshots (result_of_x p (Array.make (rank p) 0.)) in
        let prev = ref None in
        for l = 0 to snapshots - 1 do
          let x = least_squares_x ?x0:!prev p (Matrix.row y l) in
          prev := Some x;
          out.(l) <- result_of_x p x
        done;
        out
    | Iterative _ ->
        (* snapshots are independent CGLS runs; each output slot is
           written by exactly one index, so the batch is bit-for-bit
           [solve] per row for every [jobs] value. While solver iterations
           are recorded, the snapshots run in index order instead, so the
           solve ids and the event order do not depend on scheduling. *)
        let jobs = if Obs.Trace.enabled ~kind:"solver_iter" () then Some 1 else jobs in
        let out = Array.make snapshots (result_of_x p (Array.make (rank p) 0.)) in
        Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n:snapshots (fun l ->
            out.(l) <- result_of_x p (least_squares_x p (Matrix.row y l)));
        out
  in
  if Obs.Metrics.enabled Obs.Metrics.default && snapshots > 0 then begin
    (* the blocked kernel solves all snapshots in one pass; attribute the
       per-snapshot average to each so the histogram stays per-snapshot *)
    let per = Obs.Clock.seconds_since t0 /. float_of_int snapshots in
    for _ = 1 to snapshots do
      Obs.Metrics.observe m_solve per
    done
  end;
  out

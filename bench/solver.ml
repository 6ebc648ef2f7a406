(* Solver crossover: matrix-free CGLS vs materialized-A solves.

   Phase 1 solves the augmented system A v = sigma_star whose row count
   is n_p(n_p+1)/2 — the n_p² wall. Three ways through it:

     - dense-qr : materialize A as a dense matrix and run Householder QR
       (the paper's solve, kept only as the oracle the test suite and
       this sweep check against). O(pairs · n_c²) flops and
       O(pairs · n_c) memory.
     - dense    : stream the normal equations over the pair triangle
       without materializing A (the [--solver dense] production path).
       O(pairs · nnz_row²) work, O(n_c²) memory for the Gram matrix.
     - cgls     : never materialize A — matrix-free CGLS over cache-
       blocked tiles of the routing matrix ([--solver cgls]).
       O(iters · pairs · path-length) work, O(n_p + n_c) extra memory.

   The sweep times each while affordable, validates cgls against the
   dense-qr oracle in the full-rank regime (drop-negative off, so
   Theorem 1 gives a unique minimizer) at 1e-6 relative error, and
   finishes with the acceptance point: a ≥2000-path overlay that cgls
   completes end to end while the dense-qr matrix alone would not fit in
   memory on most hosts. Its JSON lands in BENCH_timing.json under
   "solver_crossover" (see Timing.run_sweep). *)

module Sparse = Linalg.Sparse
module VE = Core.Variance_estimator
module CG = Linalg.Conjugate_gradient

(* worst per-entry relative difference, ignoring entries of [a] below
   [floor] (a zero reference makes relative error meaningless) *)
let worst_rel_diff ?(floor = 1e-9) a b =
  let worst = ref 0. in
  Array.iteri
    (fun k x ->
      if Float.abs x > floor then begin
        let d = Float.abs (x -. b.(k)) /. Float.abs x in
        if d > !worst then worst := d
      end)
    a;
  !worst

(* relative L2 error — the standard sketching metric; per-entry worst
   relative error is meaningless here because near-zero variances make
   the denominator vanish *)
let l2_rel_err reference v =
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun k x ->
      let d = v.(k) -. x in
      num := !num +. (d *. d);
      den := !den +. (x *. x))
    reference;
  sqrt (!num /. Float.max 1e-300 !den)

(* same registry handle the solvers record into; the registry returns
   the existing counter for a same-typed name *)
let m_cgls_iters =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS iterations run by the matrix-free solvers"
    "lia_cgls_iterations"

(* run [f] with metrics on, returning its result and the CGLS
   iterations it recorded *)
let with_cgls_iters f =
  let was_enabled = Obs.Metrics.enabled Obs.Metrics.default in
  Obs.Metrics.enable Obs.Metrics.default;
  let before = Obs.Metrics.counter_value m_cgls_iters in
  let out = f () in
  let iters = Obs.Metrics.counter_value m_cgls_iters - before in
  if not was_enabled then Obs.Metrics.disable Obs.Metrics.default;
  (out, iters)

let make_campaign ~hosts ~snapshots =
  let rng = Nstats.Rng.create (7100 + hosts) in
  let tb = Topology.Overlay.planetlab_like rng ~hosts () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:(snapshots + 1) in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:snapshots in
  (r, y_learn, target)

(* The parity regime: drop-negative off keeps every row of A, so the
   system has full column rank (Theorem 1) and both solvers converge to
   the same unique minimizer; tol 1e-14 puts CGLS well below the 1e-6
   comparison bound. *)
let full_rank_mf =
  {
    VE.default_matfree_options with
    VE.tol = 1e-14;
    mf_drop_negative = false;
    mf_clamp = false;
  }

(* The dense-QR oracle in the same regime: Householder QR of the
   materialized augmented matrix over every row, unclamped. *)
let dense_qr_oracle ~r ~y =
  Linalg.Qr.solve
    (Sparse.to_dense (Core.Augmented.build r))
    (Core.Covariance.sigma_star y)

let rel_err_bound = 1e-6

let crossover ~reps ~snapshots ~hosts_list ~dense_qr_max_paths ~accept_hosts ()
    =
  Exp_common.header "solver crossover: matrix-free CGLS vs materialized A";
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n\
    \    \"validated_against\": \"dense QR oracle, full-rank regime \
     (drop_negative off), cgls tol 1e-14\",\n\
    \    \"rel_err_bound\": %g,\n\
    \    \"topologies\": [\n"
    rel_err_bound;
  Exp_common.row "%-6s %-7s %-9s %-11s %-11s %-9s %-11s %-10s" "hosts" "paths"
    "pairs" "dense (s)" "cgls (s)" "iters" "dqr (s)" "relerr";
  (* largest measured dense-qr point, for projecting the acceptance cost *)
  let dqr_ref = ref None in
  List.iteri
    (fun ti hosts ->
      let r, y_learn, _ = make_campaign ~hosts ~snapshots in
      let np = Sparse.rows r and nc = Sparse.cols r in
      let pairs = np * (np + 1) / 2 in
      let t_cgls, (_, _, stats) =
        Exp_common.time_best ~reps (fun () ->
            VE.estimate_matfree_ess ~r ~y:y_learn ())
      in
      let t_dense, _ =
        Exp_common.time_best ~reps (fun () ->
            VE.estimate_streaming_ess ~r ~y:y_learn ())
      in
      let dqr =
        if np <= dense_qr_max_paths then begin
          let _, (v_mf, _, _) =
            Exp_common.time_best ~reps:1 (fun () ->
                VE.estimate_matfree_ess ~options:full_rank_mf ~r ~y:y_learn ())
          in
          let t_dqr, v_dqr =
            Exp_common.time_best ~reps:1 (fun () ->
                dense_qr_oracle ~r ~y:y_learn)
          in
          let err = worst_rel_diff v_dqr v_mf in
          if err > rel_err_bound then
            failwith
              (Printf.sprintf
                 "solver crossover: cgls vs dense-qr rel err %.2e > %g at %d \
                  hosts"
                 err rel_err_bound hosts);
          dqr_ref := Some (t_dqr, pairs, nc);
          Some (t_dqr, err)
        end
        else None
      in
      (match dqr with
      | Some (t_dqr, err) ->
          Exp_common.row "%-6d %-7d %-9d %-11.4f %-11.4f %-9d %-11.2f %-10.1e"
            hosts np pairs t_dense t_cgls stats.CG.iterations t_dqr err
      | None ->
          Exp_common.row "%-6d %-7d %-9d %-11.4f %-11.4f %-9d %-11s %-10s"
            hosts np pairs t_dense t_cgls stats.CG.iterations "-" "-");
      if ti > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "      {\"hosts\": %d, \"paths\": %d, \"links\": %d, \"pairs\": %d, \
         \"dense_normal_seconds\": %.6f, \"cgls_seconds\": %.6f, \
         \"cgls_iterations\": %d"
        hosts np nc pairs t_dense t_cgls stats.CG.iterations;
      (match dqr with
      | Some (t_dqr, err) ->
          Printf.bprintf buf
            ", \"dense_qr_seconds\": %.6f, \"cgls_vs_dense_qr_rel_err\": %.3e}"
            t_dqr err
      | None -> Buffer.add_string buf "}"))
    hosts_list;
  Buffer.add_string buf "\n    ],\n";
  Exp_common.note
    "dqr measured only while the dense A fits comfortably; relerr is cgls vs \
     the dense-qr oracle in the full-rank regime (bound %.0e)"
    rel_err_bound;
  (* --- acceptance: a >= 2000-path overlay, matrix-free only ------------ *)
  Exp_common.subheader "acceptance point (matrix-free only)";
  let r, y_learn, target = make_campaign ~hosts:accept_hosts ~snapshots in
  let np = Sparse.rows r and nc = Sparse.cols r in
  let pairs = np * (np + 1) / 2 in
  let t_e2e, (result, it_e2e) =
    Exp_common.time_best ~reps:1 (fun () ->
        with_cgls_iters (fun () ->
            Exp_common.infer ~solver:Core.Lia.default_cgls ~r ~y_learn
              ~y_now:target.Netsim.Snapshot.y ()))
  in
  if not (Array.for_all Float.is_finite result.Core.Lia.loss_rates) then
    failwith "solver crossover: non-finite loss rates at the acceptance point";
  let dense_a_gb = float_of_int pairs *. float_of_int nc *. 8. /. 1e9 in
  let projected_dqr_s =
    (* scale the largest measured dense-qr point by the Householder flop
       count 2 · rows · cols² *)
    match !dqr_ref with
    | None -> Float.nan
    | Some (t, p0, c0) ->
        t
        *. (float_of_int pairs /. float_of_int p0)
        *. ((float_of_int nc /. float_of_int c0) ** 2.)
  in
  Exp_common.row "%-6d %-7d %-9d cgls end-to-end %.2f s (%d iterations)"
    accept_hosts np pairs t_e2e it_e2e;
  Exp_common.note
    "dense-qr there would need a %.1f GB matrix and ~%.0f s (projected); \
     cgls used O(paths + links) extra memory"
    dense_a_gb projected_dqr_s;
  Printf.bprintf buf
    "    \"acceptance\": {\"hosts\": %d, \"paths\": %d, \"links\": %d, \
     \"pairs\": %d, \"cgls_end_to_end_seconds\": %.6f, \"cgls_iterations\": \
     %d, \"dense_qr_projected\": {\"matrix_gb\": %.1f, \"seconds\": %.1f, \
     \"projected\": true}},\n"
    accept_hosts np nc pairs t_e2e it_e2e dense_a_gb projected_dqr_s;
  (* --- sketch: seeded row subsampling, error vs time ------------------- *)
  Exp_common.subheader "sketch: seeded row subsampling (error vs time)";
  let sk_hosts = 24 and sk_seed = 421 in
  let r, y_learn, _ = make_campaign ~hosts:sk_hosts ~snapshots in
  let run_fraction fraction =
    let options =
      { VE.default_matfree_options with VE.sample = Some (fraction, sk_seed) }
    in
    Exp_common.time_best ~reps (fun () ->
        VE.estimate_matfree_ess ~options ~r ~y:y_learn ())
  in
  let _, (v_full, _, _) =
    Exp_common.time_best ~reps:1 (fun () ->
        VE.estimate_matfree_ess ~r ~y:y_learn ())
  in
  Exp_common.row "%-10s %-11s %-9s %-14s %-12s" "fraction" "seconds" "iters"
    "l2 relerr" "max relerr";
  Printf.bprintf buf
    "    \"sketch\": {\"hosts\": %d, \"seed\": %d, \"fractions\": [" sk_hosts
    sk_seed;
  List.iteri
    (fun fi fraction ->
      let t, (v, _, stats) = run_fraction fraction in
      let l2 = l2_rel_err v_full v and worst = worst_rel_diff v_full v in
      if not (Array.for_all Float.is_finite v) then
        failwith "solver sketch: non-finite variance estimate";
      Exp_common.row "%-10.2f %-11.4f %-9d %-14.2e %-12.2e" fraction t
        stats.CG.iterations l2 worst;
      if fi > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf
        "{\"fraction\": %.2f, \"seconds\": %.6f, \"iterations\": %d, \
         \"l2_rel_err_vs_full\": %.3e, \"max_rel_err_vs_full\": %.3e}"
        fraction t stats.CG.iterations l2 worst)
    [ 1.0; 0.5; 0.25; 0.1 ];
  Buffer.add_string buf "]}\n  }";
  Exp_common.note
    "sampling keeps a seeded deterministic subset of the pair rows; the \
     fraction-1.0 row is the exactness check (relerr 0 by construction)";
  Buffer.contents buf

let run_crossover () =
  ignore
    (crossover ~reps:3 ~snapshots:50 ~hosts_list:[ 8; 12; 16; 24; 32 ]
       ~dense_qr_max_paths:300 ~accept_hosts:46 ())

(* --- preconditioner crossover: hierarchical AS-sharded CGLS ------------- *)

(* Transit–stub campaign with deep stubs: the intra-stub tails make path
   lengths — and with them the augmented column counts — wildly skewed
   (a backbone virtual link sits in most pair rows, a stub-tail link in
   a handful), which is the regime where plain Jacobi column scaling
   stops helping and the AS-block structure pays. *)
let make_ts_campaign ~hosts ~snapshots () =
  let rng = Nstats.Rng.create (9200 + hosts) in
  let tb =
    Topology.Transit_stub.generate rng ~transit_domains:2 ~transit_size:4
      ~stubs_per_transit_node:2 ~stub_size:8 ~hosts ()
  in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:(snapshots + 1) in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:snapshots in
  (tb, red, r, y_learn, target)

let precond_tol = 1e-8

let precond_opts pc =
  { VE.default_matfree_options with VE.tol = precond_tol; mf_precond = pc }

(* iteration ratio the hierarchical preconditioner must clear vs plain
   Jacobi on the designated skewed instance (acceptance criterion) *)
let block_vs_jacobi_min_ratio = 2.

let precond_crossover ~reps ~snapshots ~hosts_list () =
  Exp_common.header
    "precond crossover: none vs jacobi vs block-jacobi (AS-sharded), tol 1e-8";
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n\
    \    \"topology\": \"transit-stub, 2x4 transit, deep stubs (skewed path \
     lengths)\",\n\
    \    \"tol\": %g,\n\
    \    \"iterations_are_host_independent\": true,\n\
    \    \"instances\": [\n"
    precond_tol;
  Exp_common.row "%-6s %-7s %-7s %-8s %-24s %-24s %-24s" "hosts" "paths"
    "links" "blocks" "none (iters, s)" "jacobi (iters, s)" "block-jacobi (iters, s)";
  let last_ratio = ref 0. in
  List.iteri
    (fun ti hosts ->
      let tb, red, r, y_learn, _ = make_ts_campaign ~hosts ~snapshots () in
      let part = Topology.Partition.by_as tb.Topology.Testbed.graph red in
      let groups = Topology.Partition.group_cols part in
      let nblocks = Array.length groups in
      let np = Sparse.rows r and nc = Sparse.cols r in
      let run pc =
        let t, (v, _, stats) =
          Exp_common.time_best ~reps (fun () ->
              VE.estimate_matfree_ess ~options:(precond_opts pc) ~r ~y:y_learn ())
        in
        if not (Array.for_all Float.is_finite v) then
          failwith "precond crossover: non-finite variance estimate";
        if not stats.CG.converged then
          failwith "precond crossover: cgls did not converge";
        (t, v, stats.CG.iterations)
      in
      let t_none, v_none, it_none = run VE.Pc_none in
      let t_jac, v_jac, it_jac = run VE.Pc_jacobi in
      let t_blk, v_blk, it_blk = run (VE.Pc_block_jacobi groups) in
      (* all three minimize the same least-squares problem: at tol 1e-8
         the estimates must agree far better than the sampling noise *)
      let err_jac = l2_rel_err v_none v_jac
      and err_blk = l2_rel_err v_none v_blk in
      if err_jac > 1e-4 || err_blk > 1e-4 then
        failwith
          (Printf.sprintf
             "precond crossover: preconditioners disagree (jacobi %.1e, \
              block %.1e)"
             err_jac err_blk);
      last_ratio := float_of_int it_jac /. float_of_int (max 1 it_blk);
      Exp_common.row "%-6d %-7d %-7d %-8d %6d  %-14.4f %6d  %-14.4f %6d  %-14.4f"
        hosts np nc nblocks it_none t_none it_jac t_jac it_blk t_blk;
      if ti > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "      {\"hosts\": %d, \"paths\": %d, \"links\": %d, \"blocks\": %d, \
         \"border_links\": %d, \"none\": {\"cgls_iterations\": %d, \
         \"seconds\": %.6f}, \"jacobi\": {\"cgls_iterations\": %d, \
         \"seconds\": %.6f}, \"block_jacobi\": {\"cgls_iterations\": %d, \
         \"seconds\": %.6f}, \"jacobi_over_block_iters\": %.2f}"
        hosts np nc nblocks
        (Topology.Partition.border_cols part)
        it_none t_none it_jac t_jac it_blk t_blk !last_ratio)
    hosts_list;
  Printf.bprintf buf "\n    ],\n    \"block_vs_jacobi_min_ratio\": %.1f\n  }"
    block_vs_jacobi_min_ratio;
  Exp_common.note
    "block-jacobi factors one Cholesky block per AS (border last) through \
     the pool; iterations are bit-for-bit jobs-invariant and \
     host-independent";
  if !last_ratio < block_vs_jacobi_min_ratio then
    failwith
      (Printf.sprintf
         "precond crossover: block-jacobi only %.2fx fewer iterations than \
          jacobi on the acceptance instance (need >= %.1fx)"
         !last_ratio block_vs_jacobi_min_ratio);
  Buffer.contents buf

(* --- warm-start batch serving: iteration savings ------------------------ *)

let warm_start_section ~snapshots ~hosts () =
  Exp_common.header "warm-start CGLS batch serving (snapshot chain)";
  let rng = Nstats.Rng.create (9300 + hosts) in
  let tb =
    Topology.Transit_stub.generate rng ~transit_domains:2 ~transit_size:4
      ~stubs_per_transit_node:2 ~stub_size:8 ~hosts ()
  in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  (* the quiet-network serving regime (heavy probing, sparse
     congestion): consecutive snapshots genuinely resemble each other,
     which is what a warm start can exploit. The headroom is bounded
     either way — rank reduction keeps exactly the high-variance
     (congested) columns, whose loss rates are redrawn every snapshot,
     so the chained solutions never collapse onto each other. *)
  let config =
    {
      (Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated)
      with
      Netsim.Snapshot.probes = 100000;
      congestion_prob = 0.03;
    }
  in
  let run = Netsim.Simulator.run rng config r ~count:(snapshots + 1) in
  let y_learn, _ = Netsim.Simulator.split_learning run ~learning:snapshots in
  let v, _, _ =
    VE.estimate_matfree_ess ~options:(precond_opts VE.Pc_jacobi) ~r ~y:y_learn ()
  in
  (* serving tolerance: at 1e-10 the small reduced system runs CGLS to
     finite termination (~rank iterations) from any start; 1e-6 is the
     regime where the convergence rate — and hence the warm start —
     governs the count *)
  let serve_tol = 1e-6 in
  let plan =
    Core.Plan.make
      ~backend:
        (Core.Plan.Cgls { tol = serve_tol; max_iter = None; precond = VE.Pc_none })
      ~r ~variances:v ()
  in
  let t_cold, (res_cold, it_cold) =
    Exp_common.time_best ~reps:1 (fun () ->
        with_cgls_iters (fun () -> Core.Plan.solve_batch plan y_learn))
  in
  let t_warm, (res_warm, it_warm) =
    Exp_common.time_best ~reps:1 (fun () ->
        with_cgls_iters (fun () ->
            Core.Plan.solve_batch ~warm_start:true plan y_learn))
  in
  (* warm starts may only move results within solver tolerance *)
  Array.iteri
    (fun l (cold : Core.Plan.result) ->
      let warm = res_warm.(l) in
      let err = l2_rel_err cold.Core.Plan.transmission warm.Core.Plan.transmission in
      if err > 100. *. serve_tol then
        failwith
          (Printf.sprintf "warm start: snapshot %d drifted %.1e from cold" l err))
    res_cold;
  let m = Array.length res_cold in
  Exp_common.row "%-22s %-11s %-9s" "mode" "iters" "seconds";
  Exp_common.row "%-22s %-11d %-9.4f" "cold (independent)" it_cold t_cold;
  Exp_common.row "%-22s %-11d %-9.4f" "warm (chained)" it_warm t_warm;
  Exp_common.note
    "%d snapshots; warm chain saved %.0f%% of the CGLS iterations (results \
     agree within solver tolerance)"
    m
    (100. *. (1. -. (float_of_int it_warm /. float_of_int (max 1 it_cold))));
  Printf.sprintf
    "{\"hosts\": %d, \"snapshots\": %d, \"cold\": {\"cgls_iterations\": %d, \
     \"seconds\": %.6f}, \"warm\": {\"cgls_iterations\": %d, \"seconds\": \
     %.6f}, \"iteration_savings\": %.3f}"
    hosts m it_cold t_cold it_warm t_warm
    (1. -. (float_of_int it_warm /. float_of_int (max 1 it_cold)))

let run_precond_crossover () =
  ignore (precond_crossover ~reps:3 ~snapshots:50 ~hosts_list:[ 16; 24; 40 ] ());
  ignore (warm_start_section ~snapshots:50 ~hosts:24 ())

(* precond smoke: a small transit-stub instance end-to-end through the
   three report paths — dense, raw cgls, and cgls + AS-sharded
   block-jacobi — asserting the reports agree. Wired into the default
   [dune runtest] tree via the [precond-smoke] alias. *)
let run_precond_smoke () =
  Exp_common.header "precond smoke (hierarchical solve parity)";
  let tb, red, r, y_learn, target = make_ts_campaign ~hosts:8 ~snapshots:12 () in
  let part = Topology.Partition.by_as tb.Topology.Testbed.graph red in
  let groups = Topology.Partition.group_cols part in
  let y_now = target.Netsim.Snapshot.y in
  let infer solver = Exp_common.infer ~solver ~r ~y_learn ~y_now () in
  let res_dense = infer Core.Lia.Dense_qr in
  let cgls precond = Core.Lia.Cgls { tol = 1e-12; max_iter = None; precond } in
  let res_cgls = infer (cgls VE.Pc_jacobi) in
  let res_blk = infer (cgls (VE.Pc_block_jacobi groups)) in
  let check name a b =
    let err = worst_rel_diff a.Core.Lia.loss_rates b.Core.Lia.loss_rates in
    if err > rel_err_bound then
      failwith (Printf.sprintf "precond-smoke: %s rel err %.2e" name err);
    if not (Array.for_all Float.is_finite b.Core.Lia.loss_rates) then
      failwith (Printf.sprintf "precond-smoke: %s non-finite" name);
    Exp_common.row "%-34s %.1e" (name ^ " rel err") err
  in
  check "cgls vs dense" res_dense res_cgls;
  check "cgls+block-jacobi vs dense" res_dense res_blk;
  (* block factorization must be bit-for-bit jobs-invariant *)
  let opts = precond_opts (VE.Pc_block_jacobi groups) in
  let v1, _, _ = VE.estimate_matfree_ess ~options:opts ~jobs:1 ~r ~y:y_learn () in
  let v2, _, _ = VE.estimate_matfree_ess ~options:opts ~jobs:4 ~r ~y:y_learn () in
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  if not (bits_equal v1 v2) then
    failwith "precond-smoke: block-jacobi jobs=4 differs from jobs=1";
  Exp_common.row "%-34s %s" "block-jacobi jobs {1,4}" "bit-for-bit";
  Exp_common.note "%d AS blocks (border %d cols) over %d links"
    (Array.length groups)
    (Topology.Partition.border_cols part)
    (Sparse.cols r)

(* --- solver smoke: wired into the default test tree -------------------- *)

(* Tiny-size assertions that the crossover's claims cannot silently rot:
   cgls/dense-qr parity in the full-rank regime, bit-for-bit jobs
   invariance, seeded sketch determinism, and honest non-convergence
   reporting when the iteration budget is starved. *)
let run_smoke () =
  Exp_common.header "solver smoke (matrix-free contracts)";
  let r, y_learn, target = make_campaign ~hosts:6 ~snapshots:8 in
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  (* parity against the dense-qr oracle *)
  let v_mf, _, stats =
    VE.estimate_matfree_ess ~options:full_rank_mf ~r ~y:y_learn ()
  in
  let v_dqr = dense_qr_oracle ~r ~y:y_learn in
  let err = worst_rel_diff v_dqr v_mf in
  if err > rel_err_bound then
    failwith (Printf.sprintf "solver-smoke: parity rel err %.2e" err);
  if not stats.CG.converged then failwith "solver-smoke: cgls did not converge";
  Exp_common.row "%-34s %.1e" "cgls vs dense-qr rel err" err;
  (* bit-for-bit jobs invariance *)
  let v1, _, _ = VE.estimate_matfree_ess ~jobs:1 ~r ~y:y_learn () in
  let v2, _, _ = VE.estimate_matfree_ess ~jobs:2 ~r ~y:y_learn () in
  if not (bits_equal v1 v2) then
    failwith "solver-smoke: jobs=2 differs from jobs=1";
  Exp_common.row "%-34s %s" "jobs {1,2} invariance" "bit-for-bit";
  (* seeded sketch determinism *)
  let sk =
    { VE.default_matfree_options with VE.sample = Some (0.5, 99) }
  in
  let s1, _, _ = VE.estimate_matfree_ess ~options:sk ~r ~y:y_learn () in
  let s2, _, _ = VE.estimate_matfree_ess ~options:sk ~r ~y:y_learn () in
  if not (bits_equal s1 s2) then
    failwith "solver-smoke: sketch not deterministic for a fixed seed";
  if not (Array.for_all Float.is_finite s1) then
    failwith "solver-smoke: sketch produced non-finite estimates";
  Exp_common.row "%-34s %s" "sketch (fraction 0.5, seeded)" "deterministic";
  (* starved budget: still completes, reports non-convergence *)
  let starved =
    { VE.default_matfree_options with VE.max_iter = Some 1 }
  in
  let v_starved, _, st = VE.estimate_matfree_ess ~options:starved ~r ~y:y_learn () in
  if st.CG.converged then failwith "solver-smoke: starved run claims convergence";
  if not (Array.for_all Float.is_finite v_starved) then
    failwith "solver-smoke: starved run produced non-finite estimates";
  Exp_common.row "%-34s iters=%d relres=%.1e" "starved (max_iter=1) reported"
    st.CG.iterations st.CG.relative_residual;
  (* the cgls plan backend serves the target snapshot *)
  let res =
    Exp_common.infer ~solver:Core.Lia.default_cgls ~r ~y_learn
      ~y_now:target.Netsim.Snapshot.y ()
  in
  if not (Array.for_all Float.is_finite res.Core.Lia.loss_rates) then
    failwith "solver-smoke: non-finite loss rates from the cgls backend";
  Exp_common.note "matrix-free contracts hold end to end"

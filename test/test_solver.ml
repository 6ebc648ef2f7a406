(* Property tests for the matrix-free iterative solve path: the implicit
   augmented operator must agree with the materialized matrix, CGLS must
   agree with the dense oracles to solver tolerance, the end-to-end
   --solver cgls pipeline must track the dense pipeline on clean and
   faulted input, and everything must be bit-for-bit jobs-invariant. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Qr = Linalg.Qr
module Lsqr = Linalg.Lsqr
module Rng = Nstats.Rng
module Augmented = Core.Augmented
module VE = Core.Variance_estimator

let vec_bits_equal = Generators.vec_bits_equal

let close ?(rtol = 1e-6) ?(atol = 1e-8) a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Float.abs (x -. y)
         <= atol +. (rtol *. Float.max (Float.abs x) (Float.abs y)))
       a b

(* small routing matrix + random dense vectors driven by one seed *)
let routing_of_seed seed =
  let r, _, _ = Generators.random_instance seed in
  r

let random_vec rng n = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.)

(* --- implicit operator vs materialized matrix --------------------------- *)

let prop_matfree_matches_build =
  QCheck.Test.make ~count:25
    ~name:"Augmented.matfree: products match the materialized matrix"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let rng = Rng.create (seed + 17) in
      let a = Augmented.build r in
      let explicit = Lsqr.of_sparse a in
      let implicit = Augmented.matfree r in
      implicit.Lsqr.rows = Sparse.rows a
      && implicit.Lsqr.cols = Sparse.cols a
      && begin
           let v = random_vec rng implicit.Lsqr.cols in
           let w = random_vec rng implicit.Lsqr.rows in
           close ~rtol:1e-12 ~atol:1e-12
             (explicit.Lsqr.apply v) (implicit.Lsqr.apply v)
           && close ~rtol:1e-12 ~atol:1e-12
                (explicit.Lsqr.apply_t w) (implicit.Lsqr.apply_t w)
         end)

let prop_matfree_jobs_invariant =
  QCheck.Test.make ~count:15
    ~name:"Augmented.matfree: bit-for-bit identical for jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let rng = Rng.create (seed + 31) in
      let op1 = Augmented.matfree ~jobs:1 r in
      let v = random_vec rng op1.Lsqr.cols in
      let w = random_vec rng op1.Lsqr.rows in
      let y1 = op1.Lsqr.apply v and x1 = op1.Lsqr.apply_t w in
      List.for_all
        (fun jobs ->
          let op = Augmented.matfree ~jobs r in
          vec_bits_equal y1 (op.Lsqr.apply v)
          && vec_bits_equal x1 (op.Lsqr.apply_t w))
        [ 2; 4 ])

let prop_mask_is_row_deletion =
  QCheck.Test.make ~count:15
    ~name:"Augmented.matfree mask: = zeroing the dead rows, bit-for-bit"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let np = Sparse.rows r in
      let nrows = Augmented.row_count ~np in
      let rng = Rng.create (seed + 43) in
      let mask =
        Bytes.init nrows (fun _ -> if Rng.bool rng 0.7 then '\001' else '\000')
      in
      let plain = Augmented.matfree r in
      let masked = Augmented.matfree ~mask r in
      let v = random_vec rng plain.Lsqr.cols in
      let w = random_vec rng nrows in
      (* apply: a dead row's entry is 0, every live row is untouched *)
      let y = plain.Lsqr.apply v in
      Array.iteri (fun k _ -> if Bytes.get mask k = '\000' then y.(k) <- 0.) y;
      (* apply_t: dead rows contribute nothing, so zeroing their weights
         in the unmasked operator runs the same float ops *)
      let w0 = Array.copy w in
      Array.iteri (fun k _ -> if Bytes.get mask k = '\000' then w0.(k) <- 0.) w0;
      vec_bits_equal y (masked.Lsqr.apply v)
      && vec_bits_equal (plain.Lsqr.apply_t w0) (masked.Lsqr.apply_t w))

let prop_column_counts_exact =
  QCheck.Test.make ~count:15
    ~name:"Augmented.matfree_column_counts: exact diag(AtA) of the live rows"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let a = Augmented.build r in
      let nc = Sparse.cols a in
      let expected = Array.make nc 0. in
      for k = 0 to Sparse.rows a - 1 do
        Array.iter (fun j -> expected.(j) <- expected.(j) +. 1.) (Sparse.row a k)
      done;
      vec_bits_equal expected (Augmented.matfree_column_counts r))

(* --- hierarchical decomposition: AS partition + block preconditioner ---- *)

(* a transit-stub instance carries real AS labels, so the partition has
   several intra-AS groups plus a border group *)
let ts_instance seed =
  let rng = Rng.create seed in
  let hosts = 5 + (seed mod 5) in
  let tb = Topology.Transit_stub.generate rng ~hosts () in
  let red = Topology.Testbed.routing tb in
  (tb, red)

let ts_campaign seed =
  let tb, red = ts_instance seed in
  let r = red.Topology.Routing.matrix in
  let rng = Rng.create (seed + 101) in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:12 in
  let y_learn, _ = Netsim.Simulator.split_learning run ~learning:11 in
  (tb, red, r, y_learn)

(* dense Gram block of a column subset, for driving Precond.block_jacobi
   from a dense test matrix *)
let gram_block_dense m idx =
  let k = Array.length idx in
  Matrix.init k k (fun a b ->
      let s = ref 0. in
      for i = 0 to Matrix.rows m - 1 do
        s := !s +. (Matrix.get m i idx.(a) *. Matrix.get m i idx.(b))
      done;
      !s)

(* split 0..n-1 into contiguous groups with seeded cut points *)
let random_groups rng n =
  let rec cuts acc lo =
    if lo >= n then List.rev acc
    else begin
      let len = 1 + Rng.int rng (max 1 (n / 3)) in
      let hi = min n (lo + len) in
      cuts (Array.init (hi - lo) (fun k -> lo + k) :: acc) hi
    end
  in
  Array.of_list (cuts [] 0)

let prop_precond_cgls_matches_qr =
  QCheck.Test.make ~count:20
    ~name:
      "Lsqr.cgls ?precond: jacobi and block-jacobi leave the minimizer on \
       the dense QR solution"
    Generators.seed_arb
    (fun seed ->
      let m = Generators.random_dense seed in
      let rng = Rng.create (seed + 59) in
      let b = random_vec rng (Matrix.rows m) in
      let exact = Qr.solve m b in
      let op = Lsqr.of_dense m in
      let n = op.Lsqr.cols in
      let counts =
        Array.init n (fun j ->
            let s = ref 0. in
            for i = 0 to Matrix.rows m - 1 do
              s := !s +. (Matrix.get m i j ** 2.)
            done;
            !s)
      in
      let groups = random_groups rng n in
      let blocks = Array.map (fun idx -> (idx, gram_block_dense m idx)) groups in
      List.for_all
        (fun pc ->
          let x, stats = Lsqr.cgls ~tol:1e-13 ~precond:pc op b in
          stats.Linalg.Conjugate_gradient.converged && close ~rtol:1e-6 exact x)
        [
          Linalg.Precond.jacobi counts;
          Linalg.Precond.block_jacobi ~cols:n blocks;
        ])

let prop_block_jacobi_jobs_invariant =
  QCheck.Test.make ~count:8
    ~name:
      "Pc_block_jacobi: estimates bit-identical for jobs in {1,2,4} \
       (transit-stub AS partition)"
    Generators.seed_arb
    (fun seed ->
      let tb, red, r, y_learn = ts_campaign seed in
      let part = Topology.Partition.by_as tb.Topology.Testbed.graph red in
      let groups = Topology.Partition.group_cols part in
      let options =
        {
          VE.default_matfree_options with
          VE.mf_precond = VE.Pc_block_jacobi groups;
        }
      in
      let v1, _, _ =
        VE.estimate_matfree_ess ~options ~jobs:1 ~r ~y:y_learn ()
      in
      List.for_all
        (fun jobs ->
          let v, _, _ =
            VE.estimate_matfree_ess ~options ~jobs ~r ~y:y_learn ()
          in
          vec_bits_equal v1 v)
        [ 2; 4 ])

(* --- tiling covers the triangle exactly once ---------------------------- *)

let test_tile_bounds_cover_triangle () =
  List.iter
    (fun (tile, np) ->
      let seen = Hashtbl.create 64 in
      let ntiles = Parallel.Chunk.tile_count ~tile ~np in
      for t = 0 to ntiles - 1 do
        let (ilo, ihi), (jlo, jhi) = Parallel.Chunk.tile_bounds ~tile ~np t in
        for i = ilo to ihi - 1 do
          for j = max i jlo to jhi - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "pair (%d,%d) seen once (tile=%d np=%d)" i j tile np)
              false
              (Hashtbl.mem seen (i, j));
            Hashtbl.add seen (i, j) ()
          done
        done
      done;
      Alcotest.(check int)
        (Printf.sprintf "pair count (tile=%d np=%d)" tile np)
        (np * (np + 1) / 2)
        (Hashtbl.length seen))
    [ (1, 1); (1, 7); (3, 7); (3, 12); (5, 5); (7, 3); (256, 40); (4, 0) ]

(* --- CGLS vs dense QR ---------------------------------------------------- *)

let prop_cgls_matches_qr =
  QCheck.Test.make ~count:25
    ~name:"Lsqr.cgls: least-squares solution matches dense QR"
    Generators.seed_arb
    (fun seed ->
      let m = Generators.random_dense seed in
      let rng = Rng.create (seed + 7) in
      let b = random_vec rng (Matrix.rows m) in
      let exact = Qr.solve m b in
      let x, stats = Lsqr.cgls ~tol:1e-13 (Lsqr.of_dense m) b in
      stats.Linalg.Conjugate_gradient.converged && close ~rtol:1e-6 exact x)

(* --- matrix-free estimator vs streaming oracle --------------------------- *)

(* Tight parity needs a unique minimizer: with every pair row kept, the
   full augmented matrix has full column rank (Theorem 1), so streaming
   (normal equations) and CGLS converge to the same point. The
   drop-negative rule can cost column rank, in which case the two solvers
   return different — equally valid — pseudo-solutions; that regime is
   covered by the weaker property below. *)
let prop_matfree_estimator_matches_streaming =
  QCheck.Test.make ~count:15
    ~name:
      "estimate_matfree_ess: variances and ess match the streaming path \
       (full-rank regime)"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let v_ref, ess_ref =
        VE.estimate_streaming_ess ~drop_negative:false ~clamp:false ~r
          ~y:y_learn ()
      in
      let options =
        {
          VE.default_matfree_options with
          VE.tol = 1e-14;
          mf_drop_negative = false;
          mf_clamp = false;
        }
      in
      let v, ess, stats = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
      stats.Linalg.Conjugate_gradient.converged
      && ess = ess_ref
      && close ~rtol:1e-6 v_ref v)

let prop_matfree_estimator_default_options_sane =
  QCheck.Test.make ~count:15
    ~name:
      "estimate_matfree_ess: default options keep ess accounting and \
       finiteness of the streaming path"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let v_ref, ess_ref = VE.estimate_streaming_ess ~r ~y:y_learn () in
      let v, ess, _ = VE.estimate_matfree_ess ~r ~y:y_learn () in
      ess = ess_ref
      && Array.length v = Array.length v_ref
      && Array.for_all (fun x -> Float.is_finite x && x >= 0.) v)

let prop_matfree_estimator_jobs_invariant =
  QCheck.Test.make ~count:10
    ~name:"estimate_matfree_ess: bit-for-bit identical for jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let v1, ess1, _ = VE.estimate_matfree_ess ~jobs:1 ~r ~y:y_learn () in
      List.for_all
        (fun jobs ->
          let v, ess, _ = VE.estimate_matfree_ess ~jobs ~r ~y:y_learn () in
          vec_bits_equal v1 v && ess = ess1)
        [ 2; 4 ])

let prop_full_sample_is_identity =
  QCheck.Test.make ~count:10
    ~name:"sample = 1.0: bit-for-bit the unsampled matrix-free estimate"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let np = Sparse.rows r in
      Bytes.for_all
        (fun c -> c = '\001')
        (Augmented.sample_mask ~np ~fraction:1.0 ~seed)
      && begin
           let options =
             { VE.default_matfree_options with VE.sample = Some (1.0, seed) }
           in
           let v_full, ess_full, _ = VE.estimate_matfree_ess ~r ~y:y_learn () in
           let v, ess, _ = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
           vec_bits_equal v_full v && ess = ess_full
         end)

(* --- end-to-end: Lia with --solver cgls vs dense ------------------------- *)

(* The full-rank regime under the production toggles: learning
   snapshots with exact covariances R diag(v) Rᵀ make every linked
   pair's covariance positive, so the drop-negative rule keeps every row
   and Theorem 1 gives a unique Phase-1 minimizer. Those snapshots are
   centered, not valid log rates, so the two phases run without the
   ingest quarantine of [Lia.infer_checked]. *)
let prop_infer_cgls_matches_dense =
  QCheck.Test.make ~count:12
    ~name:
      "Lia.learn + Plan solver:cgls: loss rates track the dense pipeline \
       (full-rank regime)"
    Generators.seed_arb
    (fun seed ->
      let r, _, target = Generators.random_tree_trial seed in
      let rng = Rng.create seed in
      let v = Array.init (Sparse.cols r) (fun _ -> Rng.uniform rng 1e-6 1e-2) in
      let y_learn = Generators.exact_campaign r v in
      let solver =
        Core.Lia.Cgls { tol = 1e-14; max_iter = None; precond = VE.Pc_jacobi }
      in
      let y_now = target.Netsim.Snapshot.y in
      let dense = Generators.seed_pipeline ~r ~y_learn ~y_now () in
      let cgls = Generators.seed_pipeline ~solver ~r ~y_learn ~y_now () in
      (* kept is chosen greedily in estimated-variance order, so
         solver-tolerance differences can elect a different (equally
         valid) basis on near-ties — the estimates are what must agree *)
      close ~rtol:1e-6 dense.Core.Lia.variances cgls.Core.Lia.variances
      && close ~rtol:1e-6 dense.Core.Lia.loss_rates cgls.Core.Lia.loss_rates)

let prop_checked_cgls_verdict_parity =
  QCheck.Test.make ~count:12
    ~name:
      "Lia.infer_checked solver:cgls: same verdict as dense on faulted input, \
       jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, target = Generators.random_tree_trial seed in
      let spec = Generators.random_fault_spec seed in
      let y_learn, _ = Netsim.Faults.apply spec y_learn in
      let dense = Core.Lia.infer_checked ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
      let check jobs =
        let c =
          Core.Lia.infer_checked ~solver:Core.Lia.default_cgls ~jobs ~r ~y_learn
            ~y_now:target.Netsim.Snapshot.y ()
        in
        Core.Lia.health_label c.Core.Lia.health
        = Core.Lia.health_label dense.Core.Lia.health
        && Option.is_some c.Core.Lia.result
           = Option.is_some dense.Core.Lia.result
        && (match c.Core.Lia.result with
           | None -> true
           | Some res ->
               Array.for_all Float.is_finite res.Core.Lia.loss_rates
               && Array.for_all Float.is_finite res.Core.Lia.variances)
      in
      List.for_all check [ 1; 2; 4 ])

(* --- Plan Cgls backend --------------------------------------------------- *)

(* every preconditioner the shared builder makes for R*: raw, Jacobi,
   and block-Jacobi over interleaved (non-contiguous) groups that the
   plan must first restrict to its kept columns *)
let prop_plan_cgls_matches_dense_qr =
  QCheck.Test.make ~count:15
    ~name:"Plan backend Cgls: solves track Dense_qr to solver tolerance"
    Generators.seed_arb
    (fun seed ->
      let r, variances, y = Generators.random_instance seed in
      let y_now = Matrix.row y 0 in
      let dense = Core.Plan.solve (Core.Plan.make ~r ~variances ()) y_now in
      List.for_all
        (fun precond ->
          let backend = Core.Plan.Cgls { tol = 1e-12; max_iter = None; precond } in
          let plan = Core.Plan.make ~backend ~r ~variances () in
          let it = Core.Plan.solve plan y_now in
          Core.Plan.backend plan = backend
          && close ~rtol:1e-6 dense.Core.Plan.loss_rates it.Core.Plan.loss_rates
          && dense.Core.Plan.kept = it.Core.Plan.kept)
        [
          VE.Pc_none;
          VE.Pc_jacobi;
          VE.Pc_block_jacobi (Generators.interleaved_groups ~cols:(Sparse.cols r) 3);
        ])

let prop_plan_cgls_batch_matches_solve =
  QCheck.Test.make ~count:12
    ~name:"Plan backend Cgls: solve_batch row = solve, bit-for-bit, jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r, variances, y = Generators.random_instance seed in
      let backend = Core.Plan.Cgls { tol = 1e-12; max_iter = None; precond = Core.Variance_estimator.Pc_none } in
      let plan = Core.Plan.make ~backend ~r ~variances () in
      let singles =
        Array.init (Matrix.rows y) (fun l -> Core.Plan.solve plan (Matrix.row y l))
      in
      List.for_all
        (fun jobs ->
          let batch = Core.Plan.solve_batch ~jobs plan y in
          Array.length batch = Array.length singles
          && Array.for_all2
               (fun (b : Core.Plan.result) (s : Core.Plan.result) ->
                 vec_bits_equal b.Core.Plan.loss_rates s.Core.Plan.loss_rates
                 && vec_bits_equal b.Core.Plan.transmission
                      s.Core.Plan.transmission)
               batch singles)
        [ 1; 2; 4 ])

(* --- nonconvergence reporting -------------------------------------------- *)

let test_cgls_nonconvergence_reported () =
  let m = Generators.random_dense 97 in
  let rng = Rng.create 97 in
  let b = random_vec rng (Matrix.rows m) in
  let _, stats = Lsqr.cgls ~tol:1e-15 ~max_iter:1 (Lsqr.of_dense m) b in
  Alcotest.(check bool) "starved solve did not converge" false
    stats.Linalg.Conjugate_gradient.converged;
  Alcotest.(check int) "one iteration ran" 1
    stats.Linalg.Conjugate_gradient.iterations;
  Alcotest.(check bool) "relative residual is positive" true
    (stats.Linalg.Conjugate_gradient.relative_residual > 0.)

(* the nan pin: a zero-norm rhs (or one annihilated by the transpose)
   historically produced relative_residual = 0/0 = nan; the guard pins
   the whole stats record to a clean converged zero *)
let test_cgls_zero_rhs () =
  let r = routing_of_seed 5 in
  let op = Lsqr.of_sparse r in
  let b = Vector.zeros op.Lsqr.rows in
  let x, stats = Lsqr.cgls op b in
  Alcotest.(check bool) "solution is exactly zero" true
    (Array.for_all (fun v -> v = 0.) x);
  Alcotest.(check int) "no iterations spent" 0
    stats.Linalg.Conjugate_gradient.iterations;
  Alcotest.(check bool) "reported converged" true
    stats.Linalg.Conjugate_gradient.converged;
  Alcotest.(check (float 0.)) "relative residual pinned to 0, not nan" 0.
    stats.Linalg.Conjugate_gradient.relative_residual;
  (* same guard on the warm-started path: x0 must come back unchanged *)
  let x0 = Array.init op.Lsqr.cols (fun i -> float_of_int i) in
  let x', stats' = Lsqr.cgls ~x0 op b in
  Alcotest.(check bool) "warm start over zero rhs returns zeros" true
    (Array.for_all (fun v -> v = 0.) x');
  Alcotest.(check bool) "warm-start relative residual is finite" false
    (Float.is_nan stats'.Linalg.Conjugate_gradient.relative_residual)

let test_sample_mask_fraction () =
  let np = 60 in
  let n = Augmented.row_count ~np in
  let count mask =
    let c = ref 0 in
    Bytes.iter (fun b -> if b = '\001' then incr c) mask;
    !c
  in
  let half = Augmented.sample_mask ~np ~fraction:0.5 ~seed:3 in
  Alcotest.(check bool) "same seed, same mask" true
    (Bytes.equal half (Augmented.sample_mask ~np ~fraction:0.5 ~seed:3));
  Alcotest.(check bool) "fraction 0.5 keeps roughly half" true
    (abs ((2 * count half) - n) < n / 4);
  Alcotest.(check int) "fraction 0 keeps nothing" 0
    (count (Augmented.sample_mask ~np ~fraction:0. ~seed:3))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matfree_matches_build;
      prop_matfree_jobs_invariant;
      prop_mask_is_row_deletion;
      prop_column_counts_exact;
      prop_cgls_matches_qr;
      prop_matfree_estimator_matches_streaming;
      prop_matfree_estimator_default_options_sane;
      prop_matfree_estimator_jobs_invariant;
      prop_full_sample_is_identity;
      prop_infer_cgls_matches_dense;
      prop_checked_cgls_verdict_parity;
      prop_plan_cgls_matches_dense_qr;
      prop_plan_cgls_batch_matches_solve;
      prop_precond_cgls_matches_qr;
      prop_block_jacobi_jobs_invariant;
    ]

let unit_tests =
  [
    Alcotest.test_case "tile_bounds covers the pair triangle exactly once"
      `Quick test_tile_bounds_cover_triangle;
    Alcotest.test_case "cgls reports nonconvergence" `Quick
      test_cgls_nonconvergence_reported;
    Alcotest.test_case "cgls zero rhs: converged, residual 0, never nan" `Quick
      test_cgls_zero_rhs;
    Alcotest.test_case "sample_mask is seeded and honours the fraction" `Quick
      test_sample_mask_fraction;
  ]

let () =
  Alcotest.run "solver" [ ("matrix-free", properties); ("units", unit_tests) ]

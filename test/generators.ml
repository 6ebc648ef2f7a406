(* Shared qcheck generators and bit-level equality helpers for the test
   suites. Linked into every test executable (no top-level effects):
   keep construction here, assertions in the suites. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator

(* --- bit-level equality -------------------------------------------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal v1 v2 =
  Array.length v1 = Array.length v2 && Array.for_all2 bits_equal v1 v2

let matrix_bits_equal m1 m2 =
  Matrix.rows m1 = Matrix.rows m2
  && Matrix.cols m1 = Matrix.cols m2
  && begin
       let ok = ref true in
       for i = 0 to Matrix.rows m1 - 1 do
         for j = 0 to Matrix.cols m1 - 1 do
           if not (bits_equal (Matrix.get m1 i j) (Matrix.get m2 i j)) then
             ok := false
         done
       done;
       !ok
     end

(* --- LIA end to end -------------------------------------------------------- *)

(* LIA's two phases composed from their public APIs: [Lia.learn], then a
   single-use plan on [Lia.plan_backend solver]. A [Clean] verdict of
   [Lia.infer_checked] on the same inputs must equal it bit for bit. *)
let seed_pipeline ?(solver = Core.Lia.Dense_qr) ?jobs ~r ~y_learn ~y_now () =
  let variances, _ = Core.Lia.learn ~solver ?jobs ~r ~y:y_learn () in
  let backend = Core.Lia.plan_backend solver in
  Core.Plan.solve (Core.Plan.make ?jobs ~backend ~r ~variances ()) y_now

(* The result of [Lia.infer_checked]; a refusal fails the test with the
   verdict. *)
let infer ?solver ~r ~y_learn ~y_now () =
  match Core.Lia.infer_checked ?solver ~r ~y_learn ~y_now () with
  | { Core.Lia.result = Some res; _ } -> res
  | { Core.Lia.health; result = None } ->
      failwith ("Lia refused: " ^ Core.Lia.health_summary health)

(* --- random problem instances ------------------------------------------- *)

let seed_arb = QCheck.int_range 1 5000
(** The common "seed drives everything" qcheck input. *)

(* Random tree topology + a simulated campaign: 12 snapshots, learn on
   the first 11, diagnose the last. *)
let random_tree_trial seed =
  let rng = Rng.create seed in
  let n = 30 + (seed mod 120) in
  let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Simulator.run rng config r ~count:12 in
  let y_learn, target = Simulator.split_learning run ~learning:11 in
  (r, y_learn, target)

(* Random tree (odd seeds: Waxman mesh) + synthetic variances and log
   measurements; for linear-algebraic identities where no simulator
   campaign is needed. *)
let random_instance seed =
  let rng = Rng.create seed in
  let tb =
    if seed mod 2 = 0 then
      Topology.Tree_gen.generate rng ~nodes:(30 + (seed mod 80)) ~max_branching:5 ()
    else Topology.Waxman.generate rng ~nodes:40 ~hosts:(5 + (seed mod 5)) ()
  in
  let r = (Topology.Testbed.routing tb).Topology.Routing.matrix in
  let nc = Sparse.cols r and np = Sparse.rows r in
  let variances = Array.init nc (fun _ -> Rng.uniform rng 1e-6 1e-2) in
  let y = Matrix.init (5 + (seed mod 7)) np (fun _ _ -> -.Rng.uniform rng 0. 0.5) in
  (r, variances, y)

(* [k] interleaved column groups, [{j | j mod k = g}]: a partition
   whose groups are non-contiguous index sets, for driving block-Jacobi
   preconditioners on topologies without AS labels. *)
let interleaved_groups ~cols k =
  Array.init k (fun g -> Array.init ((cols - g + k - 1) / k) (fun t -> g + (t * k)))

(* Learning snapshots whose sample covariance is exactly
   [R diag(v) Rᵀ] (Theorem 1's exact-covariance premise): m = n_c + 1
   rows, the link columns are the Helmert contrasts — centered and
   orthonormal — scaled by sqrt((m-1) v_e), and path columns sum their
   links. *)
let exact_campaign r v =
  let nc = Sparse.cols r in
  let m = nc + 1 in
  let x =
    Matrix.init m nc (fun l e ->
        let k = e + 1 in
        let h =
          if l < k then 1. else if l = k then -.float_of_int k else 0.
        in
        h /. sqrt (float_of_int (k * (k + 1)))
        *. sqrt (float_of_int (m - 1) *. v.(e)))
  in
  Matrix.init m (Sparse.rows r) (fun l i ->
      Array.fold_left (fun acc e -> acc +. Matrix.get x l e) 0. (Sparse.row r i))

(* The dense-QR oracle of Phase 1: Householder QR of the materialized
   augmented matrix A (Definition 1) — the paper's own solve, which the
   production estimators never form — against the flattened covariances
   [sigma_star] (eq. 7). Under [drop_negative] (default true) the rows
   with a negative covariance are filtered first, as the estimators do;
   the solution is left unclamped. *)
let dense_qr_oracle ?(drop_negative = true) r sigma_star =
  let keep =
    Array.of_list
      (List.filter
         (fun k -> (not drop_negative) || sigma_star.(k) >= 0.)
         (List.init (Array.length sigma_star) Fun.id))
  in
  let a = Sparse.select_rows (Core.Augmented.build r) keep in
  Linalg.Qr.solve (Sparse.to_dense a) (Array.map (fun k -> sigma_star.(k)) keep)

(* Random well-conditioned dense tall matrix for QR-level properties. *)
let random_dense seed =
  let rng = Rng.create seed in
  let m = 10 + (seed mod 40) in
  let n = 3 + (seed mod (max 1 (m - 3))) in
  Matrix.init m n (fun _ _ -> Rng.uniform rng (-2.) 2.)

(* Random fault specs for chaos properties: seeds drive every clause, so
   the same qcheck seed reproduces the same fault schedule. *)
let random_fault_spec seed =
  let rng = Rng.create (seed * 2 + 1) in
  let p rng scale = if Rng.bool rng 0.5 then Rng.uniform rng 0. scale else 0. in
  let clauses =
    [
      Printf.sprintf "seed=%d" (1 + (seed mod 1000));
      Printf.sprintf "drop=%g" (p rng 0.2);
      Printf.sprintf "miss=%g" (p rng 0.1);
      Printf.sprintf "nan=%g" (p rng 0.05);
      Printf.sprintf "oor=%g" (p rng 0.05);
      Printf.sprintf "neg=%g" (p rng 0.05);
      Printf.sprintf "dup=%g" (p rng 0.2);
    ]
    @ (if Rng.bool rng 0.5 then
         [ Printf.sprintf "churn=%d@%g" (1 + (seed mod 3)) (Rng.uniform rng 0.3 0.9) ]
       else [])
    @ if Rng.bool rng 0.5 then [ Printf.sprintf "route_shift=%g" (Rng.uniform rng 0.2 0.8) ]
      else []
  in
  let spec = String.concat "," clauses in
  match Netsim.Faults.parse spec with
  | Ok t -> t
  | Error msg -> failwith (Printf.sprintf "generator produced bad spec %S: %s" spec msg)

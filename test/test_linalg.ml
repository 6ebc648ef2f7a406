(* Unit and property tests for the dense/sparse linear algebra substrate. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))

let check_floatish msg = Alcotest.(check (float 1e-6)) msg

let vec = Alcotest.testable Vector.pp (Vector.approx_equal ~tol:1e-9)

let mat = Alcotest.testable Matrix.pp (Matrix.approx_equal ~tol:1e-9)

(* --- Vector ----------------------------------------------------------- *)

let test_vector_basic () =
  let x = Vector.of_list [ 1.; 2.; 3. ] in
  let y = Vector.of_list [ 4.; 5.; 6. ] in
  Alcotest.check vec "add" (Vector.of_list [ 5.; 7.; 9. ]) (Vector.add x y);
  Alcotest.check vec "sub" (Vector.of_list [ -3.; -3.; -3. ]) (Vector.sub x y);
  Alcotest.check vec "scale" (Vector.of_list [ 2.; 4.; 6. ]) (Vector.scale 2. x);
  check_float "dot" 32. (Vector.dot x y);
  check_float "sum" 6. (Vector.sum x);
  check_float "mean" 2. (Vector.mean x);
  check_float "norm2" (sqrt 14.) (Vector.norm2 x);
  check_float "norm_inf" 3. (Vector.norm_inf x);
  Alcotest.check vec "hadamard" (Vector.of_list [ 4.; 10.; 18. ]) (Vector.hadamard x y)

let test_vector_axpy () =
  let x = Vector.of_list [ 1.; 2. ] in
  let y = Vector.of_list [ 10.; 20. ] in
  Vector.axpy 3. x y;
  Alcotest.check vec "axpy" (Vector.of_list [ 13.; 26. ]) y

let test_vector_dim_mismatch () =
  let x = Vector.zeros 2 and y = Vector.zeros 3 in
  Alcotest.check_raises "add" (Invalid_argument "Vector.add: dimension mismatch")
    (fun () -> ignore (Vector.add x y));
  Alcotest.check_raises "dot" (Invalid_argument "Vector.dot: dimension mismatch")
    (fun () -> ignore (Vector.dot x y))

let test_vector_empty_mean () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Vector.mean: empty vector") (fun () ->
      ignore (Vector.mean [||]))

let test_vector_extremes () =
  let x = Vector.of_list [ 3.; -1.; 7.; 7.; 0. ] in
  Alcotest.(check int) "max_index" 2 (Vector.max_index x);
  Alcotest.(check int) "min_index" 1 (Vector.min_index x)

let test_vector_norm2_overflow () =
  let big = 1e200 in
  let x = Vector.of_list [ big; big ] in
  check_floatish "scaled norm" (big *. sqrt 2. /. 1e200) (Vector.norm2 x /. 1e200)

let test_sort_indices () =
  let x = Vector.of_list [ 3.; 1.; 2. ] in
  Alcotest.(check (array int)) "ascending" [| 1; 2; 0 |] (Vector.sort_indices x);
  Alcotest.(check (array int)) "descending" [| 0; 2; 1 |]
    (Vector.sort_indices ~descending:true x);
  (* stability on ties *)
  let y = Vector.of_list [ 1.; 1.; 0. ] in
  Alcotest.(check (array int)) "stable" [| 2; 0; 1 |] (Vector.sort_indices y)

let test_dist2 () =
  let x = Vector.of_list [ 0.; 3. ] and y = Vector.of_list [ 4.; 0. ] in
  check_float "dist" 5. (Vector.dist2 x y)

(* --- Matrix ----------------------------------------------------------- *)

let test_matrix_basic () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_float "get" 3. (Matrix.get m 1 0);
  Alcotest.check vec "row" [| 3.; 4. |] (Matrix.row m 1);
  Alcotest.check vec "col" [| 2.; 4. |] (Matrix.col m 1);
  Alcotest.check mat "transpose"
    (Matrix.of_arrays [| [| 1.; 3. |]; [| 2.; 4. |] |])
    (Matrix.transpose m);
  Alcotest.check mat "identity mul" m (Matrix.mul m (Matrix.identity 2))

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let b = Matrix.of_arrays [| [| 7.; 8. |]; [| 9.; 10. |]; [| 11.; 12. |] |] in
  Alcotest.check mat "a*b"
    (Matrix.of_arrays [| [| 58.; 64. |]; [| 139.; 154. |] |])
    (Matrix.mul a b);
  Alcotest.check vec "a*x" [| 14.; 32. |]
    (Matrix.mul_vec a (Vector.of_list [ 1.; 2.; 3. ]));
  Alcotest.check vec "aT*y" [| 9.; 12.; 15. |]
    (Matrix.tmul_vec a (Vector.of_list [ 1.; 2. ]))

let test_matrix_gram () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let g = Matrix.gram a in
  Alcotest.check mat "gram = aT a" (Matrix.mul (Matrix.transpose a) a) g;
  Alcotest.(check bool) "symmetric" true (Matrix.is_symmetric g)

let test_matrix_select_drop () =
  let m = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  Alcotest.check mat "select"
    (Matrix.of_arrays [| [| 3.; 1. |]; [| 6.; 4. |] |])
    (Matrix.select_cols m [| 2; 0 |])

let test_matrix_diag () =
  let d = Matrix.diag (Vector.of_list [ 1.; 2. ]) in
  Alcotest.check mat "diag" (Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 2. |] |]) d;
  Alcotest.check vec "diagonal" [| 1.; 2. |] (Matrix.diagonal d)

let test_matrix_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows")
    (fun () -> ignore (Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

(* --- QR ---------------------------------------------------------------- *)

let test_qr_solve_square () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Qr.solve a (Vector.of_list [ 5.; 10. ]) in
  Alcotest.check vec "solution" (Vector.of_list [ 1.; 3. ]) x

let test_qr_least_squares () =
  (* Overdetermined: fit y = a + b t at t = 0,1,2 with y = 1,2,4 (not exact). *)
  let a =
    Matrix.of_arrays [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |] |]
  in
  let x = Qr.solve a (Vector.of_list [ 1.; 2.; 4. ]) in
  (* closed form: intercept 5/6, slope 3/2 *)
  check_floatish "intercept" (5. /. 6.) x.(0);
  check_floatish "slope" 1.5 x.(1)

let test_qr_rank () =
  let full = Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  Alcotest.(check int) "full rank" 2 (Qr.matrix_rank full);
  let deficient =
    Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 2.; 4.; 6. |]; [| 1.; 1.; 1. |] |]
  in
  Alcotest.(check int) "rank 2" 2 (Qr.matrix_rank deficient);
  Alcotest.(check int) "zero matrix" 0 (Qr.matrix_rank (Matrix.zeros 3 3))

let test_qr_r_factor () =
  let a = Matrix.of_arrays [| [| 3.; 1. |]; [| 4.; 2. |] |] in
  let f = Qr.factorize a in
  let r = Qr.r f in
  (* |r11| = norm of first column *)
  check_floatish "r11" 5. (Float.abs (Matrix.get r 0 0));
  check_floatish "r below diag" 0. (Matrix.get r 1 0)

let test_qr_pivots () =
  let a = Matrix.of_arrays [| [| 0.; 5. |]; [| 0.; 1. |] |] in
  let f = Qr.factorize_pivoted a in
  (* the larger column (index 1) is pivoted first *)
  Alcotest.(check (array int)) "pivot order" [| 1; 0 |] (Qr.pivots f);
  let unpivoted = Qr.factorize a in
  Alcotest.(check (array int)) "identity without pivoting" [| 0; 1 |]
    (Qr.pivots unpivoted)

let test_qr_singular_raises () =
  let a = Matrix.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  match Qr.solve a (Vector.of_list [ 1.; 1. ]) with
  | _ -> Alcotest.fail "expected failure on singular system"
  | exception Failure _ -> ()

(* --- Cholesky ----------------------------------------------------------- *)

let test_cholesky_solve () =
  (* solve [[4,2],[2,3]] x = [10, 8] -> x = [1.75, 1.5] *)
  let m = Matrix.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let x = Cholesky.solve m (Vector.of_list [ 10.; 8. ]) in
  check_floatish "x0" 1.75 x.(0);
  check_floatish "x1" 1.5 x.(1)

let test_cholesky_not_pd () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not pd" Cholesky.Not_positive_definite (fun () ->
      ignore (Cholesky.factorize m))

let test_cholesky_regularized () =
  (* Singular PSD matrix: regularization must make it solvable. *)
  let m = Matrix.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let f = Cholesky.factorize_regularized m in
  let x = Cholesky.solve_vec f (Vector.of_list [ 2.; 2. ]) in
  check_floatish "x0+x1 ~ 2" 2. (x.(0) +. x.(1))

let test_cg_solve_ids_increase () =
  let a = Conjugate_gradient.new_solve_id () in
  let b = Conjugate_gradient.new_solve_id () in
  Alcotest.(check bool) "fresh ids increase" true (a >= 1 && b > a)

let test_cg_instrumented_follows_metrics () =
  let reg = Obs.Metrics.default in
  let was = Obs.Metrics.enabled reg in
  Obs.Metrics.enable reg;
  let on = Conjugate_gradient.instrumented () in
  Obs.Metrics.disable reg;
  let off = Conjugate_gradient.instrumented () in
  if was then Obs.Metrics.enable reg;
  Alcotest.(check bool) "on with metrics" true on;
  Alcotest.(check bool) "off with every sink off" false off

let test_cg_nonconvergence_counted () =
  let reg = Obs.Metrics.default in
  let c = Obs.Metrics.counter reg "lia_solver_nonconverged_total" in
  Obs.Metrics.enable reg;
  let before = Obs.Metrics.counter_value c in
  Conjugate_gradient.note_nonconvergence ~solver:"cgls" ~iterations:3
    ~relative_residual:0.5;
  let after = Obs.Metrics.counter_value c in
  Obs.Metrics.disable reg;
  Alcotest.(check int) "one more non-converged solve" (before + 1) after

(* --- Sparse ------------------------------------------------------------- *)

let test_sparse_basic () =
  let s = Sparse.create ~cols:4 [| [| 0; 2 |]; [| 1; 2; 3 |]; [||] |] in
  Alcotest.(check int) "rows" 3 (Sparse.rows s);
  Alcotest.(check int) "cols" 4 (Sparse.cols s);
  Alcotest.(check int) "nnz" 5 (Sparse.nnz s);
  Alcotest.(check bool) "get 0 2" true (Sparse.get s 0 2);
  Alcotest.(check bool) "get 0 1" false (Sparse.get s 0 1);
  Alcotest.(check (array int)) "col counts" [| 1; 1; 2; 1 |] (Sparse.column_counts s)

let test_sparse_invalid () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Sparse.create: row not strictly increasing or out of range")
    (fun () -> ignore (Sparse.create ~cols:3 [| [| 2; 1 |] |]))

let test_sparse_row_product () =
  Alcotest.(check (array int)) "intersection" [| 1; 4 |]
    (Sparse.row_product [| 0; 1; 4 |] [| 1; 2; 4; 5 |]);
  Alcotest.(check (array int)) "disjoint" [||]
    (Sparse.row_product [| 0 |] [| 1 |])

let test_sparse_mul () =
  let s = Sparse.create ~cols:3 [| [| 0; 1 |]; [| 2 |] |] in
  Alcotest.check vec "mul_vec" [| 3.; 7. |]
    (Sparse.mul_vec s (Vector.of_list [ 1.; 2.; 7. ]));
  Alcotest.check vec "tmul_vec" [| 1.; 1.; 2. |]
    (Sparse.tmul_vec s (Vector.of_list [ 1.; 2. ]))

let test_sparse_dense_roundtrip () =
  let s = Sparse.create ~cols:3 [| [| 0; 2 |]; [| 1 |] |] in
  Alcotest.check mat "dense"
    (Matrix.of_arrays [| [| 1.; 0.; 1. |]; [| 0.; 1.; 0. |] |])
    (Sparse.to_dense s)

let test_sparse_select_cols () =
  let s = Sparse.create ~cols:4 [| [| 0; 2; 3 |]; [| 1; 3 |] |] in
  let s' = Sparse.select_cols s [| 3; 0 |] in
  (* new col 0 = old 3, new col 1 = old 0 *)
  Alcotest.(check bool) "r0 has old3" true (Sparse.get s' 0 0);
  Alcotest.(check bool) "r0 has old0" true (Sparse.get s' 0 1);
  Alcotest.(check bool) "r1 has old3" true (Sparse.get s' 1 0);
  Alcotest.(check bool) "r1 lost old1" false (Sparse.get s' 1 1)

let test_sparse_transpose () =
  let s = Sparse.create ~cols:3 [| [| 0; 1 |]; [| 1; 2 |] |] in
  let t = Sparse.transpose s in
  Alcotest.check mat "transpose agrees with dense"
    (Matrix.transpose (Sparse.to_dense s))
    (Sparse.to_dense t)

let test_sparse_normal_equations () =
  let s = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |]; [| 0; 1 |] |] in
  let g = Sparse.normal_matrix s in
  Alcotest.check mat "gram" (Matrix.gram (Sparse.to_dense s)) g;
  let b = Vector.of_list [ 1.; 2.; 3.5 ] in
  let x = Sparse.least_squares s b in
  let dense_x = Qr.solve (Sparse.to_dense s) b in
  Alcotest.(check bool) "matches dense QR" true (Vector.approx_equal ~tol:1e-6 x dense_x)

(* --- Ortho -------------------------------------------------------------- *)

let test_ortho_independence () =
  let b = Ortho.create ~dim:3 in
  Alcotest.(check bool) "e1" true (Ortho.try_add b [| 1.; 0.; 0. |]);
  Alcotest.(check bool) "e2" true (Ortho.try_add b [| 0.; 1.; 0. |]);
  Alcotest.(check bool) "e1+e2 dependent" false (Ortho.try_add b [| 1.; 1.; 0. |]);
  Alcotest.(check int) "size" 2 (Ortho.size b);
  Alcotest.(check bool) "e3 independent" true (Ortho.try_add b [| 0.; 0.; 1. |]);
  Alcotest.(check bool) "now full" false (Ortho.try_add b [| 1.; 2.; 3. |])

let test_ortho_zero () =
  let b = Ortho.create ~dim:2 in
  Alcotest.(check bool) "zero dependent" false (Ortho.try_add b [| 0.; 0. |])

let test_ortho_in_span () =
  let b = Ortho.create ~dim:2 in
  ignore (Ortho.try_add b [| 1.; 1. |]);
  Alcotest.(check bool) "span yes" true (Ortho.in_span b [| 2.; 2. |]);
  Alcotest.(check bool) "span no" false (Ortho.in_span b [| 1.; 0. |]);
  Alcotest.(check int) "unchanged" 1 (Ortho.size b)

let test_ortho_copy_isolated () =
  let b = Ortho.create ~dim:2 in
  ignore (Ortho.try_add b [| 1.; 0. |]);
  let c = Ortho.copy b in
  ignore (Ortho.try_add c [| 0.; 1. |]);
  Alcotest.(check int) "original unchanged" 1 (Ortho.size b);
  Alcotest.(check int) "copy grew" 2 (Ortho.size c)

(* --- Properties ---------------------------------------------------------- *)

let float_small = QCheck.Gen.float_range (-100.) 100.

let gen_vec n = QCheck.Gen.(array_size (return n) float_small)

let gen_square_matrix =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return (n * n)) float_small >>= fun data ->
    return (n, data))

let prop_qr_reconstructs =
  QCheck.Test.make ~count:100 ~name:"QR: least squares residual is orthogonal"
    QCheck.(
      make
        Gen.(
          int_range 1 6 >>= fun n ->
          gen_vec (n + 3) >>= fun b ->
          array_size (return ((n + 3) * n)) float_small >>= fun data ->
          return (n, data, b)))
    (fun (n, data, b) ->
      let m = n + 3 in
      let a = Matrix.init m n (fun i j -> data.((i * n) + j)) in
      match Qr.solve a b with
      | exception Failure _ -> QCheck.assume_fail ()
      | x ->
          (* Normal equations: Aᵀ(Ax − b) = 0 *)
          let r = Vector.sub (Matrix.mul_vec a x) b in
          let g = Matrix.tmul_vec a r in
          Vector.norm_inf g < 1e-6 *. (1. +. Vector.norm_inf b))

let prop_cholesky_solves =
  QCheck.Test.make ~count:100 ~name:"Cholesky: L Lᵀ x = b solved correctly"
    (QCheck.make gen_square_matrix) (fun (n, data) ->
      let a = Matrix.init n n (fun i j -> data.((i * n) + j)) in
      (* make SPD: aᵀa + I *)
      let spd = Matrix.add (Matrix.gram a) (Matrix.identity n) in
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let x = Cholesky.solve spd b in
      let r = Vector.sub (Matrix.mul_vec spd x) b in
      Vector.norm_inf r < 1e-6 *. (1. +. Vector.norm_inf b))

let prop_sparse_matches_dense =
  QCheck.Test.make ~count:100 ~name:"Sparse: mul_vec matches dense"
    QCheck.(
      make
        Gen.(
          int_range 1 10 >>= fun cols ->
          list_size (int_range 1 8) (list_size (int_range 0 cols) (int_range 0 (cols - 1)))
          >>= fun rows ->
          gen_vec cols >>= fun x -> return (cols, rows, x)))
    (fun (cols, rows, x) ->
      let mk_row l = List.sort_uniq compare l |> Array.of_list in
      let rows = Array.of_list (List.map mk_row rows) in
      let s = Sparse.create ~cols rows in
      let d = Sparse.to_dense s in
      Vector.approx_equal ~tol:1e-9 (Sparse.mul_vec s x) (Matrix.mul_vec d x)
      && Vector.approx_equal ~tol:1e-9
           (Sparse.tmul_vec s (Array.make (Sparse.rows s) 1.))
           (Matrix.tmul_vec d (Array.make (Sparse.rows s) 1.)))

let prop_rank_bounded =
  QCheck.Test.make ~count:100 ~name:"QR rank ≤ min(m,n) and Ortho agrees"
    QCheck.(
      make
        Gen.(
          int_range 1 6 >>= fun m ->
          int_range 1 6 >>= fun n ->
          array_size (return (m * n)) (Gen.oneofl [ 0.; 1. ]) >>= fun data ->
          return (m, n, data)))
    (fun (m, n, data) ->
      let a = Matrix.init m n (fun i j -> data.((i * n) + j)) in
      let r = Qr.matrix_rank a in
      let b = Ortho.create ~dim:m in
      let greedy = ref 0 in
      for j = 0 to n - 1 do
        if Ortho.try_add b (Matrix.col a j) then incr greedy
      done;
      r <= min m n && r = !greedy)

(* --- blocked kernels against the unblocked reference ------------------- *)

(* The unblocked, row-by-row Cholesky and the row-major Householder QR the
   library used before its kernels were blocked, kept here verbatim as
   oracles: the blocked kernels must reproduce them bit for bit. *)
module Reference = struct
  let cholesky m =
    let n = Matrix.rows m in
    let l = Array.init n (fun i -> Array.init n (fun j -> Matrix.get m i j)) in
    for j = 0 to n - 1 do
      let lj = l.(j) in
      let s = ref lj.(j) in
      for k = 0 to j - 1 do
        let ljk = lj.(k) in
        s := !s -. (ljk *. ljk)
      done;
      if !s <= 0. || Float.is_nan !s then raise Cholesky.Not_positive_definite;
      let d = sqrt !s in
      lj.(j) <- d;
      for i = j + 1 to n - 1 do
        let li = l.(i) in
        let s = ref li.(j) in
        for k = 0 to j - 1 do
          s := !s -. (li.(k) *. lj.(k))
        done;
        li.(j) <- !s /. d
      done
    done;
    Matrix.init n n (fun i j -> if j <= i then l.(i).(j) else 0.)

  let cholesky_regularized ?(ridge = 1e-10) m =
    let n = Matrix.rows m in
    let mean_diag =
      if n = 0 then 0.
      else begin
        let s = ref 0. in
        for i = 0 to n - 1 do
          s := !s +. Float.abs (Matrix.get m i i)
        done;
        !s /. float_of_int n
      end
    in
    let base = if mean_diag > 0. then mean_diag else 1. in
    let rec attempt r =
      let shifted =
        if r = 0. then m
        else
          Matrix.init n n (fun i j ->
              if i = j then Matrix.get m i j +. (r *. base) else Matrix.get m i j)
      in
      match cholesky shifted with
      | f -> f
      | exception Cholesky.Not_positive_definite ->
          if r = 0. then attempt ridge
          else if r > 1e-2 then raise Cholesky.Not_positive_definite
          else attempt (r *. 10.)
    in
    attempt 0.

  type qr = { m : int; a : Matrix.t; beta : float array; piv : int array }

  let house_column a m k =
    let alpha = ref 0. in
    for i = k to m - 1 do
      let x = Matrix.get a i k in
      alpha := !alpha +. (x *. x)
    done;
    let alpha = sqrt !alpha in
    if alpha = 0. then 0.
    else begin
      let akk = Matrix.get a k k in
      let alpha = if akk > 0. then -.alpha else alpha in
      let v0 = akk -. alpha in
      if v0 = 0. then 0.
      else begin
        for i = k + 1 to m - 1 do
          Matrix.set a i k (Matrix.get a i k /. v0)
        done;
        let vtv = ref 1. in
        for i = k + 1 to m - 1 do
          let v = Matrix.get a i k in
          vtv := !vtv +. (v *. v)
        done;
        Matrix.set a k k alpha;
        2. /. !vtv
      end
    end

  let apply_house_to_col a m k beta j =
    let vtx = ref (Matrix.get a k j) in
    for i = k + 1 to m - 1 do
      vtx := !vtx +. (Matrix.get a i k *. Matrix.get a i j)
    done;
    let s = beta *. !vtx in
    Matrix.set a k j (Matrix.get a k j -. s);
    for i = k + 1 to m - 1 do
      Matrix.set a i j (Matrix.get a i j -. (s *. Matrix.get a i k))
    done

  let qr ~pivot mat =
    let m = Matrix.rows mat and n = Matrix.cols mat in
    let a = Matrix.copy mat in
    let steps = min m n in
    let beta = Array.make (max steps 0) 0. in
    let piv = Array.init n (fun j -> j) in
    let colnorm2 =
      if pivot then Array.init n (fun j -> Vector.dot (Matrix.col a j) (Matrix.col a j))
      else [||]
    in
    let swap_cols j1 j2 =
      if j1 <> j2 then begin
        for i = 0 to m - 1 do
          let x = Matrix.get a i j1 in
          Matrix.set a i j1 (Matrix.get a i j2);
          Matrix.set a i j2 x
        done;
        let p = piv.(j1) in
        piv.(j1) <- piv.(j2);
        piv.(j2) <- p;
        let c = colnorm2.(j1) in
        colnorm2.(j1) <- colnorm2.(j2);
        colnorm2.(j2) <- c
      end
    in
    for k = 0 to steps - 1 do
      if pivot then begin
        let best = ref k in
        for j = k + 1 to n - 1 do
          if colnorm2.(j) > colnorm2.(!best) then best := j
        done;
        swap_cols k !best
      end;
      let b = house_column a m k in
      beta.(k) <- b;
      if b <> 0. then
        for j = k + 1 to n - 1 do
          apply_house_to_col a m k b j
        done;
      if pivot then
        for j = k + 1 to n - 1 do
          let rkj = Matrix.get a k j in
          colnorm2.(j) <- Float.max 0. (colnorm2.(j) -. (rkj *. rkj))
        done
    done;
    { m; a; beta; piv }

  let r f =
    let k = min f.m (Matrix.cols f.a) in
    Matrix.init k (Matrix.cols f.a) (fun i j -> if j >= i then Matrix.get f.a i j else 0.)

  let apply_qt f b =
    let y = Array.copy b in
    for k = 0 to Array.length f.beta - 1 do
      let beta = f.beta.(k) in
      if beta <> 0. then begin
        let vty = ref y.(k) in
        for i = k + 1 to f.m - 1 do
          vty := !vty +. (Matrix.get f.a i k *. y.(i))
        done;
        let s = beta *. !vty in
        y.(k) <- y.(k) -. s;
        for i = k + 1 to f.m - 1 do
          y.(i) <- y.(i) -. (s *. Matrix.get f.a i k)
        done
      end
    done;
    y
end

module Rng = Nstats.Rng

let bits_equal = Generators.vec_bits_equal

let matrix_bits_equal = Generators.matrix_bits_equal

(* [Some factor], or [None] when the factorization raises
   [Not_positive_definite] *)
let outcome factor =
  match factor () with
  | l -> Some l
  | exception Cholesky.Not_positive_definite -> None

(* Gram matrices of order n: [`Spd] from a tall random matrix, [`Singular]
   from a wide one (rank n/2), [`Counts] the 0/1 incidence Gram the Phase-1
   normal equations produce, rank-deficient when it has fewer rows than n. *)
let gram_of_kind rng kind n =
  match kind with
  | `Spd -> Matrix.gram (Matrix.init (n + 2) n (fun _ _ -> Rng.uniform rng (-1.) 1.))
  | `Singular -> Matrix.gram (Matrix.init (n / 2) n (fun _ _ -> Rng.uniform rng (-1.) 1.))
  | `Counts ->
      let rows =
        Array.init (max 1 (n - 3 + Rng.int rng 8)) (fun _ ->
            List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n)
            |> List.sort_uniq compare |> Array.of_list)
      in
      Sparse.normal_matrix ~jobs:1 (Sparse.create ~cols:n rows)

(* the blocked kernels raise exactly when the reference does, and
   otherwise return bit-identical factors, for every jobs value *)
let cholesky_case_ok g =
  let plain = outcome (fun () -> Reference.cholesky g) in
  let regularized = outcome (fun () -> Reference.cholesky_regularized g) in
  let agrees expected factor =
    match (expected, outcome (fun () -> Cholesky.lower (factor ()))) with
    | None, None -> true
    | Some e, Some l -> matrix_bits_equal e l
    | _ -> false
  in
  List.for_all
    (fun jobs ->
      agrees plain (fun () -> Cholesky.factorize ~jobs g)
      && agrees regularized (fun () -> Cholesky.factorize_regularized ~jobs g))
    [ 1; 2; 4 ]

let prop_cholesky_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"Cholesky (+regularized): bit-equal to the unblocked reference, jobs in {1,2,4}"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 200 in
      let kind = [| `Spd; `Singular; `Counts |].(seed mod 3) in
      cholesky_case_ok (gram_of_kind rng kind n))

(* orders on both sides of the 32-column panel, the 4-row tile and the
   order-128 switch to the pool *)
let test_cholesky_edges () =
  let rng = Rng.create 11 in
  List.iter
    (fun n ->
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            (Printf.sprintf "n = %d" n) true
            (cholesky_case_ok (gram_of_kind rng kind n)))
        [ `Spd; `Singular; `Counts ])
    [ 1; 2; 3; 4; 5; 7; 8; 31; 32; 33; 34; 35; 36; 37; 63; 64; 65; 127; 128; 129;
      130; 131; 132; 133; 159; 160; 161; 199; 200 ];
  (* every ridge fails: both raise after the last retry *)
  Alcotest.(check bool) "negative definite" true
    (cholesky_case_ok (Matrix.scale (-1.) (Matrix.identity 140)))

(* R, the pivots and Qᵀ applied to every basis vector (which exposes each
   Householder vector and coefficient) all bit-equal to the reference *)
let qr_agrees ~pivot a =
  let expected = Reference.qr ~pivot a in
  let basis =
    List.init (Matrix.rows a) (fun i ->
        Array.init (Matrix.rows a) (fun k -> if k = i then 1. else 0.))
  in
  let expected_qt = List.map (Reference.apply_qt expected) basis in
  List.for_all
    (fun jobs ->
      let f = if pivot then Qr.factorize_pivoted ~jobs a else Qr.factorize ~jobs a in
      matrix_bits_equal (Reference.r expected) (Qr.r f)
      && Qr.pivots f = expected.Reference.piv
      && List.for_all2 (fun e q -> bits_equal q (Qr.apply_qt f e)) basis expected_qt)
    [ 1; 2; 4 ]

(* entries uniform in [-2, 2], each column zeroed with probability 1/5 so
   some reflectors are trivial (beta = 0) *)
let random_qr_input rng m n =
  let zero = Array.init n (fun _ -> Rng.int rng 5 = 0) in
  Matrix.init m n (fun _ j -> if zero.(j) then 0. else Rng.uniform rng (-2.) 2.)

let prop_qr_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"Qr.factorize(+pivoted): bit-equal to the row-major reference, jobs in {1,2,4}"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = 1 + Rng.int rng 60 and n = 1 + Rng.int rng 60 in
      let a = random_qr_input rng m n in
      qr_agrees ~pivot:false a && qr_agrees ~pivot:true a)

(* sizes whose trailing updates span several pool blocks *)
let test_qr_parallel_sizes () =
  let rng = Rng.create 5 in
  List.iter
    (fun (m, n) ->
      let a = random_qr_input rng m n in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d" m n) true
        (qr_agrees ~pivot:false a && qr_agrees ~pivot:true a))
    [ (200, 120); (150, 260); (257, 64) ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_qr_reconstructs; prop_cholesky_solves; prop_sparse_matches_dense;
      prop_rank_bounded; prop_cholesky_matches_reference; prop_qr_matches_reference ]

let () =
  Alcotest.run "linalg"
    [
      ( "vector",
        [
          Alcotest.test_case "basic ops" `Quick test_vector_basic;
          Alcotest.test_case "axpy" `Quick test_vector_axpy;
          Alcotest.test_case "dimension mismatch" `Quick test_vector_dim_mismatch;
          Alcotest.test_case "empty mean" `Quick test_vector_empty_mean;
          Alcotest.test_case "extremes" `Quick test_vector_extremes;
          Alcotest.test_case "norm2 overflow" `Quick test_vector_norm2_overflow;
          Alcotest.test_case "sort_indices" `Quick test_sort_indices;
          Alcotest.test_case "dist2" `Quick test_dist2;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "basic" `Quick test_matrix_basic;
          Alcotest.test_case "mul" `Quick test_matrix_mul;
          Alcotest.test_case "gram" `Quick test_matrix_gram;
          Alcotest.test_case "select/drop cols" `Quick test_matrix_select_drop;
          Alcotest.test_case "diag" `Quick test_matrix_diag;
          Alcotest.test_case "ragged input" `Quick test_matrix_ragged;
        ] );
      ( "qr",
        [
          Alcotest.test_case "square solve" `Quick test_qr_solve_square;
          Alcotest.test_case "least squares" `Quick test_qr_least_squares;
          Alcotest.test_case "rank" `Quick test_qr_rank;
          Alcotest.test_case "R factor" `Quick test_qr_r_factor;
          Alcotest.test_case "pivots" `Quick test_qr_pivots;
          Alcotest.test_case "singular raises" `Quick test_qr_singular_raises;
          Alcotest.test_case "reference at parallel sizes" `Quick test_qr_parallel_sizes;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "not positive definite" `Quick test_cholesky_not_pd;
          Alcotest.test_case "regularized" `Quick test_cholesky_regularized;
          Alcotest.test_case "reference at panel and tile edges" `Quick test_cholesky_edges;
        ] );
      ( "conjugate_gradient",
        [
          Alcotest.test_case "solve ids increase" `Quick test_cg_solve_ids_increase;
          Alcotest.test_case "instrumented follows metrics" `Quick
            test_cg_instrumented_follows_metrics;
          Alcotest.test_case "non-convergence counted" `Quick
            test_cg_nonconvergence_counted;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "basic" `Quick test_sparse_basic;
          Alcotest.test_case "invalid rows" `Quick test_sparse_invalid;
          Alcotest.test_case "row product" `Quick test_sparse_row_product;
          Alcotest.test_case "mul" `Quick test_sparse_mul;
          Alcotest.test_case "dense roundtrip" `Quick test_sparse_dense_roundtrip;
          Alcotest.test_case "select cols" `Quick test_sparse_select_cols;
          Alcotest.test_case "transpose" `Quick test_sparse_transpose;
          Alcotest.test_case "normal equations" `Quick test_sparse_normal_equations;
        ] );
      ( "ortho",
        [
          Alcotest.test_case "independence" `Quick test_ortho_independence;
          Alcotest.test_case "zero vector" `Quick test_ortho_zero;
          Alcotest.test_case "in_span" `Quick test_ortho_in_span;
          Alcotest.test_case "copy isolation" `Quick test_ortho_copy_isolated;
        ] );
      ("properties", properties);
    ]

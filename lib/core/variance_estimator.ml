module Sparse = Linalg.Sparse

let m_phase1 =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per phase-1 variance-estimation kernel run"
    "lia_phase1_kernel_seconds"

let m_pairs =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Path pairs swept by the phase-1 kernels" "lia_pairs_total"

let m_pairs_skipped =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Path pairs skipped for lack of overlapping snapshots"
    "lia_pairs_skipped_total"

let g_samples_min =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Smallest pairwise-complete sample count used by the last phase-1 run"
    "lia_effective_samples_min"

let m_cgls_iters =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS iterations run by the matrix-free phase-1 solver"
    "lia_cgls_iterations"

type ess = { pairs_total : int; pairs_used : int; samples_min : int }

type precond_spec = Pc_none | Pc_jacobi | Pc_block_jacobi of int array array

type matfree_options = {
  tol : float;
  max_iter : int option;
  mf_drop_negative : bool;
  mf_clamp : bool;
  mf_min_pair_samples : int;
  sample : (float * int) option;
  mf_precond : precond_spec;
}

let default_matfree_options =
  {
    tol = 1e-10;
    max_iter = None;
    mf_drop_negative = true;
    mf_clamp = true;
    mf_min_pair_samples = 2;
    sample = None;
    mf_precond = Pc_jacobi;
  }

let preconditioner ?jobs ~cols ~diag ~gram_blocks = function
  | Pc_none -> (None, "none")
  | Pc_jacobi -> (Some (Linalg.Precond.jacobi (diag ())), "jacobi")
  | Pc_block_jacobi groups ->
      let sorted g =
        let g = Array.copy g in
        Array.sort Int.compare g;
        g
      in
      let groups =
        Array.to_list groups
        |> List.filter (fun g -> Array.length g > 0)
        |> List.map sorted |> Array.of_list
      in
      let blocks = Array.combine groups (gram_blocks groups) in
      (Some (Linalg.Precond.block_jacobi ?jobs ~cols blocks), "block_jacobi")

(* Centered measurement columns, one array per path, for cheap pair
   covariances. Missing measurements (NaN) survive centering as NaN and
   are excluded pairwise in [pair_cov]; a column with no missing cells
   takes the exact historical code path, so a complete matrix is
   estimated with bit-for-bit the same operations as before the
   fault-tolerance work. Shared by the streaming and matrix-free
   estimators so both see the very same covariances. *)
let center_columns ?jobs ~np ~m y =
  let centered = Array.make np [||] in
  let has_missing = Array.make np false in
  Parallel.Pool.parallel_for ?jobs ~min_block:64 ~n:np (fun i ->
      let col = Array.init m (fun l -> Linalg.Matrix.get y l i) in
      let holes = Array.exists Float.is_nan col in
      has_missing.(i) <- holes;
      let mu =
        if not holes then Array.fold_left ( +. ) 0. col /. float_of_int m
        else begin
          let sum = ref 0. and n = ref 0 in
          Array.iter
            (fun x ->
              if not (Float.is_nan x) then begin
                sum := !sum +. x;
                incr n
              end)
            col;
          if !n = 0 then Float.nan else !sum /. float_of_int !n
        end
      in
      centered.(i) <- Array.map (fun x -> x -. mu) col);
  (centered, has_missing)

(* pairwise-complete covariance: value plus effective sample count *)
let pair_cov ~m centered has_missing i j =
  let ci = centered.(i) and cj = centered.(j) in
  if not (has_missing.(i) || has_missing.(j)) then begin
    let acc = ref 0. in
    for l = 0 to m - 1 do
      acc := !acc +. (ci.(l) *. cj.(l))
    done;
    (!acc /. float_of_int (m - 1), m)
  end
  else begin
    let acc = ref 0. and n = ref 0 in
    for l = 0 to m - 1 do
      let a = ci.(l) and b = cj.(l) in
      if not (Float.is_nan a || Float.is_nan b) then begin
        acc := !acc +. (a *. b);
        incr n
      end
    done;
    if !n < 2 then (Float.nan, !n) else (!acc /. float_of_int (!n - 1), !n)
  end

let estimate_streaming_ess ?jobs ?(drop_negative = true) ?(clamp = true)
    ?(min_pair_samples = 2) ~r ~y () =
  let np = Sparse.rows r and nc = Sparse.cols r in
  let m = Linalg.Matrix.rows y in
  if Linalg.Matrix.cols y <> np then
    invalid_arg "Variance_estimator.estimate_streaming: width mismatch";
  if m < 2 then
    invalid_arg "Variance_estimator.estimate_streaming: need at least 2 snapshots";
  if min_pair_samples < 2 then
    invalid_arg "Variance_estimator.estimate_streaming: min_pair_samples < 2";
  Obs.Metrics.add m_pairs (np * (np + 1) / 2);
  Obs.Probe.kernel ~hist:m_phase1
    ~args:
      [ ("np", Obs.Field.Int np); ("nc", Obs.Field.Int nc); ("m", Obs.Field.Int m) ]
    "variance_estimator.estimate_streaming"
  @@ fun () ->
  let centered, has_missing = center_columns ?jobs ~np ~m y in
  let cov i j = pair_cov ~m centered has_missing i j in
  (* Accumulate G = AᵀA and b = AᵀΣ̂* over the non-empty augmented rows of
     the pair triangle, cut into blocks whose count depends only on the
     problem size (never on [jobs]). Determinism:
     - G's entries are counts of 1.0 increments — exact in floating
       point — so per-domain accumulators merge to the same bits in any
       order;
     - b sums real covariances, so each block owns a private partial
       vector and the partials are merged in block index order below.
     The same floating-point operations therefore run in the same order
     for every [jobs] value, and the result is bit-for-bit identical. *)
  let npairs = np * (np + 1) / 2 in
  let blocks = Parallel.Chunk.block_count npairs in
  let partial_b = Array.init blocks (fun _ -> Array.make nc 0.) in
  (* per-block effective-sample-size tallies (exact integers, so their
     merge below is independent of domain scheduling) *)
  let blk_nonempty = Array.make blocks 0 in
  let blk_skipped = Array.make blocks 0 in
  let blk_min_n = Array.make blocks max_int in
  let gbufs = Parallel.Pool.Buffers.create (fun () -> Array.make (nc * nc) 0.) in
  Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
      let lo, hi = Parallel.Chunk.range ~blocks ~n:npairs bk in
      let b = partial_b.(bk) in
      let g = Parallel.Pool.Buffers.borrow gbufs in
      let last_i = ref (-1) in
      let ri = ref [||] in
      Parallel.Chunk.iter_pairs ~np ~lo ~hi (fun _ i j ->
          if i <> !last_i then begin
            last_i := i;
            ri := Sparse.row r i
          end;
          let row =
            if i = j then !ri else Sparse.row_product !ri (Sparse.row r j)
          in
          if Array.length row > 0 then begin
            blk_nonempty.(bk) <- blk_nonempty.(bk) + 1;
            let s, n = cov i j in
            if n < min_pair_samples then
              (* too few overlapping snapshots: this pair's covariance
                 carries no usable signal, drop its augmented row *)
              blk_skipped.(bk) <- blk_skipped.(bk) + 1
            else begin
              if n < blk_min_n.(bk) then blk_min_n.(bk) <- n;
              if s >= 0. || not drop_negative then begin
                let len = Array.length row in
                for a = 0 to len - 1 do
                  let ja = row.(a) in
                  b.(ja) <- b.(ja) +. s;
                  let base = ja * nc in
                  for c = 0 to len - 1 do
                    let k = base + row.(c) in
                    g.(k) <- g.(k) +. 1.
                  done
                done
              end
            end
          end);
      Parallel.Pool.Buffers.return gbufs g);
  let gm = Linalg.Matrix.zeros nc nc in
  let g = Linalg.Matrix.unsafe_data gm in
  List.iter
    (fun p ->
      for k = 0 to (nc * nc) - 1 do
        g.(k) <- g.(k) +. p.(k)
      done)
    (Parallel.Pool.Buffers.all gbufs);
  let b = Array.make nc 0. in
  Array.iter
    (fun p ->
      for j = 0 to nc - 1 do
        b.(j) <- b.(j) +. p.(j)
      done)
    partial_b;
  let f = Linalg.Cholesky.factorize_regularized ?jobs gm in
  let v = Linalg.Cholesky.solve_vec f b in
  let v = if clamp then Array.map (fun x -> Float.max 0. x) v else v in
  let pairs_total = Array.fold_left ( + ) 0 blk_nonempty in
  let pairs_skipped = Array.fold_left ( + ) 0 blk_skipped in
  let samples_min = Array.fold_left min max_int blk_min_n in
  let ess =
    {
      pairs_total;
      pairs_used = pairs_total - pairs_skipped;
      samples_min = (if samples_min = max_int then 0 else samples_min);
    }
  in
  Obs.Metrics.add m_pairs_skipped pairs_skipped;
  Obs.Metrics.set g_samples_min (float_of_int ess.samples_min);
  (v, ess)

let estimate_matfree_ess ?(options = default_matfree_options) ?jobs ~r ~y () =
  let np = Sparse.rows r and nc = Sparse.cols r in
  let m = Linalg.Matrix.rows y in
  if Linalg.Matrix.cols y <> np then
    invalid_arg "Variance_estimator.estimate_matfree: width mismatch";
  if m < 2 then
    invalid_arg "Variance_estimator.estimate_matfree: need at least 2 snapshots";
  if options.mf_min_pair_samples < 2 then
    invalid_arg "Variance_estimator.estimate_matfree: min_pair_samples < 2";
  Obs.Metrics.add m_pairs (np * (np + 1) / 2);
  Obs.Probe.kernel ~hist:m_phase1
    ~args:
      [ ("np", Obs.Field.Int np); ("nc", Obs.Field.Int nc); ("m", Obs.Field.Int m) ]
    "variance_estimator.estimate_matfree"
  @@ fun () ->
  let centered, has_missing = center_columns ?jobs ~np ~m y in
  let smask =
    match options.sample with
    | None -> None
    | Some (fraction, seed) -> Some (Augmented.sample_mask ~np ~fraction ~seed)
  in
  (* One tiled sweep builds the right-hand side Σ̂* and the row mask:
     a row survives iff its pair has enough overlapping snapshots, its
     covariance passes the drop-negative rule, and (when sketching) the
     sampling hash keeps it. Tiles are cut into blocks whose count
     depends only on the problem size, each flat row index belongs to
     exactly one tile, and the effective-sample-size tallies are exact
     integers merged per block — so rhs, mask and ess are identical for
     every [jobs] value, and match the streaming estimator's accounting
     pair for pair. *)
  let nrows = Augmented.row_count ~np in
  let rhs = Array.make nrows 0. in
  let mask = Bytes.make nrows '\000' in
  let csr = Sparse.to_csr r in
  let ptr = csr.Sparse.ptr and idx = csr.Sparse.idx in
  let tile = 256 in
  let ntiles = Parallel.Chunk.tile_count ~tile ~np in
  let blocks = Parallel.Chunk.block_count ~min_block:1 ntiles in
  let blk_nonempty = Array.make (max 1 blocks) 0 in
  let blk_skipped = Array.make (max 1 blocks) 0 in
  let blk_min_n = Array.make (max 1 blocks) max_int in
  Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
      let tlo, thi = Parallel.Chunk.range ~blocks ~n:ntiles bk in
      for t = tlo to thi - 1 do
        let (ilo, ihi), (jlo, jhi) = Parallel.Chunk.tile_bounds ~tile ~np t in
        for i = ilo to ihi - 1 do
          let si = Bigarray.Array1.unsafe_get ptr i in
          let ei = Bigarray.Array1.unsafe_get ptr (i + 1) in
          let j0 = if jlo <= i then i else jlo in
          let k = ref (Augmented.row_index ~np ~i ~j:j0) in
          for j = j0 to jhi - 1 do
            let nonempty =
              if j = i then ei > si
              else begin
                let a = ref si in
                let b = ref (Bigarray.Array1.unsafe_get ptr j) in
                let eb = Bigarray.Array1.unsafe_get ptr (j + 1) in
                let hit = ref false in
                while (not !hit) && !a < ei && !b < eb do
                  let ca = Bigarray.Array1.unsafe_get idx !a in
                  let cb = Bigarray.Array1.unsafe_get idx !b in
                  if ca = cb then hit := true
                  else if ca < cb then incr a
                  else incr b
                done;
                !hit
              end
            in
            if nonempty then begin
              blk_nonempty.(bk) <- blk_nonempty.(bk) + 1;
              let s, n = pair_cov ~m centered has_missing i j in
              if n < options.mf_min_pair_samples then
                blk_skipped.(bk) <- blk_skipped.(bk) + 1
              else begin
                if n < blk_min_n.(bk) then blk_min_n.(bk) <- n;
                let sampled =
                  match smask with
                  | None -> true
                  | Some sm -> Bytes.unsafe_get sm !k <> '\000'
                in
                if (s >= 0. || not options.mf_drop_negative) && sampled then begin
                  rhs.(!k) <- s;
                  Bytes.unsafe_set mask !k '\001'
                end
              end
            end;
            incr k
          done
        done
      done);
  let pc, pc_name =
    preconditioner ?jobs ~cols:nc
      ~diag:(fun () -> Augmented.matfree_column_counts ?jobs ~mask r)
      ~gram_blocks:(fun groups -> Augmented.gram_blocks ?jobs ~mask r ~groups)
      options.mf_precond
  in
  let v, stats =
    Linalg.Lsqr.cgls ~tol:options.tol ?max_iter:options.max_iter ?precond:pc
      ~context:
        [ ("phase", Obs.Field.Str "phase1"); ("precond", Obs.Field.Str pc_name) ]
      (Augmented.matfree ?jobs ~mask r)
      rhs
  in
  let v = if options.mf_clamp then Array.map (fun x -> Float.max 0. x) v else v in
  Obs.Metrics.add m_cgls_iters stats.Linalg.Conjugate_gradient.iterations;
  let pairs_total = Array.fold_left ( + ) 0 blk_nonempty in
  let pairs_skipped = Array.fold_left ( + ) 0 blk_skipped in
  let samples_min = Array.fold_left min max_int blk_min_n in
  let ess =
    {
      pairs_total;
      pairs_used = pairs_total - pairs_skipped;
      samples_min = (if samples_min = max_int then 0 else samples_min);
    }
  in
  Obs.Metrics.add m_pairs_skipped pairs_skipped;
  Obs.Metrics.set g_samples_min (float_of_int ess.samples_min);
  Obs.Logger.info Obs.Logger.default "matrix-free phase 1 converged"
    ~fields:
      [
        ("iterations", Obs.Field.Int stats.Linalg.Conjugate_gradient.iterations);
        ( "relative_residual",
          Obs.Field.Float stats.Linalg.Conjugate_gradient.relative_residual );
      ];
  (v, ess, stats)

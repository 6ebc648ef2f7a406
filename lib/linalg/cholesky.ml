exception Not_positive_definite

type t = { n : int; l : Matrix.t }

let m_seconds =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per Cholesky factorization attempt" "lia_cholesky_seconds"

let m_ridge_retries =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Cholesky attempts retried with a larger diagonal ridge"
    "lia_cholesky_ridge_retries_total"

(* The factor is computed in place in the flat row-major storage [a] of an
   n×n matrix holding the lower triangle of the input (upper triangle
   zero). Every entry runs the textbook arithmetic in the textbook order:

     l_ij = (a_ij − l_i0·l_j0 − l_i1·l_j1 − … − l_i,j−1·l_j,j−1) / l_jj
     l_jj = sqrt (a_jj − l_j0² − … − l_j,j−1²)

   subtracting in ascending k from a register seeded with a_ij. Only the
   schedule differs from the column-by-column loop: columns are taken in
   panels of [panel]; each panel first finishes its own diagonal block
   row by row, then every row below it computes the panel's entries
   independently of the others. Those rows are spread over the pool in
   4-row tiles, whose independent accumulators hide the add latency
   ([tile_entries]). Since no entry's operations or their order depend
   on the schedule, the factor is bit-for-bit the same for every
   [jobs]. *)

let panel = 32

(* below this order the whole factorization runs inline: the per-AS
   blocks of the block-Jacobi preconditioner, factored inside pool tasks *)
let parallel_min = 128

(* l_ij for j in [jlo, jhi), all j < i *)
let row_entries a n i jlo jhi =
  let ri = i * n in
  for j = jlo to jhi - 1 do
    let rj = j * n in
    let s = ref (Array.unsafe_get a (ri + j)) in
    for k = 0 to j - 1 do
      s := !s -. (Array.unsafe_get a (ri + k) *. Array.unsafe_get a (rj + k))
    done;
    Array.unsafe_set a (ri + j) (!s /. Array.unsafe_get a (rj + j))
  done

let diagonal a n i =
  let ri = i * n in
  let s = ref (Array.unsafe_get a (ri + i)) in
  for k = 0 to i - 1 do
    let lik = Array.unsafe_get a (ri + k) in
    s := !s -. (lik *. lik)
  done;
  if !s <= 0. || Float.is_nan !s then raise Not_positive_definite;
  Array.unsafe_set a (ri + i) (sqrt !s)

(* rows i .. i+3, columns [jlo, jhi), all j < i. Columns go in pairs
   (j, j+1) that share one pass over k < j: eight accumulators, each
   load of a row value feeding two of them, the pass unrolled by two in
   k to halve the index arithmetic. Column j+1 then takes its k = j term
   from the l_ij just computed. An odd last column goes row by row. *)
let tile_entries a n i jlo jhi =
  let r0 = i * n in
  let r1 = r0 + n in
  let r2 = r1 + n in
  let r3 = r2 + n in
  let j = ref jlo in
  while !j + 1 < jhi do
    let j0 = !j in
    let ra = j0 * n in
    let rb = ra + n in
    let s0 = ref (Array.unsafe_get a (r0 + j0)) in
    let s1 = ref (Array.unsafe_get a (r1 + j0)) in
    let s2 = ref (Array.unsafe_get a (r2 + j0)) in
    let s3 = ref (Array.unsafe_get a (r3 + j0)) in
    let t0 = ref (Array.unsafe_get a (r0 + j0 + 1)) in
    let t1 = ref (Array.unsafe_get a (r1 + j0 + 1)) in
    let t2 = ref (Array.unsafe_get a (r2 + j0 + 1)) in
    let t3 = ref (Array.unsafe_get a (r3 + j0 + 1)) in
    for h = 0 to (j0 / 2) - 1 do
      let k = 2 * h in
      let ia = ra + k and ib = rb + k in
      let i0 = r0 + k and i1 = r1 + k and i2 = r2 + k and i3 = r3 + k in
      let la = Array.unsafe_get a ia and lb = Array.unsafe_get a ib in
      let x0 = Array.unsafe_get a i0 and x1 = Array.unsafe_get a i1 in
      let x2 = Array.unsafe_get a i2 and x3 = Array.unsafe_get a i3 in
      s0 := !s0 -. (x0 *. la);
      s1 := !s1 -. (x1 *. la);
      s2 := !s2 -. (x2 *. la);
      s3 := !s3 -. (x3 *. la);
      t0 := !t0 -. (x0 *. lb);
      t1 := !t1 -. (x1 *. lb);
      t2 := !t2 -. (x2 *. lb);
      t3 := !t3 -. (x3 *. lb);
      let la = Array.unsafe_get a (ia + 1) and lb = Array.unsafe_get a (ib + 1) in
      let x0 = Array.unsafe_get a (i0 + 1) and x1 = Array.unsafe_get a (i1 + 1) in
      let x2 = Array.unsafe_get a (i2 + 1) and x3 = Array.unsafe_get a (i3 + 1) in
      s0 := !s0 -. (x0 *. la);
      s1 := !s1 -. (x1 *. la);
      s2 := !s2 -. (x2 *. la);
      s3 := !s3 -. (x3 *. la);
      t0 := !t0 -. (x0 *. lb);
      t1 := !t1 -. (x1 *. lb);
      t2 := !t2 -. (x2 *. lb);
      t3 := !t3 -. (x3 *. lb)
    done;
    if j0 land 1 = 1 then begin
      let k = j0 - 1 in
      let la = Array.unsafe_get a (ra + k) and lb = Array.unsafe_get a (rb + k) in
      let x0 = Array.unsafe_get a (r0 + k) and x1 = Array.unsafe_get a (r1 + k) in
      let x2 = Array.unsafe_get a (r2 + k) and x3 = Array.unsafe_get a (r3 + k) in
      s0 := !s0 -. (x0 *. la);
      s1 := !s1 -. (x1 *. la);
      s2 := !s2 -. (x2 *. la);
      s3 := !s3 -. (x3 *. la);
      t0 := !t0 -. (x0 *. lb);
      t1 := !t1 -. (x1 *. lb);
      t2 := !t2 -. (x2 *. lb);
      t3 := !t3 -. (x3 *. lb)
    end;
    let da = Array.unsafe_get a (ra + j0) in
    let y0 = !s0 /. da and y1 = !s1 /. da and y2 = !s2 /. da and y3 = !s3 /. da in
    Array.unsafe_set a (r0 + j0) y0;
    Array.unsafe_set a (r1 + j0) y1;
    Array.unsafe_set a (r2 + j0) y2;
    Array.unsafe_set a (r3 + j0) y3;
    let lbj = Array.unsafe_get a (rb + j0) and db = Array.unsafe_get a (rb + j0 + 1) in
    Array.unsafe_set a (r0 + j0 + 1) ((!t0 -. (y0 *. lbj)) /. db);
    Array.unsafe_set a (r1 + j0 + 1) ((!t1 -. (y1 *. lbj)) /. db);
    Array.unsafe_set a (r2 + j0 + 1) ((!t2 -. (y2 *. lbj)) /. db);
    Array.unsafe_set a (r3 + j0 + 1) ((!t3 -. (y3 *. lbj)) /. db);
    j := j0 + 2
  done;
  if !j < jhi then
    for r = i to i + 3 do
      row_entries a n r !j jhi
    done

let factor_in_place ?jobs a n =
  for p = 0 to ((n + panel - 1) / panel) - 1 do
    let lo = p * panel in
    let hi = min n (lo + panel) in
    for i = lo to hi - 1 do
      row_entries a n i lo i;
      diagonal a n i
    done;
    let below = n - hi in
    if below > 0 then begin
      let tiles = (below + 3) / 4 in
      let tile t =
        let i = hi + (4 * t) in
        if i + 4 <= n then tile_entries a n i lo hi
        else
          for r = i to n - 1 do
            row_entries a n r lo hi
          done
      in
      (* a block of tiles carries at least ~256k multiply-adds *)
      let blocks =
        if n < parallel_min then 1
        else
          Parallel.Chunk.block_count ~max_blocks:16
            ~min_block:(max 1 (262144 / (4 * (hi - lo) * hi)))
            tiles
      in
      let run bk =
        let tlo, thi = Parallel.Chunk.range ~blocks ~n:tiles bk in
        for t = tlo to thi - 1 do
          tile t
        done
      in
      if blocks = 1 then run 0 else Parallel.Pool.for_blocks ?jobs blocks run
    end
  done

(* One attempt: load the lower triangle of [m] into [l] with [shift]
   added to the diagonal, then factor in place. *)
let attempt ?jobs l m ~shift ~ridge =
  let n = Matrix.rows m in
  Obs.Probe.kernel ~hist:m_seconds
    ~args:[ ("n", Obs.Field.Int n); ("ridge", Obs.Field.Float ridge) ]
    "cholesky.factorize"
  @@ fun () ->
  let src = Matrix.unsafe_data m and a = Matrix.unsafe_data l in
  for i = 0 to n - 1 do
    Array.blit src (i * n) a (i * n) (i + 1);
    let d = (i * n) + i in
    if shift <> 0. then a.(d) <- a.(d) +. shift
  done;
  factor_in_place ?jobs a n

let check_square m =
  if Matrix.rows m <> Matrix.cols m then invalid_arg "Cholesky.factorize: not square"

let factorize ?jobs m =
  check_square m;
  let n = Matrix.rows m in
  let l = Matrix.zeros n n in
  attempt ?jobs l m ~shift:0. ~ridge:0.;
  { n; l }

let factorize_regularized ?jobs ?(ridge = 1e-10) m =
  check_square m;
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
  (* each attempt reloads every lower-triangle entry, so one buffer
     serves them all *)
  let l = Matrix.zeros n n in
  let rec go r =
    match attempt ?jobs l m ~shift:(if r = 0. then 0. else r *. base) ~ridge:r with
    | () -> { n; l }
    | exception Not_positive_definite ->
        if r > 1e-2 then raise Not_positive_definite
        else begin
          Obs.Metrics.incr m_ridge_retries;
          go (if r = 0. then ridge else r *. 10.)
        end
  in
  go 0.

let lower f = Matrix.copy f.l

let solve_vec f b =
  if Array.length b <> f.n then invalid_arg "Cholesky.solve_vec: dimension mismatch";
  let y = Array.make f.n 0. in
  for i = 0 to f.n - 1 do
    let s = ref (Array.unsafe_get b i) in
    for k = 0 to i - 1 do
      s := !s -. (Matrix.unsafe_get f.l i k *. Array.unsafe_get y k)
    done;
    Array.unsafe_set y i (!s /. Matrix.unsafe_get f.l i i)
  done;
  let x = Array.make f.n 0. in
  for i = f.n - 1 downto 0 do
    let s = ref (Array.unsafe_get y i) in
    for k = i + 1 to f.n - 1 do
      s := !s -. (Matrix.unsafe_get f.l k i *. Array.unsafe_get x k)
    done;
    Array.unsafe_set x i (!s /. Matrix.unsafe_get f.l i i)
  done;
  x

let solve m b = solve_vec (factorize m) b

module Pool = Parallel.Pool
module Chunk = Parallel.Chunk

type t = {
  m : int;
  n : int;
  a : Matrix.t; (* R in and above the diagonal, Householder vectors below *)
  beta : float array; (* Householder coefficients, one per reflection *)
  piv : int array; (* piv.(j) = original index of factored column j *)
}

(* The factorization runs on a column-major working copy [c] (entry
   (i, j) at [j * m + i]: the storage of the transpose), so building a
   reflector and applying it to a column are contiguous dot products and
   axpys; the result is transposed back into the row-major [a] once at
   the end. Every value is computed with the operations, and in the
   order, of the textbook row-major loop: each sum runs in ascending row
   index. *)

(* Build the Householder reflection annihilating column k below the
   diagonal; store the vector there with the implicit convention
   v.(k) = 1. *)
let house_column c m k =
  let ck = k * m in
  let alpha = ref 0. in
  for i = k to m - 1 do
    let x = Array.unsafe_get c (ck + i) in
    alpha := !alpha +. (x *. x)
  done;
  let alpha = sqrt !alpha in
  if alpha = 0. then 0.
  else begin
    let akk = Array.unsafe_get c (ck + k) in
    let alpha = if akk > 0. then -.alpha else alpha in
    let v0 = akk -. alpha in
    (* v = x - alpha e1; normalize so v.(k) = 1 *)
    if v0 = 0. then 0.
    else begin
      for i = k + 1 to m - 1 do
        Array.unsafe_set c (ck + i) (Array.unsafe_get c (ck + i) /. v0)
      done;
      let vtv = ref 1. in
      for i = k + 1 to m - 1 do
        let v = Array.unsafe_get c (ck + i) in
        vtv := !vtv +. (v *. v)
      done;
      Array.unsafe_set c (ck + k) alpha;
      2. /. !vtv
    end
  end

let apply_house_to_col c m k beta j =
  (* column j of the trailing matrix: x <- x - beta v (v' x) *)
  let ck = k * m and cj = j * m in
  let vtx = ref (Array.unsafe_get c (cj + k)) in
  for i = k + 1 to m - 1 do
    vtx := !vtx +. (Array.unsafe_get c (ck + i) *. Array.unsafe_get c (cj + i))
  done;
  let s = beta *. !vtx in
  Array.unsafe_set c (cj + k) (Array.unsafe_get c (cj + k) -. s);
  for i = k + 1 to m - 1 do
    Array.unsafe_set c (cj + i)
      (Array.unsafe_get c (cj + i) -. (s *. Array.unsafe_get c (ck + i)))
  done

(* Distinct columns touch disjoint state, so the trailing update can run
   one column per pool task; blocks are sized so each carries some 16k
   multiply-adds whatever the column height, and a single block runs
   inline. Column j's arithmetic is independent of which domain runs
   it — bit-for-bit jobs-invariant. *)
let update_trailing ?jobs c m n k beta =
  let cols = n - k - 1 in
  let blocks = Chunk.block_count ~min_block:(max 8 (16384 / max 1 (m - k))) cols in
  let run bk =
    let lo, hi = Chunk.range ~blocks ~n:cols bk in
    for t = lo to hi - 1 do
      apply_house_to_col c m k beta (k + 1 + t)
    done
  in
  if blocks = 1 then run 0 else if blocks > 1 then Pool.for_blocks ?jobs blocks run

let factorize_gen ?jobs ~pivot mat =
  let m = Matrix.rows mat and n = Matrix.cols mat in
  let ct = Matrix.transpose mat in
  let c = Matrix.unsafe_data ct in
  let steps = min m n in
  let beta = Array.make (max steps 0) 0. in
  let piv = Array.init n (fun j -> j) in
  let colnorm2 =
    if pivot then
      Array.init n (fun j ->
          let col = Array.sub c (j * m) m in
          Vector.dot col col)
    else [||]
  in
  let swap_cols j1 j2 =
    if j1 <> j2 then begin
      let tmp = Array.sub c (j1 * m) m in
      Array.blit c (j2 * m) c (j1 * m) m;
      Array.blit tmp 0 c (j2 * m) m;
      let p = piv.(j1) in
      piv.(j1) <- piv.(j2);
      piv.(j2) <- p;
      let t = colnorm2.(j1) in
      colnorm2.(j1) <- colnorm2.(j2);
      colnorm2.(j2) <- t
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
    let b = house_column c m k in
    beta.(k) <- b;
    if b <> 0. then update_trailing ?jobs c m n k b;
    if pivot then
      for j = k + 1 to n - 1 do
        let rkj = Array.unsafe_get c ((j * m) + k) in
        colnorm2.(j) <- Float.max 0. (colnorm2.(j) -. (rkj *. rkj))
      done
  done;
  { m; n; a = Matrix.transpose ct; beta; piv }

let factorize ?jobs mat = factorize_gen ?jobs ~pivot:false mat

let factorize_pivoted ?jobs mat = factorize_gen ?jobs ~pivot:true mat

let pivots f = Array.copy f.piv

let r f =
  let k = min f.m f.n in
  Matrix.init k f.n (fun i j -> if j >= i then Matrix.get f.a i j else 0.)

(* Every tolerance decision in this module is relative to the largest
   diagonal magnitude of R; [rank] and [solve_r] differ only in their
   default rtol. *)
let max_abs_diag f =
  let k = min f.m f.n in
  let dmax = ref 0. in
  for i = 0 to k - 1 do
    dmax := Float.max !dmax (Float.abs (Matrix.unsafe_get f.a i i))
  done;
  !dmax

let negligible ~rtol ~dmax d = d = 0. || Float.abs d <= rtol *. dmax

let rank ?(rtol = 1e-10) f =
  let k = min f.m f.n in
  let dmax = max_abs_diag f in
  if dmax = 0. then 0
  else begin
    let cnt = ref 0 in
    for i = 0 to k - 1 do
      if not (negligible ~rtol ~dmax (Matrix.unsafe_get f.a i i)) then incr cnt
    done;
    !cnt
  end

let apply_qt f b =
  if Array.length b <> f.m then invalid_arg "Qr.apply_qt: dimension mismatch";
  let y = Array.copy b in
  for k = 0 to Array.length f.beta - 1 do
    let beta = f.beta.(k) in
    if beta <> 0. then begin
      let vty = ref (Array.unsafe_get y k) in
      for i = k + 1 to f.m - 1 do
        vty := !vty +. (Matrix.unsafe_get f.a i k *. Array.unsafe_get y i)
      done;
      let s = beta *. !vty in
      Array.unsafe_set y k (Array.unsafe_get y k -. s);
      for i = k + 1 to f.m - 1 do
        Array.unsafe_set y i
          (Array.unsafe_get y i -. (s *. Matrix.unsafe_get f.a i k))
      done
    end
  done;
  y

let default_solve_rtol = 1e-13

let check_solvable ~rtol f =
  if f.m < f.n then failwith "Qr.solve_r: underdetermined system";
  let dmax = max_abs_diag f in
  for i = 0 to f.n - 1 do
    if negligible ~rtol ~dmax (Matrix.unsafe_get f.a i i) then
      failwith "Qr.solve_r: singular triangular factor"
  done

let solve_r ?(rtol = default_solve_rtol) f c =
  let n = f.n in
  if f.m < n then failwith "Qr.solve_r: underdetermined system";
  if Array.length c < n then invalid_arg "Qr.solve_r: dimension mismatch";
  check_solvable ~rtol f;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let d = Matrix.unsafe_get f.a i i in
    let acc = ref (Array.unsafe_get c i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Matrix.unsafe_get f.a i j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. d)
  done;
  x

let least_squares ?rtol f b =
  let qtb = apply_qt f b in
  let x = solve_r ?rtol f qtb in
  let out = Array.make f.n 0. in
  for j = 0 to f.n - 1 do
    out.(f.piv.(j)) <- x.(j)
  done;
  out

(* Batched right-hand sides. The work matrix keeps one RHS per column, so
   a reflector pass scans contiguous rows once for the whole column slice
   instead of once per RHS; slices of at least 8 columns keep every
   fetched cache line fully used. Per column the arithmetic and its order
   are exactly those of [apply_qt] + [solve_r], and each task owns a
   disjoint column range, so column c of the result is bit-for-bit
   [least_squares f (Matrix.col b c)] for every [jobs] value. *)
let least_squares_batch ?(rtol = default_solve_rtol) ?jobs f b =
  if Matrix.rows b <> f.m then
    invalid_arg "Qr.least_squares_batch: dimension mismatch";
  check_solvable ~rtol f;
  let n = f.n and m = f.m in
  let nrhs = Matrix.cols b in
  let w = Matrix.copy b in
  let x = Matrix.zeros n nrhs in
  let steps = Array.length f.beta in
  let solve_slice clo chi =
    let width = chi - clo in
    let s = Array.make (max width 0) 0. in
    (* Qᵀ applied to every column of the slice, reflector by reflector *)
    for k = 0 to steps - 1 do
      let beta = f.beta.(k) in
      if beta <> 0. then begin
        for c = 0 to width - 1 do
          Array.unsafe_set s c (Matrix.unsafe_get w k (clo + c))
        done;
        for i = k + 1 to m - 1 do
          let v = Matrix.unsafe_get f.a i k in
          for c = 0 to width - 1 do
            Array.unsafe_set s c
              (Array.unsafe_get s c +. (v *. Matrix.unsafe_get w i (clo + c)))
          done
        done;
        for c = 0 to width - 1 do
          let sc = beta *. Array.unsafe_get s c in
          Array.unsafe_set s c sc;
          Matrix.unsafe_set w k (clo + c) (Matrix.unsafe_get w k (clo + c) -. sc)
        done;
        for i = k + 1 to m - 1 do
          let v = Matrix.unsafe_get f.a i k in
          for c = 0 to width - 1 do
            Matrix.unsafe_set w i (clo + c)
              (Matrix.unsafe_get w i (clo + c) -. (Array.unsafe_get s c *. v))
          done
        done
      end
    done;
    (* back-substitution on the leading n×n block of R, per column *)
    for i = n - 1 downto 0 do
      let d = Matrix.unsafe_get f.a i i in
      for c = 0 to width - 1 do
        let acc = ref (Matrix.unsafe_get w i (clo + c)) in
        for j = i + 1 to n - 1 do
          acc :=
            !acc -. (Matrix.unsafe_get f.a i j *. Matrix.unsafe_get x j (clo + c))
        done;
        Matrix.unsafe_set x i (clo + c) (!acc /. d)
      done
    done
  in
  let blocks = Chunk.block_count ~min_block:8 nrhs in
  if blocks > 0 then
    Pool.for_blocks ?jobs blocks (fun bk ->
        let clo, chi = Chunk.range ~blocks ~n:nrhs bk in
        solve_slice clo chi);
  (* undo the column pivoting (identity for unpivoted factorizations) *)
  let out = Matrix.zeros n nrhs in
  for j = 0 to n - 1 do
    let pj = f.piv.(j) in
    for c = 0 to nrhs - 1 do
      Matrix.unsafe_set out pj c (Matrix.unsafe_get x j c)
    done
  done;
  out

let matrix_rank ?rtol mat = rank ?rtol (factorize_pivoted mat)

let solve ?rtol ?jobs mat b = least_squares ?rtol (factorize ?jobs mat) b

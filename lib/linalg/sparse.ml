type row = int array

type t = { nrows : int; ncols : int; data : row array }

let validate_row ncols r =
  let ok = ref true in
  Array.iteri
    (fun k j ->
      if j < 0 || j >= ncols then ok := false;
      if k > 0 && r.(k - 1) >= j then ok := false)
    r;
  !ok

let create ~cols data =
  if cols < 0 then invalid_arg "Sparse.create: negative column count";
  Array.iter
    (fun r ->
      if not (validate_row cols r) then
        invalid_arg "Sparse.create: row not strictly increasing or out of range")
    data;
  { nrows = Array.length data; ncols = cols; data }

let rows m = m.nrows

let cols m = m.ncols

let row m i =
  if i < 0 || i >= m.nrows then invalid_arg "Sparse.row: index out of bounds";
  m.data.(i)

let nnz m = Array.fold_left (fun acc r -> acc + Array.length r) 0 m.data

let get m i j =
  let r = row m i in
  if j < 0 || j >= m.ncols then invalid_arg "Sparse.get: index out of bounds";
  let rec bsearch lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if r.(mid) = j then true
      else if r.(mid) < j then bsearch (mid + 1) hi
      else bsearch lo mid
    end
  in
  bsearch 0 (Array.length r)

let row_product r1 r2 =
  let n1 = Array.length r1 and n2 = Array.length r2 in
  let out = Array.make (min n1 n2) 0 in
  let k = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    let a = r1.(!i) and b = r2.(!j) in
    if a = b then begin
      out.(!k) <- a;
      incr k;
      incr i;
      incr j
    end
    else if a < b then incr i
    else incr j
  done;
  Array.sub out 0 !k

let mul_vec m x =
  if Array.length x <> m.ncols then invalid_arg "Sparse.mul_vec: dimension mismatch";
  Array.map
    (fun r ->
      let acc = ref 0. in
      Array.iter (fun j -> acc := !acc +. x.(j)) r;
      !acc)
    m.data

let tmul_vec m x =
  if Array.length x <> m.nrows then invalid_arg "Sparse.tmul_vec: dimension mismatch";
  let y = Array.make m.ncols 0. in
  Array.iteri
    (fun i r ->
      let xi = x.(i) in
      if xi <> 0. then Array.iter (fun j -> y.(j) <- y.(j) +. xi) r)
    m.data;
  y

let mul_transpose_vec = tmul_vec

type int1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type csr = { ptr : int1; idx : int1 }

let to_csr m =
  let ptr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (m.nrows + 1) in
  let total = nnz m in
  let idx = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 total) in
  let k = ref 0 in
  Array.iteri
    (fun i r ->
      ptr.{i} <- !k;
      Array.iter
        (fun j ->
          idx.{!k} <- j;
          incr k)
        r)
    m.data;
  ptr.{m.nrows} <- !k;
  { ptr; idx }

let column_counts m =
  let c = Array.make m.ncols 0 in
  Array.iter (fun r -> Array.iter (fun j -> c.(j) <- c.(j) + 1) r) m.data;
  c

let to_dense m =
  let d = Matrix.zeros m.nrows m.ncols in
  Array.iteri (fun i r -> Array.iter (fun j -> Matrix.set d i j 1.) r) m.data;
  d

let dense_cols m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then invalid_arg "Sparse.dense_cols: index out of bounds")
    idx;
  (* map original column -> position in [idx]; -1 when dropped *)
  let pos = Array.make m.ncols (-1) in
  Array.iteri (fun k j -> pos.(j) <- k) idx;
  let d = Matrix.zeros m.nrows (Array.length idx) in
  Array.iteri
    (fun i r ->
      Array.iter (fun j -> if pos.(j) >= 0 then Matrix.set d i pos.(j) 1.) r)
    m.data;
  d

let select_rows m idx =
  let data = Array.map (fun i -> Array.copy (row m i)) idx in
  { nrows = Array.length idx; ncols = m.ncols; data }

let select_cols m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then invalid_arg "Sparse.select_cols: index out of bounds")
    idx;
  let pos = Array.make m.ncols (-1) in
  Array.iteri (fun k j -> pos.(j) <- k) idx;
  let remap r =
    let buf = Array.make (Array.length r) 0 in
    let k = ref 0 in
    Array.iter
      (fun j ->
        if pos.(j) >= 0 then begin
          buf.(!k) <- pos.(j);
          incr k
        end)
      r;
    let a = Array.sub buf 0 !k in
    Array.sort Int.compare a;
    a
  in
  { nrows = m.nrows; ncols = Array.length idx; data = Array.map remap m.data }

let permute_cols m order =
  if Array.length order <> m.ncols then
    invalid_arg "Sparse.permute_cols: order length mismatch";
  let seen = Array.make m.ncols false in
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then
        invalid_arg "Sparse.permute_cols: index out of bounds";
      if seen.(j) then invalid_arg "Sparse.permute_cols: duplicate index";
      seen.(j) <- true)
    order;
  select_cols m order

let gram_block m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then
        invalid_arg "Sparse.gram_block: index out of bounds")
    idx;
  let s = Array.length idx in
  let pos = Array.make m.ncols (-1) in
  Array.iteri (fun t j -> pos.(j) <- t) idx;
  let g = Matrix.zeros s s in
  (* entries are exact integer counts; a sequential sweep is already
     deterministic and the blocks handed here are small *)
  Array.iter
    (fun r ->
      let local = Array.make (Array.length r) 0 in
      let k = ref 0 in
      Array.iter
        (fun j ->
          if pos.(j) >= 0 then begin
            local.(!k) <- pos.(j);
            incr k
          end)
        r;
      for a = 0 to !k - 1 do
        for b = 0 to !k - 1 do
          let i, j = (local.(a), local.(b)) in
          Matrix.set g i j (Matrix.get g i j +. 1.)
        done
      done)
    m.data;
  g

let cols_index m =
  let counts = column_counts m in
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make m.ncols 0 in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun j ->
          out.(j).(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1)
        r)
    m.data;
  (* rows were scanned in increasing i, so each out.(j) is already sorted *)
  out

let transpose m = { nrows = m.ncols; ncols = m.nrows; data = cols_index m }

let normal_matrix ?jobs m =
  let nc = m.ncols in
  (* Gram scatter over row blocks. Every entry of G is a count of 1.0
     increments — exact in floating point — so per-domain partial
     accumulators can be merged in any order without changing a bit of
     the result, whatever the jobs value. *)
  let blocks = Parallel.Chunk.block_count ~min_block:512 m.nrows in
  let bufs = Parallel.Pool.Buffers.create (fun () -> Array.make (nc * nc) 0.) in
  Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
      let lo, hi = Parallel.Chunk.range ~blocks ~n:m.nrows bk in
      let g = Parallel.Pool.Buffers.borrow bufs in
      for i = lo to hi - 1 do
        let r = m.data.(i) in
        let len = Array.length r in
        for a = 0 to len - 1 do
          let base = r.(a) * nc in
          for b = a to len - 1 do
            let k = base + r.(b) in
            g.(k) <- g.(k) +. 1.
          done
        done
      done;
      Parallel.Pool.Buffers.return bufs g);
  let g =
    match Parallel.Pool.Buffers.all bufs with
    | [] -> Array.make (nc * nc) 0.
    | first :: rest ->
        List.iter
          (fun p ->
            for k = 0 to (nc * nc) - 1 do
              first.(k) <- first.(k) +. p.(k)
            done)
          rest;
        first
  in
  for i = 0 to nc - 1 do
    for j = 0 to i - 1 do
      g.((i * nc) + j) <- g.((j * nc) + i)
    done
  done;
  Matrix.init nc nc (fun i j -> g.((i * nc) + j))

let normal_rhs = tmul_vec

let least_squares ?ridge ?jobs m b =
  let g = normal_matrix ?jobs m in
  let rhs = normal_rhs m b in
  let f = Cholesky.factorize_regularized ?jobs ?ridge g in
  Cholesky.solve_vec f rhs

let equal m1 m2 =
  m1.nrows = m2.nrows && m1.ncols = m2.ncols
  && Array.for_all2 (fun r1 r2 -> r1 = r2) m1.data m2.data

let pp ppf m =
  Format.fprintf ppf "@[<v>sparse %dx%d:" m.nrows m.ncols;
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "@,%3d: {" i;
      Array.iteri
        (fun k j ->
          if k > 0 then Format.fprintf ppf ", ";
          Format.fprintf ppf "%d" j)
        r;
      Format.fprintf ppf "}")
    m.data;
  Format.fprintf ppf "@]"

module Sparse = Linalg.Sparse

let row_count ~np = np * (np + 1) / 2

let row_index ~np ~i ~j =
  if i < 0 || j < i || j >= np then invalid_arg "Augmented.row_index: bad pair";
  (* rows for pairs with i = 0 first: i full blocks of decreasing size *)
  (i * np) - (i * (i - 1) / 2) + (j - i)

let row_pair ~np k =
  if k < 0 || k >= row_count ~np then invalid_arg "Augmented.row_pair: bad row";
  let rec find i k =
    let block = np - i in
    if k < block then (i, i + k) else find (i + 1) (k - block)
  in
  find 0 k

let m_build =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per augmented-matrix assembly (Definition 1)"
    "lia_augmented_build_seconds"

let build ?jobs r =
  let np = Sparse.rows r in
  let nc = Sparse.cols r in
  let total = row_count ~np in
  Obs.Probe.kernel ~hist:m_build
    ~args:[ ("np", Obs.Field.Int np); ("rows", Obs.Field.Int total) ]
    "augmented.build"
  @@ fun () ->
  let rows = Array.make total [||] in
  (* each augmented row is written by exactly one block, so the result is
     independent of the jobs value *)
  let blocks = Parallel.Chunk.block_count total in
  Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
      let lo, hi = Parallel.Chunk.range ~blocks ~n:total bk in
      Parallel.Chunk.iter_pairs ~np ~lo ~hi (fun k i j ->
          rows.(k) <-
            (if i = j then Sparse.row r i
             else Sparse.row_product (Sparse.row r i) (Sparse.row r j))));
  Sparse.create ~cols:nc rows

(* --- matrix-free operator ----------------------------------------------- *)

(* Band width of the 2-D pair tiles: a band of CSR rows is a few KB, so a
   tile's j-band stays hot in cache while i walks its own band instead of
   re-streaming the whole matrix once per i as the flat pair order does. *)
let tile_rows = 256

let matfree ?jobs ?mask r =
  let np = Sparse.rows r in
  let nc = Sparse.cols r in
  let nrows = row_count ~np in
  (match mask with
  | Some m when Bytes.length m <> nrows ->
      invalid_arg "Augmented.matfree: mask length mismatch"
  | _ -> ());
  let csr = Sparse.to_csr r in
  let ptr = csr.Sparse.ptr and idx = csr.Sparse.idx in
  let live =
    match mask with
    | None -> fun _ -> true
    | Some m -> fun k -> Bytes.unsafe_get m k <> '\000'
  in
  let ntiles = Parallel.Chunk.tile_count ~tile:tile_rows ~np in
  let blocks = Parallel.Chunk.block_count ~min_block:1 ntiles in
  (* Both products visit each tile's pairs as (i, j) with j inner; the
     flat row index k advances by one as j does, so row_index runs once
     per (tile, i). Every k belongs to exactly one tile, hence exactly
     one block: apply is trivially jobs-invariant, and apply_t merges
     its per-block partials in block index order below. *)
  let apply v =
    if Array.length v <> nc then
      invalid_arg "Augmented.matfree: apply dimension mismatch";
    let y = Array.make nrows 0. in
    Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
        let tlo, thi = Parallel.Chunk.range ~blocks ~n:ntiles bk in
        for t = tlo to thi - 1 do
          let (ilo, ihi), (jlo, jhi) =
            Parallel.Chunk.tile_bounds ~tile:tile_rows ~np t
          in
          for i = ilo to ihi - 1 do
            let si = Bigarray.Array1.unsafe_get ptr i in
            let ei = Bigarray.Array1.unsafe_get ptr (i + 1) in
            let j0 = if jlo <= i then i else jlo in
            let k = ref (row_index ~np ~i ~j:j0) in
            for j = j0 to jhi - 1 do
              (if live !k then begin
                 let acc = ref 0. in
                 if j = i then
                   for a = si to ei - 1 do
                     acc :=
                       !acc
                       +. Array.unsafe_get v (Bigarray.Array1.unsafe_get idx a)
                   done
                 else begin
                   let a = ref si in
                   let b = ref (Bigarray.Array1.unsafe_get ptr j) in
                   let eb = Bigarray.Array1.unsafe_get ptr (j + 1) in
                   while !a < ei && !b < eb do
                     let ca = Bigarray.Array1.unsafe_get idx !a in
                     let cb = Bigarray.Array1.unsafe_get idx !b in
                     if ca = cb then begin
                       acc := !acc +. Array.unsafe_get v ca;
                       incr a;
                       incr b
                     end
                     else if ca < cb then incr a
                     else incr b
                   done
                 end;
                 Array.unsafe_set y !k !acc
               end);
              incr k
            done
          done
        done);
    y
  in
  let apply_t w =
    if Array.length w <> nrows then
      invalid_arg "Augmented.matfree: apply_t dimension mismatch";
    let partials = Array.init blocks (fun _ -> Array.make nc 0.) in
    Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
        let p = partials.(bk) in
        let tlo, thi = Parallel.Chunk.range ~blocks ~n:ntiles bk in
        for t = tlo to thi - 1 do
          let (ilo, ihi), (jlo, jhi) =
            Parallel.Chunk.tile_bounds ~tile:tile_rows ~np t
          in
          for i = ilo to ihi - 1 do
            let si = Bigarray.Array1.unsafe_get ptr i in
            let ei = Bigarray.Array1.unsafe_get ptr (i + 1) in
            let j0 = if jlo <= i then i else jlo in
            let k = ref (row_index ~np ~i ~j:j0) in
            for j = j0 to jhi - 1 do
              (if live !k then begin
                 let wk = Array.unsafe_get w !k in
                 if wk <> 0. then
                   if j = i then
                     for a = si to ei - 1 do
                       let c = Bigarray.Array1.unsafe_get idx a in
                       Array.unsafe_set p c (Array.unsafe_get p c +. wk)
                     done
                   else begin
                     let a = ref si in
                     let b = ref (Bigarray.Array1.unsafe_get ptr j) in
                     let eb = Bigarray.Array1.unsafe_get ptr (j + 1) in
                     while !a < ei && !b < eb do
                       let ca = Bigarray.Array1.unsafe_get idx !a in
                       let cb = Bigarray.Array1.unsafe_get idx !b in
                       if ca = cb then begin
                         Array.unsafe_set p ca (Array.unsafe_get p ca +. wk);
                         incr a;
                         incr b
                       end
                       else if ca < cb then incr a
                       else incr b
                     done
                   end
               end);
              incr k
            done
          done
        done);
    let x = Array.make nc 0. in
    Array.iter
      (fun p ->
        for e = 0 to nc - 1 do
          x.(e) <- x.(e) +. p.(e)
        done)
      partials;
    x
  in
  { Linalg.Lsqr.rows = nrows; cols = nc; apply; apply_t }

let matfree_column_counts ?jobs ?mask r =
  (* 0/1 entries make diag(AᵀA) the live-row count per column, which is
     exactly Aᵀ applied to the all-ones vector *)
  let op = matfree ?jobs ?mask r in
  op.Linalg.Lsqr.apply_t (Array.make op.Linalg.Lsqr.rows 1.)

let gram_blocks ?jobs ?mask r ~groups =
  let np = Sparse.rows r in
  let nc = Sparse.cols r in
  let nrows = row_count ~np in
  (match mask with
  | Some m when Bytes.length m <> nrows ->
      invalid_arg "Augmented.gram_blocks: mask length mismatch"
  | _ -> ());
  Array.iter
    (Array.iter (fun j ->
         if j < 0 || j >= nc then
           invalid_arg "Augmented.gram_blocks: column index out of bounds"))
    groups;
  let live =
    match mask with
    | None -> fun _ -> true
    | Some m -> fun k -> Bytes.unsafe_get m k <> '\000'
  in
  let out = Array.make (Array.length groups) (Linalg.Matrix.zeros 0 0) in
  (* Restricting a pair row to a column group commutes with the ⊗ of
     Definition 1: (Ri∗ ⊗ Rj∗)|g = Ri∗|g ⊗ Rj∗|g. So each diagonal Gram
     block needs only the group-restricted routing rows, and only the
     paths whose restriction is nonempty can contribute. Every group
     fills its own matrix from exact integer counts: jobs-invariant. *)
  Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n:(Array.length groups)
    (fun gi ->
      let idx = groups.(gi) in
      let s = Array.length idx in
      let rr = Sparse.select_cols r idx in
      let touch = ref [] in
      for i = np - 1 downto 0 do
        if Array.length (Sparse.row rr i) > 0 then touch := i :: !touch
      done;
      let touch = Array.of_list !touch in
      let nt = Array.length touch in
      let g = Linalg.Matrix.zeros s s in
      for a = 0 to nt - 1 do
        let i = touch.(a) in
        let ri = Sparse.row rr i in
        for b = a to nt - 1 do
          let j = touch.(b) in
          let supp =
            if i = j then ri else Sparse.row_product ri (Sparse.row rr j)
          in
          if Array.length supp > 0 && live (row_index ~np ~i ~j) then
            Array.iter
              (fun x ->
                Array.iter
                  (fun y ->
                    Linalg.Matrix.set g x y (Linalg.Matrix.get g x y +. 1.))
                  supp)
              supp
        done
      done;
      out.(gi) <- g);
  out

let sample_mask ~np ~fraction ~seed =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg "Augmented.sample_mask: fraction outside [0, 1]";
  let n = row_count ~np in
  let b = Bytes.make n '\000' in
  (* SplitMix64 of (seed, k): platform-independent, so the same sketch is
     drawn everywhere and resampling a row never depends on jobs *)
  let golden = 0x9e3779b97f4a7c15L in
  let base = Int64.mul (Int64.of_int seed) 0xbf58476d1ce4e5b9L in
  let scale = Int64.to_float (Int64.shift_left 1L 53) in
  for k = 0 to n - 1 do
    let z = Int64.add base (Int64.mul (Int64.of_int (k + 1)) golden) in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u =
      Int64.to_float (Int64.shift_right_logical z 11) /. scale
    in
    if u < fraction then Bytes.unsafe_set b k '\001'
  done;
  b

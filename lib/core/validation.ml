module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng

type report = { consistent : int; total : int; fraction : float }

let split rng ~paths =
  if paths < 2 then invalid_arg "Validation.split: need at least 2 paths";
  let perm = Array.init paths (fun i -> i) in
  Rng.shuffle rng perm;
  let half = paths / 2 in
  (Array.sub perm 0 half, Array.sub perm half (paths - half))

let check_paths ~r ~covered ~transmission ~rows ~y_now ~epsilon =
  if Array.length covered <> Sparse.cols r then
    invalid_arg "Validation.check_paths: covered length mismatch";
  if Array.length transmission <> Sparse.cols r then
    invalid_arg "Validation.check_paths: transmission length mismatch";
  let consistent = ref 0 in
  Array.iter
    (fun i ->
      let predicted =
        Array.fold_left
          (fun acc j -> if covered.(j) then acc *. transmission.(j) else acc)
          1. (Sparse.row r i)
      in
      let measured = exp y_now.(i) in
      if Float.abs (measured -. predicted) <= epsilon then incr consistent)
    rows;
  let total = Array.length rows in
  { consistent = !consistent;
    total;
    fraction = (if total = 0 then 1. else float_of_int !consistent /. float_of_int total)
  }

let cross_validate rng ~r ~y_learn ~y_now ~epsilon =
  let np = Sparse.rows r in
  if Matrix.cols y_learn <> np then
    invalid_arg "Validation.cross_validate: learning matrix width mismatch";
  if Array.length y_now <> np then
    invalid_arg "Validation.cross_validate: measurement length mismatch";
  let inf_rows, val_rows = split rng ~paths:np in
  (* restrict to the inference rows and their covered columns *)
  let r_inf_full = Sparse.select_rows r inf_rows in
  let counts = Sparse.column_counts r_inf_full in
  let covered_cols =
    Array.of_list
      (List.filter (fun j -> counts.(j) > 0)
         (List.init (Sparse.cols r) (fun j -> j)))
  in
  let r_inf = Sparse.select_cols r_inf_full covered_cols in
  let m = Matrix.rows y_learn in
  let y_learn_inf =
    Matrix.init m (Array.length inf_rows) (fun l k -> Matrix.get y_learn l inf_rows.(k))
  in
  let y_now_inf = Array.map (fun i -> y_now.(i)) inf_rows in
  let result =
    match Lia.infer_checked ~r:r_inf ~y_learn:y_learn_inf ~y_now:y_now_inf () with
    | { Lia.result = Some result; _ } -> result
    | { Lia.health; result = None } ->
        failwith ("Validation.cross_validate: " ^ Lia.health_summary health)
  in
  (* scatter the inferred rates back to global column ids *)
  let covered = Array.make (Sparse.cols r) false in
  let transmission = Array.make (Sparse.cols r) 1. in
  Array.iteri
    (fun k j ->
      covered.(j) <- true;
      transmission.(j) <- result.Lia.transmission.(k))
    covered_cols;
  check_paths ~r ~covered ~transmission ~rows:val_rows ~y_now ~epsilon

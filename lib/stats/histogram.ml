type t = { lo : float; hi : float; counts : int array; mutable total : int }

let create ~lo ~hi ~bins =
  if not (lo < hi) then invalid_arg "Histogram.create: empty range";
  if bins <= 0 then invalid_arg "Histogram.create: no bins";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bins t = Array.length t.counts

let bin_of t x =
  let nb = bins t in
  let raw = int_of_float (float_of_int nb *. (x -. t.lo) /. (t.hi -. t.lo)) in
  max 0 (min (nb - 1) raw)

let add t x =
  let i = bin_of t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let count t = t.total

let bin_count t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.bin_count: bad index";
  t.counts.(i)

let bin_bounds t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.bin_bounds: bad index";
  let w = (t.hi -. t.lo) /. float_of_int (bins t) in
  (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))

let normalized t =
  if t.total = 0 then Array.make (bins t) 0.
  else Array.map (fun c -> float_of_int c /. float_of_int t.total) t.counts

module Matrix = Linalg.Matrix
module Rng = Nstats.Rng

type interval = { lo : float; estimate : float; hi : float }

let bootstrap ?(replicates = 100) ?(confidence = 0.9) rng ~r ~y =
  let m = Matrix.rows y in
  if m < 2 then invalid_arg "Variance_ci.bootstrap: need at least 2 snapshots";
  if replicates <= 0 then invalid_arg "Variance_ci.bootstrap: no replicates";
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Variance_ci.bootstrap: confidence out of (0,1)";
  let np = Matrix.cols y in
  let estimate = fst (Variance_estimator.estimate_streaming_ess ~r ~y ()) in
  let nc = Array.length estimate in
  let samples = Array.init nc (fun _ -> Array.make replicates 0.) in
  for rep = 0 to replicates - 1 do
    let rows = Array.init m (fun _ -> Rng.int rng m) in
    let y_boot = Matrix.init m np (fun l i -> Matrix.get y rows.(l) i) in
    let v = fst (Variance_estimator.estimate_streaming_ess ~r ~y:y_boot ()) in
    Array.iteri (fun k vk -> samples.(k).(rep) <- vk) v
  done;
  let alpha = (1. -. confidence) /. 2. in
  Array.init nc (fun k ->
      {
        lo = Nstats.Descriptive.quantile samples.(k) alpha;
        estimate = estimate.(k);
        hi = Nstats.Descriptive.quantile samples.(k) (1. -. alpha);
      })

let stable_ranking intervals ~top =
  let nc = Array.length intervals in
  if top <= 0 || top > nc then invalid_arg "Variance_ci.stable_ranking: bad top";
  let order =
    Linalg.Vector.sort_indices ~descending:true
      (Array.map (fun iv -> iv.estimate) intervals)
  in
  let min_lo_top = ref infinity and max_hi_rest = ref neg_infinity in
  Array.iteri
    (fun rank k ->
      if rank < top then min_lo_top := Float.min !min_lo_top intervals.(k).lo
      else max_hi_rest := Float.max !max_hi_rest intervals.(k).hi)
    order;
  top = nc || !min_lo_top >= !max_hi_rest

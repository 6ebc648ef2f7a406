module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng

type t = { routes : Sparse.t }

let make ~routes = { routes }

let of_testbed (tb : Topology.Testbed.t) =
  let paths =
    Topology.Routing.paths_between tb.Topology.Testbed.graph
      ~beacons:tb.Topology.Testbed.beacons
      ~destinations:tb.Topology.Testbed.destinations
  in
  if Array.length paths = 0 then invalid_arg "Traffic_matrix.of_testbed: no flows";
  (* flows are columns; links (rows) are the edges used by at least one
     flow, renumbered densely *)
  let ne = Topology.Graph.edge_count tb.Topology.Testbed.graph in
  let used = Array.make ne false in
  Array.iter
    (fun (p : Topology.Path.t) ->
      Array.iter (fun e -> used.(e) <- true) p.Topology.Path.edges)
    paths;
  let link_index = Array.make ne (-1) in
  let n_links = ref 0 in
  for e = 0 to ne - 1 do
    if used.(e) then begin
      link_index.(e) <- !n_links;
      incr n_links
    end
  done;
  (* row per link: which flow columns cross it *)
  let per_link = Array.make !n_links [] in
  Array.iteri
    (fun f (p : Topology.Path.t) ->
      Array.iter
        (fun e ->
          let l = link_index.(e) in
          per_link.(l) <- f :: per_link.(l))
        p.Topology.Path.edges)
    paths;
  let rows =
    Array.map
      (fun flows -> Array.of_list (List.sort_uniq compare flows))
      per_link
  in
  let routes = Sparse.create ~cols:(Array.length paths) rows in
  let od =
    Array.map
      (fun (p : Topology.Path.t) -> (p.Topology.Path.src, p.Topology.Path.dst))
      paths
  in
  (make ~routes, od)

let simulate rng t ~means ~count =
  let n_flows = Sparse.cols t.routes and n_links = Sparse.rows t.routes in
  if Array.length means <> n_flows then
    invalid_arg "Traffic_matrix.simulate: means length mismatch";
  if count <= 0 then invalid_arg "Traffic_matrix.simulate: count <= 0";
  Array.iter
    (fun m -> if m < 0. then invalid_arg "Traffic_matrix.simulate: negative mean")
    means;
  Matrix.init count n_links (fun _ _ -> 0.)
  |> fun loads ->
  for epoch = 0 to count - 1 do
    let volumes = Array.map (fun m -> float_of_int (Rng.poisson rng m)) means in
    for l = 0 to n_links - 1 do
      let total =
        Array.fold_left (fun acc f -> acc +. volumes.(f)) 0. (Sparse.row t.routes l)
      in
      Matrix.set loads epoch l total
    done
  done;
  loads

let estimate_means t ~loads =
  (* the dual reuse: links play the role of paths, flows the role of
     links, and flow variances (= Poisson means) come out of the same
     streaming second-moment solver *)
  fst (Variance_estimator.estimate_streaming_ess ~r:t.routes ~y:loads ())

let identifiable t = Identifiability.is_identifiable t.routes

(* Workload definitions and seeded input generation.

   Every workload is a fixed topology (kind, host count and topology seed
   pinned, so the system size is part of the workload's definition) plus
   a simulated measurement campaign drawn from the benchmark seed. The
   program under test only ever sees the files written here; the ground
   truth and the expected quarantine accounting stay with the benchmark. *)

module Matrix = Linalg.Matrix
module Sparse = Linalg.Sparse
module Faults = Netsim.Faults

type kind = Planetlab | Transit_stub

type solver = Dense | Cgls_block_jacobi

type t = {
  name : string;
  kind : kind;
  hosts : int;
  topo_seed : int;
  learn : int;  (** snapshots in each measurement file *)
  windows : int;
      (** measurement files (learning windows) of one deployment; reps
          cycle through them *)
  serve : int;  (** snapshots served through one plan; 0 = one-shot infer *)
  fault : string option;  (** fault spec baked into the measurement file *)
  solver : solver;
}

let fault_spec = "seed=3,drop=0.1,miss=0.05,dup=0.05,oor=0.01"

let all =
  [
    {
      name = "pl40-dense";
      kind = Planetlab;
      hosts = 40;
      topo_seed = 7;
      learn = 51;
      windows = 4;
      serve = 0;
      fault = None;
      solver = Dense;
    };
    {
      name = "ts32-faulted-cgls";
      kind = Transit_stub;
      hosts = 32;
      topo_seed = 7;
      learn = 51;
      windows = 4;
      serve = 0;
      fault = Some fault_spec;
      solver = Cgls_block_jacobi;
    };
    {
      name = "pl24-serve";
      kind = Planetlab;
      hosts = 24;
      topo_seed = 7;
      learn = 51;
      windows = 16;
      serve = 1000;
      fault = None;
      solver = Dense;
    };
  ]

(* Seconds-sized variants for the self-check: same code paths, same
   checks, same metric names. *)
let tiny w =
  match w.kind with
  | Planetlab ->
      { w with hosts = 8; learn = 21; windows = 2; serve = min w.serve 40 }
  | Transit_stub -> { w with hosts = 12; learn = 31; windows = 2 }

let find name = List.find_opt (fun w -> w.name = name) all

(* The [lia_cli infer] flags that select this workload's pipeline, after
   [--testbed]/[--measurements]. *)
let cli_flags w ~jobs ~snapshots_file =
  let solver =
    match w.solver with
    | Dense -> [ "--solver"; "dense" ]
    | Cgls_block_jacobi ->
        [ "--solver"; "cgls"; "--precond"; "block-jacobi"; "--partition"; "as" ]
  in
  let serve =
    match snapshots_file with Some f -> [ "--snapshots"; f ] | None -> []
  in
  serve @ solver @ [ "--jobs"; string_of_int jobs ]

(* --- generated inputs --------------------------------------------------- *)

(* The quarantine accounting of one rep: what the fault schedule implies,
   or what [Quarantine.scrub]/[scrub_vector] reported. *)
type quarantine_counts = {
  rows_quarantined : int;
  corrupt_cells : int;  (** over all learning rows *)
  missing_cells : int;  (** in the rows quarantine keeps *)
  target_missing : int;
  target_corrupt : int;
}

type truth = {
  realized : float array array;
      (** true per-link loss of each inferred snapshot of the first
          window: its one target, or every served row *)
  quarantine : quarantine_counts array option;
      (** faulted workloads: what each window's fault schedule implies *)
}

type files = {
  testbed : string;
  meas : string;  (** one window's measurement file *)
  snapshots : string option;  (** the served snapshot file *)
}

let files_in dir w ~window =
  {
    testbed = Filename.concat dir "testbed.tb";
    meas = Filename.concat dir (Printf.sprintf "learn-%d.meas" window);
    snapshots =
      (if w.serve > 0 then Some (Filename.concat dir "serve.meas") else None);
  }

let truth_file dir = Filename.concat dir "truth.bin"

(* Replays the fault schedule against the clean campaign to derive what
   [Quarantine.scrub] must report on the learning rows and what
   [scrub_vector] must report on the target, independently of the
   quarantine code. Returns the source snapshot of every output row. *)
let replay_schedule ~m ~np schedule =
  let dropped = Array.make m false and duplicated = Array.make m false in
  (* 0 = valid, 1 = missing (NaN), 2 = corrupt; the last event wins *)
  let cell = Hashtbl.create 1024 in
  List.iter
    (function
      | Faults.Dropped l -> dropped.(l) <- true
      | Faults.Duplicated l -> duplicated.(l) <- true
      | Faults.Cell { snapshot; path; what } ->
          Hashtbl.replace cell (snapshot, path)
            (if what = "miss" || what = "nan" then 1 else 2)
      | Faults.Route_shift _ | Faults.Churn _ ->
          invalid_arg "replay_schedule: routing faults are not modelled")
    schedule;
  let sources =
    List.concat
      (List.init m (fun l ->
           if dropped.(l) then [] else if duplicated.(l) then [ l; l ] else [ l ]))
    |> Array.of_list
  in
  let state s i = Option.value ~default:0 (Hashtbl.find_opt cell (s, i)) in
  let count s v =
    let c = ref 0 in
    for i = 0 to np - 1 do
      if state s i = v then incr c
    done;
    !c
  in
  let rows = Array.length sources in
  let seen = Hashtbl.create 64 in
  let q = ref 0 and corrupt = ref 0 and missing = ref 0 in
  for l = 0 to rows - 2 do
    let s = sources.(l) in
    let bad_corrupt = count s 2 in
    let bad = count s 1 + bad_corrupt in
    corrupt := !corrupt + bad_corrupt;
    if bad = np || float_of_int bad > 0.5 *. float_of_int np then incr q
    else if Hashtbl.mem seen s then incr q
    else begin
      Hashtbl.add seen s ();
      missing := !missing + bad
    end
  done;
  let target = sources.(rows - 1) in
  ( sources,
    {
      rows_quarantined = !q;
      corrupt_cells = !corrupt;
      missing_cells = !missing;
      target_missing = count target 1;
      target_corrupt = count target 2;
    } )

(* Writes the workload's files into [dir] and returns the ground truth.
   A pure function of the workload and the seed. *)
let generate w ~seed ~dir =
  let rng = Nstats.Rng.create w.topo_seed in
  let tb =
    match w.kind with
    | Planetlab -> Topology.Overlay.planetlab_like rng ~hosts:w.hosts ()
    | Transit_stub -> Topology.Transit_stub.generate rng ~hosts:w.hosts ()
  in
  let r = (Topology.Testbed.routing tb).Topology.Routing.matrix in
  let config =
    {
      (Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated) with
      Netsim.Snapshot.probes = 1000;
      congestion_prob = 0.1;
    }
  in
  (* Static dynamics, as [Simulator.run] draws them, except that the
     congested-link set comes from the topology seed: it is part of the
     deployment, and it fixes how many columns rank reduction keeps, so
     every seed poses a problem of the same size. The seed draws the
     per-snapshot loss rates and probe outcomes. *)
  let congested =
    Netsim.Snapshot.draw_statuses rng config ~links:(Sparse.cols r)
  in
  let rng = Nstats.Rng.create seed in
  let snapshots =
    Array.init ((w.windows * w.learn) + w.serve) (fun _ ->
        Netsim.Snapshot.generate rng config ~congested r)
  in
  Topology.Serial.save (files_in dir w ~window:0).testbed tb;
  let np = Sparse.rows r in
  let rows_of a n =
    Matrix.init n np (fun l i -> snapshots.(a + l).Netsim.Snapshot.y.(i))
  in
  let realized l = snapshots.(l).Netsim.Snapshot.realized in
  let spec =
    Option.map
      (fun s -> match Faults.parse s with Ok s -> s | Error e -> failwith e)
      w.fault
  in
  let windows =
    List.init w.windows (fun j ->
        let first = j * w.learn in
        let y, schedule =
          match spec with
          | Some spec -> Faults.apply spec (rows_of first w.learn)
          | None -> (rows_of first w.learn, [])
        in
        Netsim.Trace_io.save (files_in dir w ~window:j).meas y;
        let sources, q = replay_schedule ~m:w.learn ~np schedule in
        if Array.length sources <> Matrix.rows y then
          failwith "fault schedule replay disagrees with the faulted row count";
        (first + sources.(Array.length sources - 1), q))
  in
  let served = w.windows * w.learn in
  let truth =
    match (files_in dir w ~window:0).snapshots with
    | Some f ->
        Netsim.Trace_io.save f (rows_of served w.serve);
        {
          realized = Array.init w.serve (fun l -> realized (served + l));
          quarantine = None;
        }
    | None ->
        {
          realized = [| realized (fst (List.hd windows)) |];
          quarantine = Option.map (fun _ -> Array.of_list (List.map snd windows)) spec;
        }
  in
  Out_channel.with_open_bin (truth_file dir) (fun oc ->
      Marshal.to_channel oc (truth : truth) []);
  truth

let load_truth dir : truth =
  In_channel.with_open_bin (truth_file dir) Marshal.from_channel

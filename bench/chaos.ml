(* chaos-smoke: an 8-seed fault matrix pushed through the checked
   pipeline on a small overlay. One seed per fault kind (plus a
   kitchen-sink mix), asserting the acceptance trichotomy on every run:
   clean verdicts must be bit-for-bit the bare two-phase composition
   (Lia.learn, Plan.make, Plan.solve), degraded verdicts must carry
   finite estimates, refusals must carry no result — and nothing may
   escape as an exception. Wired into the [chaos-smoke]
   dune alias so the fault injector and the degradation ladder cannot
   rot. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Faults = Netsim.Faults
module Lia = Core.Lia

let fault_matrix =
  [
    (1, "drop=0.25");
    (2, "miss=0.95");
    (3, "nan=0.1");
    (4, "oor=0.1");
    (5, "neg=0.1");
    (6, "dup=0.3");
    (7, "churn=2@0.4,route_shift=0.6");
    (8, "drop=0.15,miss=0.08,nan=0.03,oor=0.03,neg=0.02,dup=0.1,churn=1@0.5");
  ]

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let result_matches (a : Lia.result) (b : Lia.result) =
  Array.for_all2 bits_equal a.Lia.loss_rates b.Lia.loss_rates
  && Array.for_all2 bits_equal a.Lia.variances b.Lia.variances

let two_phase ~r ~y_learn ~y_now =
  let variances, _ = Lia.learn ~r ~y:y_learn () in
  Core.Plan.solve (Core.Plan.make ~r ~variances ()) y_now

let result_finite (r : Lia.result) =
  Array.for_all Float.is_finite r.Lia.loss_rates
  && Array.for_all Float.is_finite r.Lia.variances

let run_smoke () =
  Exp_common.header "chaos smoke (8-seed fault matrix, checked pipeline)";
  let rng = Nstats.Rng.create 2026 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:8 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:13 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:12 in
  let y_now = target.Netsim.Snapshot.y in
  Exp_common.row "%-6s %-58s %-10s %s" "seed" "spec" "health" "checked";
  List.iter
    (fun (seed, kinds) ->
      let spec_str = Printf.sprintf "seed=%d,%s" seed kinds in
      let spec =
        match Faults.parse spec_str with
        | Ok t -> t
        | Error msg -> failwith (Printf.sprintf "chaos-smoke: %s" msg)
      in
      let y, schedule = Faults.apply spec y_learn in
      let checked =
        try Lia.infer_checked ~r ~y_learn:y ~y_now ()
        with e ->
          failwith
            (Printf.sprintf "chaos-smoke: %s escaped with %s" spec_str
               (Printexc.to_string e))
      in
      let verdict =
        match checked with
        | { Lia.health = Lia.Clean; result = Some res } ->
            if not (result_matches res (two_phase ~r ~y_learn:y ~y_now)) then
              failwith
                (Printf.sprintf
                   "chaos-smoke: %s clean but differs from learn+plan" spec_str);
            "= learn+plan bit-for-bit"
        | { Lia.health = Lia.Degraded _; result = Some res } ->
            if not (result_finite res) then
              failwith
                (Printf.sprintf "chaos-smoke: %s degraded with non-finite \
                                 estimates" spec_str);
            "finite estimates"
        | { Lia.health = Lia.Refused _; result = None } -> "no result served"
        | _ -> failwith (Printf.sprintf "chaos-smoke: %s malformed verdict" spec_str)
      in
      ignore schedule;
      Exp_common.row "%-6d %-58s %-10s %s" seed kinds
        (Lia.health_label checked.Lia.health)
        verdict)
    fault_matrix;
  (* determinism across the matrix: re-running the worst seed reproduces
     the schedule and the verdict exactly *)
  let spec =
    match Faults.parse "seed=8,drop=0.15,miss=0.08,dup=0.1,churn=1@0.5" with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  let y1, s1 = Faults.apply spec y_learn in
  let y2, s2 = Faults.apply spec y_learn in
  if s1 <> s2 then failwith "chaos-smoke: schedules differ across runs";
  let c1 = Lia.infer_checked ~r ~y_learn:y1 ~y_now () in
  let c2 = Lia.infer_checked ~r ~y_learn:y2 ~y_now () in
  if Lia.health_summary c1.Lia.health <> Lia.health_summary c2.Lia.health then
    failwith "chaos-smoke: verdicts differ across runs";
  Exp_common.note
    "all 8 fault seeds landed in a typed outcome; schedules and verdicts \
     reproduce bit-for-bit"

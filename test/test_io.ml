(* Round-trip tests for the text serialization of testbeds and
   measurement campaigns. *)

module Graph = Topology.Graph
module Testbed = Topology.Testbed
module Serial = Topology.Serial
module Trace_io = Netsim.Trace_io
module Matrix = Linalg.Matrix

let tmp_file suffix = Filename.temp_file "netloss_test" suffix

let sample_testbed seed =
  let rng = Nstats.Rng.create seed in
  Topology.Overlay.planetlab_like rng ~hosts:8 ~ases:4 ~routers_per_as:4 ()

let testbed_equal a b =
  Graph.node_count a.Testbed.graph = Graph.node_count b.Testbed.graph
  && Graph.edge_count a.Testbed.graph = Graph.edge_count b.Testbed.graph
  && a.Testbed.beacons = b.Testbed.beacons
  && a.Testbed.destinations = b.Testbed.destinations
  && Array.for_all2
       (fun (x : Graph.node) (y : Graph.node) -> x = y)
       (Graph.nodes a.Testbed.graph)
       (Graph.nodes b.Testbed.graph)
  && Array.for_all2
       (fun (x : Graph.edge) (y : Graph.edge) -> x = y)
       (Graph.edges a.Testbed.graph)
       (Graph.edges b.Testbed.graph)

let test_testbed_roundtrip_string () =
  let tb = sample_testbed 3 in
  let tb' = Serial.of_string (Serial.to_string tb) in
  Alcotest.(check bool) "roundtrip equal" true (testbed_equal tb tb')

let test_testbed_roundtrip_file () =
  let tb = sample_testbed 5 in
  let path = tmp_file ".tb" in
  Serial.save path tb;
  let tb' = Serial.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip equal" true (testbed_equal tb tb')

let test_testbed_comments_and_blanks () =
  let tb = sample_testbed 7 in
  let s = "# a comment\n\n" ^ Serial.to_string tb ^ "\n# trailing\n" in
  let tb' = Serial.of_string s in
  Alcotest.(check bool) "comments ignored" true (testbed_equal tb tb')

let test_testbed_malformed () =
  let check_fails name s =
    match Serial.of_string s with
    | _ -> Alcotest.failf "%s: expected failure" name
    | exception Failure _ -> ()
  in
  check_fails "no header" "node 0 host 0\n";
  check_fails "bad kind" "netloss-testbed 1\nnode 0 alien 0\n";
  check_fails "sparse ids"
    "netloss-testbed 1\nnode 0 host 0\nnode 2 host 0\nbeacon 0\ndest 2\n";
  check_fails "garbage" "netloss-testbed 1\nwhatever\n"

let test_testbed_routing_stable_across_roundtrip () =
  (* the reduced routing matrix must be identical after serialization *)
  let tb = sample_testbed 9 in
  let tb' = Serial.of_string (Serial.to_string tb) in
  let r = (Testbed.routing tb).Topology.Routing.matrix in
  let r' = (Testbed.routing tb').Topology.Routing.matrix in
  Alcotest.(check bool) "same routing matrix" true (Linalg.Sparse.equal r r')

let test_measurements_roundtrip () =
  let y =
    Matrix.init 7 13 (fun l i ->
        -.(1.5 +. sin (float_of_int ((l * 13) + i))) /. 3.)
  in
  let y' = Trace_io.of_string (Trace_io.to_string y) in
  Alcotest.(check bool) "exact roundtrip" true (Matrix.approx_equal ~tol:0. y y')

let test_measurements_file_roundtrip () =
  let y = Matrix.init 3 4 (fun l i -> float_of_int (l - i - 3) *. 0.125) in
  let path = tmp_file ".meas" in
  Trace_io.save path y;
  let y' = Trace_io.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Matrix.approx_equal ~tol:0. y y')

let test_measurements_malformed () =
  let check_fails name s =
    match Trace_io.of_string s with
    | _ -> Alcotest.failf "%s: expected failure" name
    | exception Failure _ -> ()
  in
  check_fails "empty" "";
  check_fails "bad header" "nonsense 1 2 3\n0.1 0.2\n";
  check_fails "row count" "netloss-measurements 1 2 2\n-0.1 -0.2\n";
  check_fails "column count" "netloss-measurements 1 1 3\n-0.1 -0.2\n";
  (* value validation: a measurement is a log success rate, so NaN,
     non-finite, and positive entries are corrupt under strict loading *)
  check_fails "nan cell" "netloss-measurements 1 1 2\nnan -0.2\n";
  check_fails "inf cell" "netloss-measurements 1 1 2\n-0.1 -inf\n";
  check_fails "positive cell" "netloss-measurements 1 1 2\n-0.1 0.2\n"

let test_measurements_strict_diagnostics () =
  (* the diagnostic must point at the offending file:line *)
  match
    Trace_io.of_string ~path:"faulty.meas"
      "netloss-measurements 1 2 2\n-0.1 -0.2\nnan -0.4\n"
  with
  | _ -> Alcotest.fail "expected failure on NaN cell"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic %S names file:line" msg)
        true
        (String.length msg >= 14 && String.sub msg 0 14 = "faulty.meas:3:")

let test_measurements_permissive () =
  (* ~strict:false lets quarantine-aware ingest read fault-laden files *)
  let s = "netloss-measurements 1 1 3\nnan 0.5 -0.25\n" in
  let y = Trace_io.of_string ~strict:false s in
  Alcotest.(check bool) "nan preserved" true (Float.is_nan (Matrix.get y 0 0));
  Alcotest.(check (float 0.)) "positive preserved" 0.5 (Matrix.get y 0 1);
  Alcotest.(check (float 0.)) "valid preserved" (-0.25) (Matrix.get y 0 2);
  match Trace_io.of_string ~strict:false "netloss-measurements 1 1 2\n-0.1\n" with
  | _ -> Alcotest.fail "permissive loading must still reject ragged rows"
  | exception Failure _ -> ()

let test_measurements_preserve_negatives_and_zero () =
  let y = Matrix.of_arrays [| [| -0.5; 0.; -1e-9 |] |] in
  let y' = Trace_io.of_string (Trace_io.to_string y) in
  Alcotest.(check bool) "signs preserved" true (Matrix.approx_equal ~tol:0. y y')

let prop_measurement_roundtrip =
  QCheck.Test.make ~count:50 ~name:"measurement roundtrip is exact"
    QCheck.(
      pair (int_range 1 6)
        (pair (int_range 1 6) (list_of_size (QCheck.Gen.return 36) (float_range (-10.) 0.))))
    (fun (m, (np, cells)) ->
      let cells = Array.of_list cells in
      let y = Matrix.init m np (fun l i -> cells.(((l * np) + i) mod 36)) in
      Matrix.approx_equal ~tol:0. y (Trace_io.of_string (Trace_io.to_string y)))

(* [save] ends every line with a newline, so a prefix that stops inside a
   line is a truncated file: loading it must fail with a diagnostic that
   names the file, never return a shortened last value or drop the last
   record. *)
let prop_truncated_file_fails =
  QCheck.Test.make ~count:100 ~name:"truncated file fails naming path"
    QCheck.(triple bool small_nat (float_bound_inclusive 1.))
    (fun (testbed, seed, cut) ->
      let suffix, save, load =
        if testbed then
          (".tb", (fun p -> Serial.save p (sample_testbed seed)), fun p -> ignore (Serial.load p))
        else
          let y =
            Matrix.init (1 + (seed mod 5)) (1 + (seed mod 7)) (fun l i ->
                -.float_of_int (l + i + seed + 1) /. 7.)
          in
          (".meas", (fun p -> Trace_io.save p y), fun p -> ignore (Trace_io.load p))
      in
      let path = tmp_file suffix in
      save path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let mid_line =
        List.init (String.length full - 1) (fun k -> k + 1)
        |> List.filter (fun k -> full.[k - 1] <> '\n')
      in
      let k = List.nth mid_line (int_of_float (cut *. float_of_int (List.length mid_line - 1))) in
      Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub full 0 k));
      let outcome = match load path with () -> None | exception Failure msg -> Some msg in
      Sys.remove path;
      match outcome with
      | Some msg -> String.starts_with ~prefix:(path ^ ":") msg
      | None -> false)

let () =
  Alcotest.run "io"
    [
      ( "testbed",
        [
          Alcotest.test_case "string roundtrip" `Quick test_testbed_roundtrip_string;
          Alcotest.test_case "file roundtrip" `Quick test_testbed_roundtrip_file;
          Alcotest.test_case "comments and blanks" `Quick
            test_testbed_comments_and_blanks;
          Alcotest.test_case "malformed" `Quick test_testbed_malformed;
          Alcotest.test_case "routing stable" `Quick
            test_testbed_routing_stable_across_roundtrip;
        ] );
      ( "measurements",
        [
          Alcotest.test_case "string roundtrip" `Quick test_measurements_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_measurements_file_roundtrip;
          Alcotest.test_case "malformed" `Quick test_measurements_malformed;
          Alcotest.test_case "strict diagnostics" `Quick
            test_measurements_strict_diagnostics;
          Alcotest.test_case "permissive loading" `Quick
            test_measurements_permissive;
          Alcotest.test_case "negatives and zero" `Quick
            test_measurements_preserve_negatives_and_zero;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_measurement_roundtrip;
          QCheck_alcotest.to_alcotest prop_truncated_file_fails;
        ] );
    ]

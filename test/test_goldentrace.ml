(* Golden-trace regression test.

   The event-queue, shortest-path and codec optimizations all promise
   byte-identical simulation behaviour. This test pins that promise to a
   committed fixture: a full delivery trace (exact hex-float timestamps) of a
   small Figure-15(b)-style run. Any change to event ordering, latency
   sampling or message contents shows up as a divergence here, with the first
   differing event printed.

   A second fixture pins the churn extension the same way: the result JSON
   of the churn smoke run (repair and leave counters included) and the
   digest of its delivery trace.

   To regenerate after an intentional behaviour change (a fixture is
   written only when NTCU_GOLDEN_OUT names its file):

     NTCU_GOLDEN_OUT=$PWD/test/golden_trace.expected \
       dune exec test/test_main.exe -- test goldentrace
     NTCU_GOLDEN_OUT=$PWD/test/golden_churn.expected \
       dune exec test/test_main.exe -- test goldenchurn
*)

module Trace = Ntcu_sim.Trace
module Network = Ntcu_core.Network
module Experiment = Ntcu_harness.Experiment

module Churn = Ntcu_churn.Churn
module Json = Ntcu_harness.Report.Json

let read_lines file =
  try
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        Some (List.rev !lines))
  with Sys_error _ -> None

let fixture_file = "golden_trace.expected"
let churn_fixture_file = "golden_churn.expected"

(* Read at module load, before the test framework runs, so the relative paths
   resolve in dune's sandbox (the fixtures are declared test dependencies). *)
let fixture_lines = read_lines fixture_file
let churn_fixture_lines = read_lines churn_fixture_file

(* Write [lines] to NTCU_GOLDEN_OUT when it names [file]; true iff written. *)
let regenerate ~file lines =
  match Sys.getenv_opt "NTCU_GOLDEN_OUT" with
  | Some path when String.equal (Filename.basename path) file ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    true
  | Some _ | None -> false

let rec first_diff i a b =
  match (a, b) with
  | [], [] -> None
  | x :: a', y :: b' ->
    if String.equal x y then first_diff (i + 1) a' b' else Some (i, Some x, Some y)
  | x :: _, [] -> Some (i, Some x, None)
  | [], y :: _ -> Some (i, None, Some y)

(* Fail with the first differing line. A missing fixture is deliberately a
   failure, not a skip: CI greps for these tests having run and a silently
   missing fixture must not pass. *)
let check_lines ~file ~what expected lines =
  match expected with
  | None -> Alcotest.failf "fixture %s missing; regenerate with NTCU_GOLDEN_OUT" file
  | Some expected -> (
    match first_diff 0 expected lines with
    | None -> ()
    | Some (i, e, g) ->
      let show = function Some l -> l | None -> "<ended>" in
      Alcotest.failf
        "%s diverged at line %d:\n  expected: %s\n  got:      %s\n(%d expected lines, %d \
         got)"
        what i (show e) (show g) (List.length expected) (List.length lines))

let golden_setup = { Experiment.d = 8; n = 60; m = 20 }

let golden_trace () =
  let run =
    Experiment.fig15b ~routers:Ntcu_topology.Transit_stub.default_config
      ~record_trace:true ~seed:7 golden_setup
  in
  match Network.trace run.net with
  | None -> Alcotest.fail "trace recording was not enabled"
  | Some tr -> tr

let digest_of_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let reproduces_fixture () =
  let tr = golden_trace () in
  let lines = Trace.to_lines tr in
  if regenerate ~file:fixture_file lines then
    Printf.printf "regenerated %s (%d events, digest %s)\n" fixture_file
      (List.length lines) (Trace.digest tr);
  check_lines ~file:fixture_file ~what:"trace" fixture_lines lines;
  Alcotest.check Alcotest.string "digest" (digest_of_lines lines) (Trace.digest tr)

(* The same seed must reproduce the trace within a process too — digest and
   divergence reporting are exercised directly. *)
let rerun_identical () =
  let a = golden_trace () and b = golden_trace () in
  Alcotest.check Alcotest.string "same digest" (Trace.digest a) (Trace.digest b);
  Alcotest.check Alcotest.bool "no divergence" true (Trace.first_divergence a b = None)

let divergence_reporting () =
  let a = Trace.create () and b = Trace.create () in
  Trace.record a 1. "x";
  Trace.record b 1. "x";
  Alcotest.check Alcotest.bool "equal" true (Trace.first_divergence a b = None);
  Trace.record a 2. "y";
  Trace.record b 2. "z";
  (match Trace.first_divergence a b with
  | Some (1, Some la, Some lb) ->
    Alcotest.check Alcotest.bool "lines differ" true (la <> lb)
  | other ->
    Alcotest.failf "unexpected divergence: %s"
      (match other with None -> "none" | Some (i, _, _) -> string_of_int i));
  Trace.record a 3. "tail";
  match Trace.first_divergence b a with
  | Some (1, _, _) -> ()
  | _ -> Alcotest.fail "divergence index changed by extra tail"

(* The churn smoke run at seed 1 departs nodes both ways, so the leave and
   online-repair extensions refill holes through [Repair.find_live]. Its
   repair counters (tables consulted, entries left empty) and its trace pin
   that search's outcomes as well as the protocol's behaviour. *)
let churn_lines () =
  let t = Churn.prepare ~record_trace:true { Churn.smoke with seed = 1 } in
  let result = Churn.finish t in
  let trace =
    match Network.trace (Churn.net t) with
    | None -> Alcotest.fail "trace recording was not enabled"
    | Some tr -> tr
  in
  let doc =
    Json.Obj
      [
        ("trace_events", Json.Int (Trace.length trace));
        ("trace_digest", Json.String (Trace.digest trace));
        ("result", Churn.result_json result);
      ]
  in
  String.split_on_char '\n' (Json.to_string doc)

let churn_reproduces_fixture () =
  let lines = churn_lines () in
  if regenerate ~file:churn_fixture_file lines then
    Printf.printf "regenerated %s (%d lines)\n" churn_fixture_file (List.length lines);
  check_lines ~file:churn_fixture_file ~what:"churn result" churn_fixture_lines lines

let suites =
  [
    ( "goldentrace",
      [
        Alcotest.test_case "reproduces fixture" `Quick reproduces_fixture;
        Alcotest.test_case "rerun identical" `Quick rerun_identical;
        Alcotest.test_case "divergence reporting" `Quick divergence_reporting;
      ] );
    ( "goldenchurn",
      [ Alcotest.test_case "reproduces fixture" `Quick churn_reproduces_fixture ] );
  ]

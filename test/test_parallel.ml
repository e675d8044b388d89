(* The Parallel domain pool: ordered fan-out of independent simulation runs.

   Covers the pool's contract (results in submission order under adversarial
   per-task delays, exception propagation with a reusable pool), the
   owner-domain guards that make accidental sharing of Engine/Distances an
   error instead of silent corruption, and the headline guarantee: a small
   fig15b sweep and a fault-injection grid emit byte-identical Report.Json
   payloads (and the grid identical report text) at --jobs 1 and --jobs 4. *)

module Parallel = Ntcu_std.Parallel
module Experiment = Ntcu_harness.Experiment
module Params = Ntcu_id.Params
module Report = Ntcu_harness.Report
module J = Report.Json

let check = Alcotest.check

(* Busy-work the compiler cannot elide, used to give early-submitted tasks
   adversarially *longer* runtimes so completion order inverts submission
   order on a real multicore. *)
let spin n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := !acc + k
  done;
  ignore (Sys.opaque_identity !acc)

let ordered_under_adversarial_delays () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let inputs = List.init 16 Fun.id in
      let f i =
        spin ((16 - i) * 30_000);
        (i * 10) + 1
      in
      let got = Parallel.map pool f inputs in
      check Alcotest.(list int) "submission order" (List.map f inputs) got)

let exception_propagation_pool_reusable () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let boom i = if i = 3 then failwith "boom" else i * i in
      Alcotest.check_raises "original exception" (Failure "boom") (fun () ->
          ignore (Parallel.map pool boom (List.init 8 Fun.id)));
      (* The failed batch must leave the pool fully operational. *)
      let got = Parallel.map pool (fun i -> i + 1) (List.init 8 Fun.id) in
      check Alcotest.(list int) "pool reusable after failure" (List.init 8 (fun i -> i + 1)) got)

let serial_pool_runs_in_caller () =
  Parallel.with_pool ~jobs:1 (fun pool ->
      let self = Domain.self () in
      let domains = Parallel.map pool (fun _ -> Domain.self ()) (List.init 4 Fun.id) in
      check Alcotest.bool "jobs=1 never leaves the calling domain" true
        (List.for_all (fun d -> d = self) domains))

let raises_invalid_argument label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let engine_cross_domain_guard () =
  let engine = Ntcu_sim.Engine.create () in
  Ntcu_sim.Engine.schedule engine ~delay:1. (fun () -> ());
  let d =
    Domain.spawn (fun () ->
        raises_invalid_argument "schedule" (fun () ->
            Ntcu_sim.Engine.schedule engine ~delay:2. (fun () -> ()));
        raises_invalid_argument "step" (fun () -> Ntcu_sim.Engine.step engine);
        true)
  in
  check Alcotest.bool "foreign domain rejected" true (Domain.join d);
  (* The creating domain is unaffected. *)
  Ntcu_sim.Engine.run engine;
  check Alcotest.int "own domain still runs" 1 (Ntcu_sim.Engine.events_processed engine)

let distances_cross_domain_guard () =
  let g = Ntcu_topology.Graph.create 3 in
  Ntcu_topology.Graph.add_edge g 0 1 1.5;
  Ntcu_topology.Graph.add_edge g 1 2 2.5;
  let dist = Ntcu_topology.Distances.create_clustered g ~cluster:[| -1; -1; -1 |] in
  check (Alcotest.float 1e-9) "own domain queries" 4.
    (Ntcu_topology.Distances.distance dist 0 2);
  let d =
    Domain.spawn (fun () ->
        raises_invalid_argument "distance" (fun () ->
            Ntcu_topology.Distances.distance dist 0 2);
        true)
  in
  check Alcotest.bool "foreign domain rejected" true (Domain.join d);
  (* Read-only diagnostics stay callable from anywhere. *)
  let d = Domain.spawn (fun () -> (Ntcu_topology.Distances.stats dist).queries) in
  check Alcotest.int "stats readable cross-domain" 1 (Domain.join d)

(* ---- determinism: jobs 1 vs jobs 4 must emit byte-identical payloads ----

   Mirrors the bench harness wiring: independent seeded runs fanned out with
   Parallel.map, deterministic result fields serialized with Report.Json.
   A run carries no host timing, so the text Report prints for it must match
   too. *)

let join_run_payload (setup : Experiment.fig15b_setup) (run : Experiment.join_run) =
  J.Obj
    [
      ("d", J.Int setup.d);
      ("n", J.Int setup.n);
      ("m", J.Int setup.m);
      ("events", J.Int run.events);
      ("join_noti", J.List (Array.to_list (Array.map (fun v -> J.Int v) run.join_noti)));
      ("cp_wait", J.List (Array.to_list (Array.map (fun v -> J.Int v) run.cp_wait)));
      ("consistent", J.Bool (Experiment.consistent run));
      ("all_in_system", J.Bool run.all_in_system);
      ("quiescent", J.Bool run.quiescent);
    ]

let fig15b_payload ~jobs =
  let routers = Ntcu_topology.Transit_stub.default_config in
  let setups =
    [ { Experiment.d = 8; n = 120; m = 30 }; { Experiment.d = 8; n = 150; m = 40 } ]
  in
  Parallel.with_pool ~jobs (fun pool ->
      let runs =
        Parallel.map pool
          (fun (i, setup) -> (setup, Experiment.fig15b ~routers ~seed:(100 + i) setup))
          (List.mapi (fun i setup -> (i, setup)) setups)
      in
      J.to_string (J.List (List.map (fun (setup, run) -> join_run_payload setup run) runs)))

let fault_payload ~jobs =
  let p = Params.make ~b:16 ~d:8 in
  let losses = [ 0.02 ] and crashes = [ 0.0; 0.02 ] in
  let grid = List.concat_map (fun l -> List.map (fun c -> (l, c)) crashes) losses in
  Parallel.with_pool ~jobs (fun pool ->
      let cells =
        Parallel.map pool
          (fun (loss, crash_fraction) ->
            let f =
              Experiment.fault_injection ~loss ~crash_fraction p ~seed:91 ~n:60 ~m:8 ()
            in
            (f, Fmt.str "%a" Report.pp_fault_run f))
          grid
      in
      let cell_payload ((f : Experiment.fault_run), _) =
        J.Obj
          [
            ("crashed", J.Int (List.length f.crashed));
            ("stuck", J.Int f.stuck);
            ("retransmissions", J.Int f.retransmissions);
            ("timeouts", J.Int f.timeouts);
            ("failovers", J.Int f.failovers);
            ("duplicates", J.Int f.duplicates);
            ("lost", J.Int f.lost);
            ("acks_lost", J.Int f.acks_lost);
            ("events", J.Int f.run.events);
            ("consistent", J.Bool (Experiment.consistent f.run));
            ("all_in_system", J.Bool f.run.all_in_system);
          ]
      in
      (J.to_string (J.List (List.map cell_payload cells)), List.map snd cells))

let fig15b_deterministic_across_jobs () =
  let serial = fig15b_payload ~jobs:1 in
  let parallel = fig15b_payload ~jobs:4 in
  check Alcotest.string "fig15b payload byte-identical" serial parallel

let fault_grid_deterministic_across_jobs () =
  let serial, serial_reports = fault_payload ~jobs:1 in
  let parallel, parallel_reports = fault_payload ~jobs:4 in
  check Alcotest.string "fault-grid payload byte-identical" serial parallel;
  check
    Alcotest.(list string)
    "fault-grid reports identical" serial_reports parallel_reports

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "ordered under adversarial delays" `Quick
          ordered_under_adversarial_delays;
        Alcotest.test_case "exception propagation, pool reusable" `Quick
          exception_propagation_pool_reusable;
        Alcotest.test_case "jobs=1 stays in calling domain" `Quick serial_pool_runs_in_caller;
        Alcotest.test_case "engine cross-domain guard" `Quick engine_cross_domain_guard;
        Alcotest.test_case "distances cross-domain guard" `Quick
          distances_cross_domain_guard;
        Alcotest.test_case "fig15b deterministic across jobs" `Slow
          fig15b_deterministic_across_jobs;
        Alcotest.test_case "fault grid deterministic across jobs" `Slow
          fault_grid_deterministic_across_jobs;
      ] );
  ]

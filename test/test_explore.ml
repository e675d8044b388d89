(* The exploration layer's own guarantees: trace serialization round-trips
   bit-identically (the foundation repro files stand on), episodes replay to
   identical digests, the report is a pure function of the settings, and an
   intentionally injected protocol bug is schedule-dependent — invisible to
   the unperturbed scheduler, caught by an adversary, shrunk to a minimal
   intervention list and replayed to the same violation. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Trace = Ntcu_sim.Trace
module Latency = Ntcu_sim.Latency
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Workload = Ntcu_harness.Workload
module Experiment = Ntcu_harness.Experiment
module Scheduler = Ntcu_explore.Scheduler
module Invariants = Ntcu_explore.Invariants
module Episode = Ntcu_explore.Episode
module Shrink = Ntcu_explore.Shrink
module Repro = Ntcu_explore.Repro
module Explore = Ntcu_explore.Explore

let check = Alcotest.check

(* ---- Trace round-trip (prerequisite for repro files) ---- *)

let traced_run ~seed =
  let p = Params.make ~b:4 ~d:4 in
  let rng = Rng.create seed in
  let seeds = Workload.distinct_ids rng p ~n:10 in
  let joiners = Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:5 in
  let net =
    Network.create ~record_trace:true
      ~latency:(Latency.uniform ~seed:(seed + 1) ~lo:1. ~hi:100.)
      p
  in
  Network.seed_consistent net ~seed:(seed + 2) seeds;
  List.iter
    (fun id -> Network.start_join net ~id ~gateway:(List.hd seeds) ())
    joiners;
  Network.run net;
  match Network.trace net with Some tr -> tr | None -> Alcotest.fail "no trace"

let trace_roundtrip () =
  List.iter
    (fun seed ->
      let tr = traced_run ~seed in
      check Alcotest.bool "trace nonempty" true (Trace.length tr > 0);
      let tr' = Trace.of_lines (Trace.to_lines tr) in
      check Alcotest.bool "of_lines (to_lines t) = t" true (Trace.equal tr tr');
      check Alcotest.string "digest survives" (Trace.digest tr) (Trace.digest tr');
      check Alcotest.bool "no divergence" true
        (Trace.first_divergence tr tr' = None))
    [ 1; 2; 3 ]

(* ---- Episodes: bit-identical reruns and replayable schedules ---- *)

let smoke_config scheduler =
  {
    Episode.scenario = Episode.Dependent;
    b = 4;
    d = 6;
    n = 12;
    m = 6;
    seed = 1;
    sched_seed = 14;
    scheduler;
    fault = None;
    chord_naive = false;
    midflight = true;
  }

let episode_rerun_identical () =
  let config = smoke_config (Scheduler.Targeted { probability = 0.25; stretch = 32. }) in
  let a = Episode.run config and b = Episode.run config in
  check Alcotest.string "same digest" a.Episode.digest b.Episode.digest;
  check Alcotest.int "same events" a.Episode.events b.Episode.events;
  check Alcotest.int "same interventions"
    (List.length a.Episode.interventions)
    (List.length b.Episode.interventions)

(* Replaying an adversarial run's recorded interventions as a Fixed schedule
   reproduces the run exactly — the property that makes a shrunk intervention
   list a faithful counterexample. *)
let fixed_replay_identical () =
  let config = smoke_config (Scheduler.Random_delay { scale = 16. }) in
  let live = Episode.run config in
  check Alcotest.bool "adversary intervened" true (live.Episode.interventions <> []);
  let replay =
    Episode.run
      { config with Episode.scheduler = Scheduler.Fixed live.Episode.interventions }
  in
  check Alcotest.string "replay digest" live.Episode.digest replay.Episode.digest;
  check Alcotest.int "replay events" live.Episode.events replay.Episode.events

(* Pinned hook-perturbed schedules: every scenario under both random
   schedulers, at a size where the reliable transport's acks and
   retransmissions (fault, churn) go through the hook. A change to how frames
   are numbered or which frames the hook sees moves a digest or a count here,
   even where no hunt finds a violation. *)
let pinned_schedules () =
  let config scenario scheduler =
    {
      Episode.scenario;
      b = 4;
      d = 6;
      n = 24;
      m = 10;
      seed = 1;
      sched_seed = 1;
      scheduler;
      fault = None;
      chord_naive = false;
      midflight = true;
    }
  in
  let targeted = Scheduler.Targeted { probability = 0.25; stretch = 32. } in
  let random = Scheduler.Random_delay { scale = 16. } in
  List.iter
    (fun (scenario, scheduler, digest, frames, interventions) ->
      let o = Episode.run (config scenario scheduler) in
      let what =
        Printf.sprintf "%s/%s" (Episode.scenario_name scenario)
          (Scheduler.kind_name scheduler)
      in
      check Alcotest.string (what ^ " digest") digest o.Episode.digest;
      check Alcotest.int (what ^ " frames") frames o.Episode.frames;
      check Alcotest.int (what ^ " interventions") interventions
        (List.length o.Episode.interventions))
    [
      (Episode.Concurrent, targeted, "5b535df0e318ad3838d76c6c8fb7e33b", 271, 52);
      (Episode.Dependent, targeted, "704f77610cd07b5e43a024a0f5068a39", 242, 43);
      (Episode.Fault, targeted, "ff1b9d286cb74a43dfcc631d08c7fd21", 617, 68);
      (Episode.Churn, targeted, "75e44dae87c97833107188505dcc8ea6", 2803, 519);
      (Episode.Chord, targeted, "53f4c9217839dff1ade227728c3399a4", 2924, 129);
      (Episode.Concurrent, random, "588b7bb4bccf6e308fc85eec41c5228d", 273, 273);
      (Episode.Dependent, random, "2e7e811775d5e9b9bf992ce142c20c4f", 228, 228);
      (Episode.Fault, random, "579e5196689383ff18647251cbfb3048", 693, 693);
      (Episode.Churn, random, "fe9c881afa8de604c714b3a372c38c40", 2781, 2781);
      (Episode.Chord, random, "14573fcda7b074faa5295a0f3e1d14d9", 2922, 2922);
    ]

(* Explore's fault scenario runs the fault experiment's own workload, so the
   unperturbed episode at the residual-hole fixture's arguments replays
   [fault_injection]'s run delivery for delivery. *)
let fault_scenario_is_residual_hole () =
  let o =
    Episode.run
      {
        Episode.scenario = Episode.Fault;
        b = 4;
        d = 6;
        n = 24;
        m = 10;
        seed = 196;
        sched_seed = 1;
        scheduler = Scheduler.Nop;
        fault = None;
        chord_naive = false;
        midflight = false;
      }
  in
  let f =
    Experiment.fault_injection ~record_trace:true (Params.make ~b:4 ~d:6) ~seed:196 ~n:24
      ~m:10 ()
  in
  let digest =
    match Network.trace f.Experiment.run.Experiment.net with
    | Some tr -> Trace.digest tr
    | None -> Alcotest.fail "no trace"
  in
  check Alcotest.string "pinned digest" "947d9079aa6020ff153fd6ee4bd38ffa" digest;
  check Alcotest.string "episode digest" digest o.Episode.digest;
  check Alcotest.int "episode deliveries" f.Experiment.run.Experiment.events
    o.Episode.events;
  check Alcotest.int "deliveries" 236 o.Episode.events

(* ---- The full hunt: clean protocol, determinism, injected bug ---- *)

let json_string r = Ntcu_harness.Report.Json.to_string (Explore.report_json r)

let clean_smoke_finds_nothing () =
  let report = Explore.run Explore.smoke_settings in
  (* 3 smoke scenarios (concurrent, dependent, chord) x 3 schedulers x budget 2 *)
  check Alcotest.int "episodes run" 18 report.Explore.episodes;
  check Alcotest.int "no violations on the real protocol" 0 report.Explore.failures

let report_deterministic_across_jobs () =
  let settings =
    { Explore.smoke_settings with Explore.fault = Some Node.Drop_queued_join_waits }
  in
  let serial = Explore.run { settings with Explore.jobs = 1 } in
  let fanned = Explore.run { settings with Explore.jobs = 2 } in
  check Alcotest.string "byte-identical report" (json_string serial) (json_string fanned)

(* The injected bug drops JoinWaitMsgs a T-node queued while single-threaded
   on another reply — a window only some interleavings open. The unperturbed
   scheduler never opens it at smoke scale; the adversaries do. Found, it
   must shrink and replay to the same violation. *)
let injected_fault_schedule_dependent () =
  let fault = Some Node.Drop_queued_join_waits in
  let nop =
    Explore.run
      {
        Explore.smoke_settings with
        Explore.fault;
        schedulers = [ Scheduler.Nop ];
      }
  in
  check Alcotest.int "invisible to the unperturbed schedule" 0 nop.Explore.failures;
  let report =
    Explore.run { Explore.smoke_settings with Explore.fault = fault }
  in
  check Alcotest.bool "caught by an adversary" true (report.Explore.failures > 0);
  let f =
    match
      List.find_opt (fun f -> f.Explore.shrunk <> None) report.Explore.found
    with
    | Some f -> f
    | None -> Alcotest.fail "no violation was shrunk"
  in
  let minimal, final, probes =
    match f.Explore.shrunk with Some s -> s | None -> assert false
  in
  check Alcotest.bool "shrunk to fewer interventions" true
    (List.length minimal <= List.length f.Explore.outcome.Episode.interventions);
  check Alcotest.bool "ddmin probed" true (probes > 0);
  (* The minimal schedule still yields the same violation category. *)
  let name (v : Invariants.violation) = v.Invariants.name in
  (match (f.Explore.outcome.Episode.violations, final.Episode.violations) with
  | v :: _, v' :: _ -> check Alcotest.string "same violation" (name v) (name v')
  | _ -> Alcotest.fail "violations lost in shrinking");
  check Alcotest.bool "replay reproduced" true f.Explore.replay_ok;
  (* And the repro file round-trips through its text form. *)
  match f.Explore.repro with
  | None -> Alcotest.fail "no repro built"
  | Some r -> (
    let s = Repro.to_string r in
    match Repro.of_string s with
    | Error e -> Alcotest.failf "repro parse: %s" e
    | Ok r' ->
      check Alcotest.string "repro text round-trips" s (Repro.to_string r');
      let replay = Repro.replay r' in
      check Alcotest.bool "parsed repro reproduces" true replay.Repro.reproduced)

(* ---- ddmin on a synthetic predicate: minimality and soundness ---- *)

let ddmin_synthetic () =
  (* Failure needs both 3 and 7: ddmin must isolate exactly that pair. *)
  let test cs = List.mem 3 cs && List.mem 7 cs in
  let minimal, probes = Shrink.ddmin ~test (List.init 10 Fun.id) in
  check (Alcotest.list Alcotest.int) "exact pair" [ 3; 7 ]
    (List.sort compare minimal);
  check Alcotest.bool "probes counted" true (probes > 1);
  (* Already-minimal input returns itself. *)
  let m2, _ = Shrink.ddmin ~test:(fun cs -> cs = [ 42 ]) [ 42 ] in
  check (Alcotest.list Alcotest.int) "singleton kept" [ 42 ] m2;
  (* A predicate true on the empty list shrinks to nothing. *)
  let m3, _ = Shrink.ddmin ~test:(fun _ -> true) [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "empty suffices" [] m3

let suites =
  [
    ( "explore",
      [
        Alcotest.test_case "trace round-trip" `Quick trace_roundtrip;
        Alcotest.test_case "episode rerun identical" `Quick episode_rerun_identical;
        Alcotest.test_case "fixed replay identical" `Quick fixed_replay_identical;
        Alcotest.test_case "pinned hook-perturbed schedules" `Quick pinned_schedules;
        Alcotest.test_case "fault scenario is the residual-hole run" `Quick
          fault_scenario_is_residual_hole;
        Alcotest.test_case "clean smoke finds nothing" `Quick clean_smoke_finds_nothing;
        Alcotest.test_case "report deterministic across jobs" `Quick
          report_deterministic_across_jobs;
        Alcotest.test_case "injected fault: caught, shrunk, replayed" `Quick
          injected_fault_schedule_dependent;
        Alcotest.test_case "ddmin synthetic" `Quick ddmin_synthetic;
      ] );
  ]

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Trace = Ntcu_sim.Trace
module Experiment = Ntcu_harness.Experiment
module Workload = Ntcu_harness.Workload
module Baseline = Ntcu_protocol.Baseline
module Scheduler = Ntcu_explore.Scheduler

let check = Alcotest.check
let p = Params.make ~b:4 ~d:6

let sequential_is_consistent () =
  let r = Experiment.baseline_run p ~seed:1 ~n:40 ~m:25 ~concurrent:false in
  check Alcotest.bool "done" true r.base_done;
  check Alcotest.int "consistent" 0 r.base_violations

let sequential_keeps_state_at_existing_nodes () =
  let r = Experiment.baseline_run p ~seed:2 ~n:40 ~m:25 ~concurrent:false in
  check Alcotest.bool "pending slots used" true (r.pending_slots > 0);
  check Alcotest.bool "peak pending positive" true (r.peak_pending >= 1)

let concurrent_dependent_joins_break_it () =
  (* The motivating failure: across seeds, concurrent joins into a small
     network leave inconsistencies often (joiners that never learn of each
     other). The paper's protocol never does — same workload shape is covered
     by test_protocol. *)
  let broken = ref 0 in
  for seed = 1 to 10 do
    let r = Experiment.baseline_run p ~seed ~n:10 ~m:30 ~concurrent:true in
    if r.base_violations > 0 then incr broken
  done;
  check Alcotest.bool "baseline breaks under concurrency" true (!broken >= 5)

let our_protocol_same_workload_is_consistent () =
  for seed = 1 to 10 do
    let run = Experiment.concurrent_joins p ~seed ~n:10 ~m:30 () in
    check Alcotest.int "ours consistent" 0 (List.length (Lazy.force run.violations))
  done

let our_protocol_has_no_state_at_existing_nodes () =
  (* Structural claim: seed nodes never hold join-process state. The node
     record exposes the queues; for seeds they must stay empty. *)
  let run = Experiment.concurrent_joins p ~seed:3 ~n:30 ~m:30 () in
  List.iter
    (fun id ->
      let node = Ntcu_core.Network.node_exn run.net id in
      check Alcotest.int "no pending replies at seeds" 0
        (Ntcu_core.Node.pending_replies node);
      check Alcotest.int "no queued join waits at seeds" 0
        (Ntcu_core.Node.queued_join_waits node))
    run.seeds

let message_counts_populated () =
  let r = Experiment.baseline_run p ~seed:4 ~n:20 ~m:10 ~concurrent:false in
  check Alcotest.bool "messages counted" true (r.base_messages > 0)

(* ---- The baseline on the shared wire: trace and delay hook ---- *)

(* Concurrent joins into a small baseline network through the Protocol.S
   adapter, optionally under a scheduler; returns the delivery trace. *)
let baseline_trace ?scheduler ~record_trace () =
  let rng = Rng.create 5 in
  let seeds = Workload.distinct_ids rng p ~n:12 in
  let joiners = Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:6 in
  let t =
    Baseline.create
      ~latency:(Ntcu_sim.Latency.uniform ~seed:6 ~lo:1. ~hi:100.)
      ~record_trace
      { Ntcu_protocol.Protocol.params = p; seed = 7; maintain_every = 500.; rounds = 4 }
  in
  Option.iter
    (fun kind ->
      Baseline.set_delay_hook t (Some (Scheduler.hook (Scheduler.make ~seed:0 kind))))
    scheduler;
  Baseline.seed_network t ~seed:8 seeds;
  List.iter (fun id -> Baseline.start_join t ~at:0. ~id ~gateway:(List.hd seeds)) joiners;
  Baseline.run t;
  Baseline.trace t

let baseline_records_trace () =
  check Alcotest.bool "no trace unless requested" true
    (Option.is_none (baseline_trace ~record_trace:false ()));
  match baseline_trace ~record_trace:true () with
  | None -> Alcotest.fail "record_trace ignored"
  | Some tr -> check Alcotest.bool "deliveries recorded" true (Trace.length tr > 0)

(* The hook reaches the baseline's frames: stretching its first frame (a
   joiner's first table-copy request) moves the schedule, and the same
   schedule replays bit for bit. *)
let baseline_obeys_delay_hook () =
  let digest ?scheduler () =
    match baseline_trace ?scheduler ~record_trace:true () with
    | Some tr -> Trace.digest tr
    | None -> Alcotest.fail "no trace"
  in
  let stretched = Scheduler.Fixed [ { Scheduler.seq = 0; factor = 50. } ] in
  let nop = digest ~scheduler:Scheduler.Nop () in
  check Alcotest.string "nop hook leaves the schedule alone" (digest ()) nop;
  let once = digest ~scheduler:stretched () in
  check Alcotest.bool "stretched frame changes the digest" true (once <> nop);
  check Alcotest.string "same schedule, same run" once (digest ~scheduler:stretched ())

let suites =
  [
    ( "baseline.multicast",
      [
        Alcotest.test_case "sequential consistent" `Quick sequential_is_consistent;
        Alcotest.test_case "state at existing nodes" `Quick sequential_keeps_state_at_existing_nodes;
        Alcotest.test_case "concurrency breaks baseline" `Quick concurrent_dependent_joins_break_it;
        Alcotest.test_case "ours survives same workload" `Quick our_protocol_same_workload_is_consistent;
        Alcotest.test_case "ours: no state at existing nodes" `Quick
          our_protocol_has_no_state_at_existing_nodes;
        Alcotest.test_case "message counting" `Quick message_counts_populated;
        Alcotest.test_case "trace on request" `Quick baseline_records_trace;
        Alcotest.test_case "delay hook reaches its frames" `Quick baseline_obeys_delay_hook;
      ] );
  ]

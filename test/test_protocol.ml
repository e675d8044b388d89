module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Message = Ntcu_core.Message
module Stats = Ntcu_core.Stats
module Experiment = Ntcu_harness.Experiment
module Rng = Ntcu_std.Rng

let check = Alcotest.check

let assert_good_run ?(expect_m = -1) (run : Experiment.join_run) =
  if expect_m >= 0 then check Alcotest.int "joiner count" expect_m (List.length run.joiners);
  check Alcotest.bool "all in_system (Theorem 2)" true run.all_in_system;
  check Alcotest.bool "quiescent" true run.quiescent;
  (if not (Experiment.consistent run) then
     match Lazy.force run.violations with
     | v :: rest ->
       Alcotest.failf "network inconsistent (%d violations), first: %a"
         (1 + List.length rest) Ntcu_table.Check.pp_violation v
     | [] -> Alcotest.fail "limit:1 probe and full scan disagree");
  let d = (Network.params run.net).d in
  Array.iter
    (fun c ->
      if c > d + 1 then Alcotest.failf "Theorem 3 violated: %d > d+1 = %d" c (d + 1))
    run.cp_wait

let single_join_into_singleton () =
  let p = Params.make ~b:4 ~d:5 in
  let net = Network.create p in
  let a = Id.of_string p "21233" and b = Id.of_string p "10010" in
  Network.add_seed_node net a;
  Network.start_join net ~id:b ~gateway:a ();
  Network.run net;
  check Alcotest.bool "in system" true (Network.all_in_system net);
  check Alcotest.int "consistent" 0 (List.length (Network.check_consistent net));
  check Alcotest.bool "reachable" true
    (Ntcu_table.Check.all_pairs_reachable (Network.tables net))

let single_join_records_period () =
  let p = Params.make ~b:4 ~d:5 in
  let net = Network.create p in
  let a = Id.of_string p "21233" and b = Id.of_string p "10010" in
  Network.add_seed_node net a;
  Network.start_join net ~at:5. ~id:b ~gateway:a ();
  Network.run net;
  let joiner = Network.node_exn net b in
  (match (Node.t_begin joiner, Node.t_end joiner) with
  | Some tb, Some te ->
    check Alcotest.bool "period ordered" true (tb < te);
    check (Alcotest.float 1e-9) "began at start time" 5. tb
  | _ -> Alcotest.fail "joining period not recorded");
  let seed = Network.node_exn net a in
  check Alcotest.bool "seed has no period" true (Node.t_begin seed = None)

let seed_network_is_consistent () =
  let p = Params.make ~b:8 ~d:5 in
  let rng = Rng.create 3 in
  let ids = Ntcu_harness.Workload.distinct_ids rng p ~n:200 in
  let net = Network.create p in
  Network.seed_consistent net ~seed:4 ids;
  check Alcotest.int "consistent" 0 (List.length (Network.check_consistent net));
  check Alcotest.bool "all in system" true (Network.all_in_system net)

let sequential_joins_consistent () =
  let run = Experiment.sequential_joins (Params.make ~b:4 ~d:6) ~seed:11 ~n:20 ~m:15 () in
  assert_good_run ~expect_m:15 run;
  (* Sequential joins must classify as sequential. *)
  let periods =
    List.map
      (fun id ->
        let node = Network.node_exn run.net id in
        match (Node.t_begin node, Node.t_end node) with
        | Some b, Some e -> (b, e)
        | _ -> Alcotest.fail "missing period")
      run.joiners
  in
  check Alcotest.bool "timing sequential" true
    (Ntcu_cset.Cset.classify_timing periods = Ntcu_cset.Cset.Sequential)

let concurrent_joins_consistent () =
  let run = Experiment.concurrent_joins (Params.make ~b:4 ~d:6) ~seed:21 ~n:30 ~m:40 () in
  assert_good_run ~expect_m:40 run

let dependent_concurrent_joins_consistent () =
  (* All joiners share a 2-digit suffix: one deep C-set tree. *)
  let run =
    Experiment.concurrent_joins
      (Params.make ~b:8 ~d:5)
      ~suffix:[| 3; 1 |] ~seed:31 ~n:40 ~m:30 ()
  in
  assert_good_run ~expect_m:30 run

let network_init_from_one_node () =
  let run = Experiment.network_init (Params.make ~b:4 ~d:6) ~seed:41 ~n:40 in
  assert_good_run run;
  check Alcotest.int "grew from one seed" 1 (List.length run.seeds);
  check Alcotest.int "size" 40 (Network.size run.net)

let paper_figure2_workload () =
  let p = Params.paper_example_fig2 in
  let v = List.map (Id.of_string p) [ "72430"; "10353"; "62332"; "13141"; "31701" ] in
  let w = List.map (Id.of_string p) [ "10261"; "47051"; "00261" ] in
  let net = Network.create ~latency:(Ntcu_sim.Latency.uniform ~seed:7 ~lo:1. ~hi:50.) p in
  Network.seed_consistent net ~seed:5 v;
  List.iter (fun id -> Network.start_join net ~id ~gateway:(List.hd v) ()) w;
  Network.run net;
  check Alcotest.bool "in system" true (Network.all_in_system net);
  check Alcotest.int "consistent" 0 (List.length (Network.check_consistent net))

let all_size_modes_consistent () =
  List.iter
    (fun size_mode ->
      let run =
        Experiment.concurrent_joins ~size_mode
          (Params.make ~b:8 ~d:5)
          ~suffix:[| 2 |] ~seed:51 ~n:25 ~m:25 ()
      in
      assert_good_run run)
    [ Message.Full; Message.Level_range; Message.Bit_vector ]

let size_modes_reduce_bytes () =
  (* Each mode's traffic is pinned exactly: the golden trace covers Full mode
     on a small network only, and only these runs build level-range
     snapshots and filter replies by the bit vector. *)
  let bytes_for mode ~messages ~bytes =
    let run =
      Experiment.concurrent_joins ~size_mode:mode
        (Params.make ~b:16 ~d:8)
        ~seed:61 ~n:100 ~m:60 ()
    in
    assert_good_run run;
    let stats = Network.global_stats run.net in
    check Alcotest.int "messages sent" messages (Stats.total_sent stats);
    check Alcotest.int "bytes sent" bytes (Stats.bytes_sent stats);
    Stats.bytes_sent stats
  in
  let full = bytes_for Message.Full ~messages:3279 ~bytes:415620 in
  let level = bytes_for Message.Level_range ~messages:3277 ~bytes:276722 in
  check Alcotest.bool "level-range cheaper than full" true (level < full);
  (* The bit vector adds d*b/8 bytes per JoinNotiMsg but prunes reply cells;
     it must never cost more than plain level-range by a large factor. *)
  let bv = bytes_for Message.Bit_vector ~messages:3277 ~bytes:206844 in
  check Alcotest.bool "bit-vector within level-range ballpark" true
    (float_of_int bv < 1.2 *. float_of_int level)

let latency_models_do_not_matter_for_safety () =
  let p = Params.make ~b:4 ~d:6 in
  List.iter
    (fun latency ->
      let run = Experiment.concurrent_joins ~latency p ~seed:71 ~n:20 ~m:25 () in
      assert_good_run run)
    [
      Ntcu_sim.Latency.constant 1.0;
      Ntcu_sim.Latency.uniform ~seed:1 ~lo:0.1 ~hi:500.;
      Ntcu_sim.Latency.of_distance ~jitter:0.5 ~seed:2 (fun ~src ~dst ->
          float_of_int (1 + ((src * 7) + (dst * 13) mod 97)));
    ]

let reply_matching () =
  let run = Experiment.concurrent_joins (Params.make ~b:8 ~d:5) ~seed:81 ~n:30 ~m:30 () in
  assert_good_run run;
  let g = Network.global_stats run.net in
  let sent k = Stats.sent g k and received k = Stats.received g k in
  (* Reliable delivery: everything sent is received. *)
  List.iter
    (fun k -> check Alcotest.int (Message.kind_name k ^ " delivered") (sent k) (received k))
    [ Message.K_cp_rst; K_join_wait; K_join_noti; K_spe_noti; K_join_wait_rly ];
  (* One reply per request. *)
  check Alcotest.int "CpRly per CpRst" (sent K_cp_rst) (sent K_cp_rly);
  check Alcotest.int "JoinWaitRly per JoinWait" (sent K_join_wait) (sent K_join_wait_rly);
  check Alcotest.int "JoinNotiRly per JoinNoti" (sent K_join_noti) (sent K_join_noti_rly);
  check Alcotest.int "SpeNotiRly per SpeNoti origin" (sent K_spe_noti_rly)
    (min (sent K_spe_noti) (sent K_spe_noti_rly))

let determinism_across_runs () =
  let go () =
    let p = Params.make ~b:4 ~d:5 in
    let rng = Rng.create 5 in
    let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n:10 in
    let joiners =
      Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:10
    in
    let net =
      Network.create ~record_trace:true
        ~latency:(Ntcu_sim.Latency.uniform ~seed:9 ~lo:1. ~hi:50.)
        p
    in
    Network.seed_consistent net ~seed:2 seeds;
    List.iter (fun id -> Network.start_join net ~id ~gateway:(List.hd seeds) ()) joiners;
    Network.run net;
    match Network.trace net with Some t -> t | None -> Alcotest.fail "no trace"
  in
  let a = go () and b = go () in
  check Alcotest.int "same event count" (Ntcu_sim.Trace.length a) (Ntcu_sim.Trace.length b);
  check Alcotest.bool "identical traces" true (Ntcu_sim.Trace.equal a b)

let joiner_state_drained () =
  let run = Experiment.concurrent_joins (Params.make ~b:4 ~d:6) ~seed:91 ~n:15 ~m:20 () in
  assert_good_run run;
  List.iter
    (fun id ->
      let node = Network.node_exn run.net id in
      check Alcotest.int "no pending replies" 0 (Node.pending_replies node);
      check Alcotest.int "no queued join waits" 0 (Node.queued_join_waits node);
      check Alcotest.bool "noti level sane" true
        (Node.noti_level node >= 0 && Node.noti_level node < 6))
    run.joiners

let start_join_validation () =
  let p = Params.make ~b:4 ~d:5 in
  let net = Network.create p in
  let a = Id.of_string p "21233" in
  Network.add_seed_node net a;
  (try
     Network.start_join net ~id:a ~gateway:a ();
     Alcotest.fail "duplicate id accepted"
   with Invalid_argument _ -> ());
  try
    Network.start_join net ~id:(Id.of_string p "00000") ~gateway:(Id.of_string p "11111") ();
    Alcotest.fail "unknown gateway accepted"
  with Invalid_argument _ -> ()

let self_send_forbidden () =
  let p = Params.make ~b:4 ~d:5 in
  let node = Node.create_joiner { Node.params = p; size_mode = Message.Full } (Id.of_string p "21233") in
  try
    ignore (Node.begin_join node ~now:0. ~gateway:(Id.of_string p "21233"));
    Alcotest.fail "self gateway accepted"
  with Invalid_argument _ -> ()

let stagger_modes_consistent () =
  (* Overlapping but not identical start times: mixed interleavings. *)
  let run =
    Experiment.concurrent_joins ~stagger:3.
      (Params.make ~b:4 ~d:6)
      ~seed:101 ~n:20 ~m:30 ()
  in
  assert_good_run run

let base_two_consistent () =
  let run = Experiment.concurrent_joins (Params.make ~b:2 ~d:10) ~seed:111 ~n:16 ~m:24 () in
  assert_good_run run

let two_twins_join () =
  (* Two nodes differing only in the top digit join an unrelated network:
     the deepest possible mutual dependency. *)
  let p = Params.make ~b:4 ~d:5 in
  let v = List.map (Id.of_string p) [ "00000"; "11111"; "22222" ] in
  let w = List.map (Id.of_string p) [ "13333"; "23333" ] in
  List.iter
    (fun seed ->
      let net =
        Network.create ~latency:(Ntcu_sim.Latency.uniform ~seed ~lo:1. ~hi:100.) p
      in
      Network.seed_consistent net ~seed:(seed + 1) v;
      List.iter (fun id -> Network.start_join net ~id ~gateway:(List.hd v) ()) w;
      Network.run net;
      check Alcotest.bool "in system" true (Network.all_in_system net);
      check Alcotest.int "consistent" 0 (List.length (Network.check_consistent net));
      (* They must have found each other. *)
      let t1 = Node.table (Network.node_exn net (List.hd w)) in
      let t2 = Node.table (Network.node_exn net (List.nth w 1)) in
      check Alcotest.bool "13333 knows 23333" true
        (Ntcu_table.Table.neighbor t1 ~level:4 ~digit:2 <> None);
      check Alcotest.bool "23333 knows 13333" true
        (Ntcu_table.Table.neighbor t2 ~level:4 ~digit:1 <> None))
    [ 1; 2; 3; 4; 5 ]

let random_scenarios =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"random concurrent-join scenarios stay consistent"
       QCheck.(
         quad (int_range 1 30) (int_range 1 25) small_int
           (pair (int_range 2 8) (int_range 3 8)))
       (fun (n, m, seed, (b, d)) ->
         let p = Params.make ~b ~d in
         (* keep populations inside small ID spaces *)
         let space = float_of_int b ** float_of_int d in
         let n = min n (int_of_float (space /. 4.)) in
         let m = min m (int_of_float (space /. 4.)) in
         let n = max n 1 and m = max m 1 in
         let run = Experiment.concurrent_joins p ~seed ~n ~m () in
         run.all_in_system && run.quiescent
         && Experiment.consistent run
         && Array.for_all (fun c -> c <= d + 1) run.cp_wait))

let suites =
  [
    ( "protocol.basic",
      [
        Alcotest.test_case "join into singleton" `Quick single_join_into_singleton;
        Alcotest.test_case "joining period" `Quick single_join_records_period;
        Alcotest.test_case "seeded network consistent" `Quick seed_network_is_consistent;
        Alcotest.test_case "start_join validation" `Quick start_join_validation;
        Alcotest.test_case "self gateway rejected" `Quick self_send_forbidden;
      ] );
    ( "protocol.joins",
      [
        Alcotest.test_case "sequential" `Quick sequential_joins_consistent;
        Alcotest.test_case "concurrent" `Quick concurrent_joins_consistent;
        Alcotest.test_case "dependent concurrent" `Quick dependent_concurrent_joins_consistent;
        Alcotest.test_case "network initialization" `Quick network_init_from_one_node;
        Alcotest.test_case "paper Figure 2 workload" `Quick paper_figure2_workload;
        Alcotest.test_case "staggered starts" `Quick stagger_modes_consistent;
        Alcotest.test_case "base 2" `Quick base_two_consistent;
        Alcotest.test_case "suffix twins" `Quick two_twins_join;
        random_scenarios;
      ] );
    ( "protocol.properties",
      [
        Alcotest.test_case "size modes consistent" `Quick all_size_modes_consistent;
        Alcotest.test_case "size modes reduce bytes" `Quick size_modes_reduce_bytes;
        Alcotest.test_case "latency independence" `Quick latency_models_do_not_matter_for_safety;
        Alcotest.test_case "reply matching" `Quick reply_matching;
        Alcotest.test_case "determinism" `Quick determinism_across_runs;
        Alcotest.test_case "joiner state drained" `Quick joiner_state_drained;
      ] );
  ]

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Recovery = Ntcu_extensions.Recovery
module Repair = Ntcu_extensions.Repair
module Leave_protocol = Ntcu_extensions.Leave_protocol
module Experiment = Ntcu_harness.Experiment

let check = Alcotest.check
let p = Params.make ~b:4 ~d:6

let build ~seed ~n ~m =
  let run = Experiment.concurrent_joins p ~seed ~n ~m () in
  check Alcotest.int "setup consistent" 0 (List.length (Lazy.force run.violations));
  run

(* Consistency of the surviving network only. *)
let survivors_consistent net =
  Ntcu_table.Check.violations (Network.tables net)

(* A node that has left must not stay in any live node's reverse set: the
   departure scrubs it from the reverse set of every node it stored. *)
let check_no_departed_reverse net =
  List.iter
    (fun node ->
      Id.Set.iter
        (fun rv ->
          if not (Network.mem net rv) then
            Alcotest.failf "%a keeps departed %a as a reverse neighbor" Id.pp (Node.id node)
              Id.pp rv)
        (Ntcu_table.Table.all_reverse (Node.table node)))
    (Network.nodes net)

let fail_marks_node () =
  let run = build ~seed:1 ~n:10 ~m:5 in
  let victim = List.hd run.joiners in
  Network.fail run.net victim;
  check Alcotest.bool "failed" true (Network.is_failed run.net victim);
  check Alcotest.bool "still registered" true (Network.mem run.net victim);
  check Alcotest.int "live shrinks" 14 (List.length (Network.live_ids run.net));
  (try
     Network.fail run.net victim;
     Alcotest.fail "double fail accepted"
   with Invalid_argument _ -> ());
  (* Messages to a failed node are dropped, not delivered. *)
  Network.start_join run.net ~id:(Id.of_string p "333333") ~gateway:victim ();
  Network.run run.net;
  check Alcotest.bool "dropped counted" true (Network.messages_dropped run.net > 0)

let single_failure_repaired () =
  let run = build ~seed:2 ~n:20 ~m:10 in
  Network.fail run.net (List.hd run.joiners);
  check Alcotest.bool "broken before repair" false (survivors_consistent run.net = []);
  let report = Recovery.repair run.net in
  check Alcotest.int "consistent after repair" 0 (List.length (survivors_consistent run.net));
  check Alcotest.bool "scrubbed something" true (report.scrubbed > 0);
  check Alcotest.int "survivors" 29 report.survivors

let mass_failure_repaired () =
  List.iter
    (fun fraction ->
      let run = build ~seed:3 ~n:40 ~m:30 in
      let victims = Recovery.fail_random run.net ~seed:5 ~fraction in
      check Alcotest.bool "some victims" true (List.length victims > 0);
      let report = Recovery.repair run.net in
      (match survivors_consistent run.net with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "fraction %.2f: %a" fraction Ntcu_table.Check.pp_violation v);
      check Alcotest.bool "accounting adds up" true
        (report.scrubbed
        = report.repaired_backup + report.repaired_local + report.repaired_flood
          + report.emptied))
    [ 0.1; 0.3; 0.5 ]

let repair_is_idempotent () =
  let run = build ~seed:4 ~n:25 ~m:15 in
  ignore (Recovery.fail_random run.net ~seed:6 ~fraction:0.25);
  ignore (Recovery.repair run.net);
  let second = Recovery.repair run.net in
  check Alcotest.int "nothing to scrub" 0 second.scrubbed;
  check Alcotest.int "nothing repaired" 0 (second.repaired_local + second.repaired_flood)

let join_after_recovery () =
  let run = build ~seed:5 ~n:20 ~m:10 in
  ignore (Recovery.fail_random run.net ~seed:7 ~fraction:0.3);
  ignore (Recovery.repair run.net);
  (* The repaired network accepts new joins. *)
  let gateway = List.find (fun id -> not (Network.is_failed run.net id)) run.seeds in
  let fresh =
    Ntcu_harness.Workload.distinct_ids
      ~avoid:(Id.Set.of_list (Network.ids run.net))
      (Ntcu_std.Rng.create 9) p ~n:5
  in
  List.iter (fun id -> Network.start_join run.net ~id ~gateway ()) fresh;
  Network.run run.net;
  List.iter
    (fun id ->
      check Alcotest.bool "new joiner in system" true
        (Node.status (Network.node_exn run.net id) = Node.In_system))
    fresh;
  check Alcotest.int "consistent with new joiners" 0
    (List.length (survivors_consistent run.net))

let repair_find_live_tiers () =
  let run = build ~seed:6 ~n:30 ~m:10 in
  let node = Network.node_exn run.net (List.hd run.seeds) in
  let table = Node.table node in
  (* A suffix carried by a direct neighbor: local hit. *)
  let neighbor =
    match
      Ntcu_table.Table.fold table ~init:None ~f:(fun acc ~level:_ ~digit:_ n _ ->
          if acc = None && not (Id.equal n (Node.id node)) then Some n else acc)
    with
    | Some n -> n
    | None -> Alcotest.fail "no neighbor"
  in
  (match Repair.find_live run.net ~owner:table ~suffix:(Id.suffix neighbor 1) with
  | Repair.Found_local _ -> ()
  | other -> Alcotest.failf "expected local hit, got %a" Repair.pp_outcome other);
  (* A suffix carried by nobody: Not_found. *)
  let impossible = Array.make 6 3 in
  let all = Network.ids run.net in
  if not (List.exists (fun id -> Id.has_suffix id impossible) all) then begin
    match Repair.find_live run.net ~owner:table ~suffix:impossible with
    | Repair.Not_found _ -> ()
    | other -> Alcotest.failf "expected not-found, got %a" Repair.pp_outcome other
  end;
  (* Exclusion is honoured. *)
  match
    Repair.find_live ~exclude:(Id.equal neighbor) run.net ~owner:table
      ~suffix:(Id.suffix neighbor 6)
  with
  | Repair.Not_found _ -> ()
  | other -> Alcotest.failf "exclusion ignored: %a" Repair.pp_outcome other

let repair_requires_quiescence () =
  let run = build ~seed:20 ~n:10 ~m:5 in
  (* A scheduled join leaves events pending: the offline repair pass reads
     and rewrites every table, so running it mid-flight would race with
     in-transit messages. *)
  Network.start_join run.net ~id:(Id.of_string p "333333") ~gateway:(List.hd run.seeds) ();
  check Alcotest.bool "not quiescent" false (Network.is_quiescent run.net);
  (try
     ignore (Recovery.repair run.net);
     Alcotest.fail "repair accepted a busy network"
   with Invalid_argument _ -> ());
  (* Draining the network makes the same call legal again. *)
  Network.run run.net;
  ignore (Recovery.repair run.net);
  check Alcotest.int "consistent" 0 (List.length (survivors_consistent run.net))

(* --- message-level leave protocol --- *)

let leave_protocol_single () =
  let run = build ~seed:7 ~n:20 ~m:10 in
  let lp = Leave_protocol.create run.net in
  let victim = List.hd run.joiners in
  Leave_protocol.request_leave lp victim;
  Leave_protocol.run lp;
  let r = Leave_protocol.report lp in
  check Alcotest.int "departed" 1 r.departed;
  check Alcotest.bool "gone" false (Network.mem run.net victim);
  check Alcotest.bool "messages flowed" true (r.messages > 0);
  check Alcotest.int "consistent" 0 (List.length (survivors_consistent run.net))

let leave_protocol_concurrent () =
  List.iter
    (fun seed ->
      let run = build ~seed ~n:25 ~m:20 in
      let lp = Leave_protocol.create run.net in
      (* A third of the network leaves at once, including adjacent nodes. *)
      let victims = fst (Ntcu_harness.Workload.split 15 (Network.ids run.net)) in
      List.iter (fun id -> Leave_protocol.request_leave lp id) victims;
      Leave_protocol.run lp;
      let r = Leave_protocol.report lp in
      check Alcotest.int "all departed" 15 r.departed;
      check_no_departed_reverse run.net;
      match survivors_consistent run.net with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "seed %d: %a (%a)" seed Ntcu_table.Check.pp_violation v
          Leave_protocol.pp_report r)
    [ 11; 12; 13; 14; 15 ]

let leave_protocol_staggered () =
  let run = build ~seed:16 ~n:20 ~m:20 in
  let lp = Leave_protocol.create run.net in
  let victims = fst (Ntcu_harness.Workload.split 10 run.joiners) in
  let now = Ntcu_sim.Engine.now (Network.engine run.net) in
  List.iteri
    (fun i id -> Leave_protocol.request_leave lp ~at:(now +. (float_of_int i *. 2.)) id)
    victims;
  Leave_protocol.run lp;
  check Alcotest.int "all departed" 10 (Leave_protocol.report lp).departed;
  check Alcotest.int "consistent" 0 (List.length (survivors_consistent run.net))

let leave_protocol_ignores_bad_requests () =
  let run = build ~seed:17 ~n:8 ~m:4 in
  let lp = Leave_protocol.create run.net in
  (* Unknown node and double request: both harmless. *)
  Leave_protocol.request_leave lp (Id.of_string p "333333");
  let victim = List.hd run.joiners in
  Leave_protocol.request_leave lp victim;
  Leave_protocol.request_leave lp victim;
  Leave_protocol.run lp;
  check Alcotest.int "departed once" 1 (Leave_protocol.report lp).departed;
  check Alcotest.int "consistent" 0 (List.length (survivors_consistent run.net))

let leave_then_fail_then_recover () =
  (* Combined churn: leaves, then crashes, then recovery. *)
  let run = build ~seed:18 ~n:30 ~m:20 in
  let lp = Leave_protocol.create run.net in
  List.iter (fun id -> Leave_protocol.request_leave lp id)
    (fst (Ntcu_harness.Workload.split 8 run.joiners));
  Leave_protocol.run lp;
  ignore (Recovery.fail_random run.net ~seed:19 ~fraction:0.2);
  ignore (Recovery.repair run.net);
  check Alcotest.int "consistent after combined churn" 0
    (List.length (survivors_consistent run.net))

let suites =
  [
    ( "extensions.recovery",
      [
        Alcotest.test_case "fail semantics" `Quick fail_marks_node;
        Alcotest.test_case "single failure" `Quick single_failure_repaired;
        Alcotest.test_case "mass failure" `Quick mass_failure_repaired;
        Alcotest.test_case "idempotent" `Quick repair_is_idempotent;
        Alcotest.test_case "join after recovery" `Quick join_after_recovery;
        Alcotest.test_case "find_live tiers" `Quick repair_find_live_tiers;
        Alcotest.test_case "requires quiescence" `Quick repair_requires_quiescence;
      ] );
    ( "extensions.leave_protocol",
      [
        Alcotest.test_case "single leave" `Quick leave_protocol_single;
        Alcotest.test_case "concurrent leaves" `Quick leave_protocol_concurrent;
        Alcotest.test_case "staggered leaves" `Quick leave_protocol_staggered;
        Alcotest.test_case "bad requests" `Quick leave_protocol_ignores_bad_requests;
        Alcotest.test_case "leaves + failures" `Quick leave_then_fail_then_recover;
      ] );
  ]

(* Dynamic-membership behaviours across layers: directory maintenance after
   churn, the paper's reliability assumption probed with a lossy network,
   mid-run monotonicity of reachability, and mixed join/leave churn. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Directory = Ntcu_routing.Directory
module Leave_protocol = Ntcu_extensions.Leave_protocol
module Experiment = Ntcu_harness.Experiment
module Rng = Ntcu_std.Rng

let check = Alcotest.check
let p = Params.make ~b:4 ~d:6

let build ~seed ~n ~m =
  let run = Experiment.concurrent_joins p ~seed ~n ~m () in
  check Alcotest.int "setup consistent" 0 (List.length (Lazy.force run.violations));
  run

let lookup_of net x = Option.map Node.table (Network.node net x)

(* ---- directory maintenance ---- *)

let maintenance_after_joins () =
  let run = build ~seed:1 ~n:30 ~m:10 in
  let net = run.net in
  let dir = Directory.create ~lookup:(lookup_of net) () in
  let rng = Rng.create 3 in
  let ids = Array.of_list (Network.ids net) in
  let objects = List.init 15 (fun _ -> Id.random rng p) in
  let storers =
    List.map
      (fun obj ->
        let storer = Rng.pick rng ids in
        (match Directory.publish dir ~storer obj with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "publish: %a" Ntcu_routing.Route.pp_error e);
        (obj, storer))
      objects
  in
  (* Grow the network: roots may move, old trails go stale. *)
  let fresh =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list (Network.ids net)) rng p
      ~n:20
  in
  List.iter (fun id -> Network.start_join net ~id ~gateway:ids.(0) ()) fresh;
  Network.run net;
  check Alcotest.int "still consistent" 0 (List.length (Network.check_consistent net));
  let st = Directory.maintain_full dir in
  check Alcotest.int "all objects republished" 15 st.Directory.republished;
  check Alcotest.int "no republish errors" 0 st.Directory.errors;
  (* Every object is findable from every new node (P1 restored). *)
  List.iter
    (fun (obj, storer) ->
      List.iter
        (fun client ->
          match Directory.locate dir ~client obj with
          | Ok { first_storers = storers; _ } ->
            check Alcotest.bool "found after maintain" true
              (List.exists (Id.equal storer) storers)
          | Error e -> Alcotest.failf "lookup: %a" Ntcu_routing.Route.pp_error e)
        (Ntcu_harness.Workload.split 5 fresh |> fst))
    storers

let maintenance_after_leaves () =
  let run = build ~seed:2 ~n:25 ~m:15 in
  let net = run.net in
  let dir = Directory.create ~lookup:(lookup_of net) () in
  let rng = Rng.create 5 in
  let obj = Id.random rng p in
  let survivor_storer = List.hd run.seeds in
  let doomed_storer = List.hd run.joiners in
  (match Directory.publish dir ~storer:survivor_storer obj with Ok _ -> () | Error _ -> Alcotest.fail "p1");
  (match Directory.publish dir ~storer:doomed_storer obj with Ok _ -> () | Error _ -> Alcotest.fail "p2");
  let doomed_only = Id.random rng p in
  (match Directory.publish dir ~storer:doomed_storer doomed_only with Ok _ -> () | Error _ -> Alcotest.fail "p3");
  let lp = Leave_protocol.create net in
  Leave_protocol.request_leave lp doomed_storer;
  Leave_protocol.run lp;
  check Alcotest.int "storer departed" 1 (Leave_protocol.report lp).departed;
  let st = Directory.maintain_full dir in
  check Alcotest.int "one object survives" 1 st.Directory.republished;
  check Alcotest.int "no republish errors" 0 st.Directory.errors;
  let client = List.nth run.seeds 3 in
  (match Directory.locate dir ~client obj with
  | Ok { first_storers = storers; _ } ->
    check Alcotest.(list string) "only the survivor" [ Id.to_string survivor_storer ]
      (List.map Id.to_string storers)
  | Error e -> Alcotest.failf "lookup: %a" Ntcu_routing.Route.pp_error e);
  match Directory.locate dir ~client doomed_only with
  | Ok { first_storers; _ } ->
    check Alcotest.int "dead object gone" 0 (List.length first_storers)
  | Error e -> Alcotest.failf "lookup: %a" Ntcu_routing.Route.pp_error e

let published_objects_lists () =
  let run = build ~seed:3 ~n:10 ~m:5 in
  let dir = Directory.create ~lookup:(lookup_of run.net) () in
  check Alcotest.int "empty" 0 (List.length (Directory.published_objects dir));
  let obj = Id.random (Rng.create 6) p in
  (match Directory.publish dir ~storer:(List.hd run.seeds) obj with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "publish");
  check Alcotest.int "one" 1 (List.length (Directory.published_objects dir))

(* ---- reliable-delivery assumption (iii) ---- *)

let lossless_by_default () =
  let run = build ~seed:4 ~n:15 ~m:10 in
  check Alcotest.int "no losses" 0 (Network.messages_lost run.net);
  check Alcotest.int "no stuck joiners" 0 (List.length (Network.stuck_joiners run.net))

let losses_wedge_joins () =
  (* 20% loss: joins wedge rather than corrupt. The simulation still
     quiesces; completed state is whatever it is, but the point the paper's
     assumption (iii) makes is liveness, not safety. *)
  let rng = Rng.create 7 in
  let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n:15 in
  let joiners =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:15
  in
  let net = Network.create ~loss:(0.2, 99) p in
  Network.seed_consistent net ~seed:8 seeds;
  List.iter (fun id -> Network.start_join net ~id ~gateway:(List.hd seeds) ()) joiners;
  Network.run net;
  check Alcotest.bool "quiescent" true (Network.is_quiescent net);
  check Alcotest.bool "messages were lost" true (Network.messages_lost net > 0);
  check Alcotest.bool "some joiner wedged (liveness needs assumption iii)" true
    (Network.stuck_joiners net <> [])

let zero_loss_is_none () =
  let net = Network.create ~loss:(0., 1) p in
  let a = Id.of_string p "000000" and b = Id.of_string p "111111" in
  Network.add_seed_node net a;
  Network.start_join net ~id:b ~gateway:a ();
  Network.run net;
  check Alcotest.bool "all joined" true (Network.all_in_system net);
  check Alcotest.int "no losses" 0 (Network.messages_lost net)

(* ---- monotone reachability during a run ---- *)

let reachability_is_monotone_mid_run () =
  (* The protocol is designed to "expand the network monotonically and
     preserve reachability of existing nodes so that once a set of nodes can
     reach each other, they always can thereafter" (Section 3.1). Sample the
     run at intervals and check exactly that. *)
  let rng = Rng.create 9 in
  let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n:8 in
  let joiners =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:12
  in
  let net =
    Network.create ~latency:(Ntcu_sim.Latency.uniform ~seed:10 ~lo:1. ~hi:200.) p
  in
  Network.seed_consistent net ~seed:11 seeds;
  List.iter (fun id -> Network.start_join net ~id ~gateway:(List.hd seeds) ()) joiners;
  let lookup = lookup_of net in
  let reachable x y =
    Ntcu_table.Check.next_hop_path ~lookup x y <> None
  in
  let engine = Network.engine net in
  let previously = ref [] in
  let time = ref 0. in
  while not (Network.is_quiescent net) do
    time := !time +. 50.;
    Ntcu_sim.Engine.run_until engine ~time:!time;
    (* Previously-reachable pairs must stay reachable. *)
    List.iter
      (fun (x, y) ->
        if not (reachable x y) then
          Alcotest.failf "reachability lost: %a -> %a at t=%g" Id.pp x Id.pp y !time)
      !previously;
    (* Extend the watch list with pairs of in_system nodes reachable now. *)
    let in_system =
      List.filter (fun id -> Node.status (Network.node_exn net id) = Node.In_system)
        (Network.ids net)
    in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            if (not (Id.equal x y)) && reachable x y then
              previously := (x, y) :: !previously)
          in_system)
      in_system
  done;
  check Alcotest.bool "watched pairs accumulated" true (List.length !previously > 0);
  check Alcotest.bool "final consistency" true (Network.check_consistent net = [])

(* ---- mixed join/leave churn (assumption (iv) boundary) ---- *)

let mixed_join_leave_epochs_are_safe () =
  (* Alternating quiescent epochs of joins and leaves (the regime the paper's
     theorem covers) never break consistency. *)
  let run = build ~seed:12 ~n:20 ~m:10 in
  let net = run.net in
  let rng = Rng.create 13 in
  for _epoch = 1 to 3 do
    let fresh =
      Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list (Network.ids net)) rng p
        ~n:8
    in
    let gateways = Array.of_list (Network.live_ids net) in
    List.iter (fun id -> Network.start_join net ~id ~gateway:(Rng.pick rng gateways) ()) fresh;
    Network.run net;
    check Alcotest.int "consistent after joins" 0
      (List.length (Network.check_consistent net));
    let lp = Ntcu_extensions.Leave_protocol.create net in
    let victims = Array.of_list (Network.live_ids net) in
    Rng.shuffle rng victims;
    Array.iter
      (fun id -> Ntcu_extensions.Leave_protocol.request_leave lp id)
      (Array.sub victims 0 6);
    Ntcu_extensions.Leave_protocol.run lp;
    check Alcotest.int "consistent after leaves" 0
      (List.length (Network.check_consistent net))
  done

let suites =
  [
    ( "routing.maintenance",
      [
        Alcotest.test_case "after joins" `Quick maintenance_after_joins;
        Alcotest.test_case "after leaves" `Quick maintenance_after_leaves;
        Alcotest.test_case "published objects" `Quick published_objects_lists;
      ] );
    ( "protocol.assumptions",
      [
        Alcotest.test_case "lossless by default" `Quick lossless_by_default;
        Alcotest.test_case "loss wedges joins" `Quick losses_wedge_joins;
        Alcotest.test_case "zero loss" `Quick zero_loss_is_none;
        Alcotest.test_case "monotone reachability" `Slow reachability_is_monotone_mid_run;
        Alcotest.test_case "epoch churn safe" `Quick mixed_join_leave_epochs_are_safe;
      ] );
  ]

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Leave_protocol = Ntcu_extensions.Leave_protocol
module Optimize = Ntcu_extensions.Optimize
module Experiment = Ntcu_harness.Experiment
module Rng = Ntcu_std.Rng

let check = Alcotest.check
let p = Params.make ~b:4 ~d:6

let build ~seed ~n ~m =
  let run = Experiment.concurrent_joins p ~seed ~n ~m () in
  check Alcotest.int "setup consistent" 0 (List.length (Lazy.force run.violations));
  run

(* One graceful departure through the message-level protocol, run to
   quiescence before the caller looks at the network again. *)
let leave net victim =
  let lp = Leave_protocol.create net in
  Leave_protocol.request_leave lp victim;
  Leave_protocol.run lp;
  let r = Leave_protocol.report lp in
  check Alcotest.int "departed" 1 r.departed;
  r

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

let many_leaves_preserve_consistency () =
  let run = build ~seed:2 ~n:25 ~m:20 in
  let rng = Rng.create 7 in
  let all = Array.of_list (Network.ids run.net) in
  Rng.shuffle rng all;
  (* Remove half the network, one at a time, checking after each. *)
  let victims = Array.sub all 0 (Array.length all / 2) in
  Array.iter
    (fun victim ->
      ignore (leave run.net victim);
      check_no_departed_reverse run.net;
      match Network.check_consistent run.net with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "after leave of %a: %a" Id.pp victim Ntcu_table.Check.pp_violation v)
    victims;
  check Alcotest.int "size halved" (Array.length all - Array.length victims)
    (Network.size run.net)

let leave_down_to_one_node () =
  let run = build ~seed:3 ~n:5 ~m:5 in
  let ids = Network.ids run.net in
  let rec drain = function
    | [ _ ] | [] -> ()
    | victim :: rest ->
      ignore (leave run.net victim);
      check Alcotest.int "consistent" 0 (List.length (Network.check_consistent run.net));
      drain rest
  in
  drain ids;
  check Alcotest.int "one node left" 1 (Network.size run.net)

let leave_then_join_again () =
  let run = build ~seed:4 ~n:15 ~m:10 in
  let victim = List.hd run.joiners in
  ignore (leave run.net victim);
  (* The departed ID can join again through any survivor. *)
  let gateway = List.hd run.seeds in
  Network.start_join run.net ~id:victim ~gateway ();
  Network.run run.net;
  check Alcotest.bool "rejoined" true (Network.all_in_system run.net);
  check Alcotest.int "consistent after rejoin" 0
    (List.length (Network.check_consistent run.net))

let leave_validation () =
  let run = build ~seed:5 ~n:5 ~m:2 in
  let lp = Leave_protocol.create run.net in
  Leave_protocol.request_leave lp (Id.of_string p "333333");
  Leave_protocol.run lp;
  check Alcotest.int "unknown node left" 0 (Leave_protocol.report lp).departed;
  (* leaving mid-join is refused: the request is dropped and the join
     completes *)
  let joiner = Id.of_string p "012301" in
  Network.start_join run.net ~id:joiner ~gateway:(List.hd run.seeds) ();
  check Alcotest.bool "joiner still joining" false
    (Node.status (Network.node_exn run.net joiner) = Node.In_system);
  Leave_protocol.request_leave lp joiner;
  Leave_protocol.run lp;
  check Alcotest.int "mid-join leave accepted" 0 (Leave_protocol.report lp).departed;
  check Alcotest.bool "joiner in system" true
    (Node.status (Network.node_exn run.net joiner) = Node.In_system);
  check Alcotest.int "consistent" 0 (List.length (Network.check_consistent run.net))

(* The handoff contract of leave_protocol.mli: the leaver's LeaveMsg reaches
   exactly the nodes that store it (its reverse neighbors), each vacated
   entry is either refilled with a suffix-correct substitute that gains the
   storer as a reverse neighbor, or legitimately emptied, and no table
   references the leaver afterwards. *)
let leave_hands_off_entries () =
  let run = build ~seed:11 ~n:25 ~m:15 in
  let net = run.net in
  (* Pick the most-stored node so the handoff actually has work to do. *)
  let victim, storers =
    List.fold_left
      (fun (best, best_rev) node ->
        let rev = Ntcu_table.Table.all_reverse (Node.table node) in
        if Id.Set.cardinal rev > Id.Set.cardinal best_rev then (Node.id node, rev)
        else (best, best_rev))
      (List.hd (Network.ids net), Id.Set.empty)
      (Network.nodes net)
  in
  check Alcotest.bool "victim is stored by someone" true (not (Id.Set.is_empty storers));
  (* Every (storer, level, digit) slot that holds the victim right now. *)
  let slots = ref [] in
  List.iter
    (fun node ->
      Ntcu_table.Table.iter (Node.table node) (fun ~level ~digit y _ ->
          if Id.equal y victim && not (Id.equal (Node.id node) victim) then
            slots := (Node.id node, level, digit) :: !slots))
    (Network.nodes net);
  let r = leave net victim in
  check Alcotest.int "every vacated slot is installed, refilled or emptied"
    (List.length !slots)
    (r.installed + r.fallback_local + r.fallback_flood + r.emptied);
  (* No dangling references to the leaver, anywhere. *)
  List.iter
    (fun node ->
      Ntcu_table.Table.iter (Node.table node) (fun ~level ~digit y _ ->
          if Id.equal y victim then
            Alcotest.failf "%a still stores the leaver at (%d,%d)" Id.pp
              (Node.id node) level digit))
    (Network.nodes net);
  (* Each vacated slot was handed a suffix-correct substitute (or certified
     empty — consistency, checked below, rules out a false negative), and the
     substitute's reverse set learned about the storer. *)
  List.iter
    (fun (storer, level, digit) ->
      match Network.node net storer with
      | None -> ()
      | Some snode -> (
        let table = Node.table snode in
        match Ntcu_table.Table.neighbor table ~level ~digit with
        | None -> ()
        | Some z ->
          check Alcotest.bool "substitute has the required suffix" true
            (Id.has_suffix z (Ntcu_table.Table.required_suffix table ~level ~digit));
          let znode = Option.get (Network.node net z) in
          check Alcotest.bool "substitute registered the storer" true
            (Id.Set.mem storer
               (Ntcu_table.Table.reverse_at (Node.table znode) ~level ~digit))))
    !slots;
  check Alcotest.int "consistent after handoff" 0
    (List.length (Network.check_consistent net))

(* --- optimization --- *)

(* Synthetic metric space: hosts on a line, distance = |a - b| by registration
   order hash. Deterministic and asymmetric-free. *)
let line_dist net =
  let ids = Array.of_list (Network.ids net) in
  let position = Id.Tbl.create 64 in
  Array.iteri (fun i id -> Id.Tbl.replace position id (float_of_int i)) ids;
  fun a b ->
    abs_float (Id.Tbl.find position a -. Id.Tbl.find position b)

let optimize_preserves_consistency () =
  let run = build ~seed:7 ~n:30 ~m:20 in
  let dist = line_dist run.net in
  let improved = Optimize.optimize run.net ~dist in
  check Alcotest.bool "some improvement happened" true (improved >= 0);
  check Alcotest.int "still consistent" 0 (List.length (Network.check_consistent run.net))

let optimize_reaches_fixpoint () =
  let run = build ~seed:8 ~n:30 ~m:20 in
  let dist = line_dist run.net in
  ignore (Optimize.optimize ~max_passes:20 run.net ~dist);
  check Alcotest.int "fixpoint: next pass does nothing" 0 (Optimize.pass run.net ~dist)

let optimize_reduces_stretch () =
  let run = build ~seed:9 ~n:40 ~m:30 in
  let dist = line_dist run.net in
  let before = Optimize.average_route_stretch run.net ~dist ~seed:3 ~samples:200 in
  let improved = Optimize.optimize run.net ~dist in
  let after = Optimize.average_route_stretch run.net ~dist ~seed:3 ~samples:200 in
  check Alcotest.bool "improvements found" true (improved > 0);
  if after > before +. 1e-9 then
    Alcotest.failf "stretch worsened: %.3f -> %.3f" before after

(* Swapping an entry for a closer neighbor must keep the RvNghNoti
   bookkeeping intact: after optimization every filled non-self entry is
   still mirrored in the occupant's reverse-neighbor set — the invariant the
   leave and repair layers navigate by. *)
let optimize_preserves_reverse_registration () =
  let run = build ~seed:12 ~n:30 ~m:20 in
  let dist = line_dist run.net in
  let improved = Optimize.optimize run.net ~dist in
  check Alcotest.bool "improvements found" true (improved > 0);
  List.iter
    (fun node ->
      let x = Node.id node in
      Ntcu_table.Table.iter (Node.table node) (fun ~level ~digit y _ ->
          if not (Id.equal x y) then
            let ynode = Option.get (Network.node run.net y) in
            if
              not
                (Id.Set.mem x
                   (Ntcu_table.Table.reverse_at (Node.table ynode) ~level ~digit))
            then
              Alcotest.failf "%a stores %a at (%d,%d) without reverse registration"
                Id.pp x Id.pp y level digit))
    (Network.nodes run.net);
  (* And the reverse sets still support a full leave afterwards. *)
  let victim = List.hd run.joiners in
  ignore (leave run.net victim);
  check Alcotest.int "leave after optimize stays consistent" 0
    (List.length (Network.check_consistent run.net))

let optimize_never_self () =
  let run = build ~seed:10 ~n:20 ~m:10 in
  let dist = line_dist run.net in
  ignore (Optimize.optimize run.net ~dist);
  (* Self entries must still be self (distance 0 could tempt a bad swap). *)
  List.iter
    (fun node ->
      let id = Node.id node in
      let table = Node.table node in
      for level = 0 to 5 do
        match Ntcu_table.Table.neighbor table ~level ~digit:(Id.digit id level) with
        | Some occupant -> check Alcotest.bool "self preserved" true (Id.equal occupant id)
        | None -> Alcotest.fail "self entry missing"
      done)
    (Network.nodes run.net)

let suites =
  [
    ( "extensions.leave",
      [
        Alcotest.test_case "many leaves" `Quick many_leaves_preserve_consistency;
        Alcotest.test_case "drain to one" `Quick leave_down_to_one_node;
        Alcotest.test_case "leave then rejoin" `Quick leave_then_join_again;
        Alcotest.test_case "validation" `Quick leave_validation;
        Alcotest.test_case "hands off entries" `Quick leave_hands_off_entries;
      ] );
    ( "extensions.optimize",
      [
        Alcotest.test_case "preserves consistency" `Quick optimize_preserves_consistency;
        Alcotest.test_case "fixpoint" `Quick optimize_reaches_fixpoint;
        Alcotest.test_case "reduces stretch" `Quick optimize_reduces_stretch;
        Alcotest.test_case "reverse registration kept" `Quick
          optimize_preserves_reverse_registration;
        Alcotest.test_case "self entries kept" `Quick optimize_never_self;
      ] );
  ]

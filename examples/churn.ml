(* Dynamic membership (property P4) end to end: run several epochs of churn —
   concurrent joins, concurrent message-level leaves, fail-stop crashes with
   recovery, and a proximity-optimization pass — verifying consistency
   (Definition 3.8) after every epoch.

   Run with: dune exec examples/churn.exe *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Rng = Ntcu_std.Rng

let verify net label =
  match Network.check_consistent net with
  | [] ->
    Format.printf "  %-28s consistent (%d live nodes)@." label
      (Network.live_count net)
  | v :: _ ->
    Format.printf "  %-28s INCONSISTENT: %a@." label Ntcu_table.Check.pp_violation v;
    exit 1

let () =
  let p = Params.make ~b:16 ~d:8 in
  let rng = Rng.create 2024 in
  let run = Ntcu_harness.Experiment.concurrent_joins p ~seed:7 ~n:400 ~m:100 () in
  let net = run.net in
  verify net "initial build (500 nodes)";

  for epoch = 1 to 4 do
    Format.printf "epoch %d:@." epoch;

    (* 1. A wave of concurrent joins through random live gateways. *)
    let avoid = Id.Set.of_list (Network.ids net) in
    let joiners = Ntcu_harness.Workload.distinct_ids ~avoid rng p ~n:60 in
    let gateways = Array.of_list (Network.live_ids net) in
    List.iter
      (fun id -> Network.start_join net ~id ~gateway:(Rng.pick rng gateways) ())
      joiners;
    Network.run net;
    verify net "after 60 concurrent joins";

    (* 2. A wave of concurrent leaves. *)
    let lp = Ntcu_extensions.Leave_protocol.create net in
    let candidates = Array.of_list (Network.live_ids net) in
    Rng.shuffle rng candidates;
    let leavers = Array.to_list (Array.sub candidates 0 40) in
    List.iter (fun id -> Ntcu_extensions.Leave_protocol.request_leave lp id) leavers;
    Ntcu_extensions.Leave_protocol.run lp;
    verify net "after 40 concurrent leaves";

    (* 3. Crashes plus recovery. *)
    let victims =
      Ntcu_extensions.Recovery.fail_random net ~seed:(epoch * 31) ~fraction:0.08
    in
    let report = Ntcu_extensions.Recovery.repair net in
    Format.printf "  %d crashed; %a@." (List.length victims)
      Ntcu_extensions.Recovery.pp_report report;
    verify net "after crash recovery";

    (* 4. Keep tables tight: one optimization pass on a synthetic metric. *)
    let ids = Array.of_list (Network.live_ids net) in
    let position = Id.Tbl.create 512 in
    Array.iteri (fun i id -> Id.Tbl.replace position id (float_of_int i)) ids;
    let dist a b =
      match (Id.Tbl.find_opt position a, Id.Tbl.find_opt position b) with
      | Some x, Some y -> abs_float (x -. y)
      | _ -> 1e9
    in
    let improved = Ntcu_extensions.Optimize.pass net ~dist in
    Format.printf "  optimization pass improved %d entries@." improved;
    verify net "after optimization"
  done;
  Format.printf "@.churn complete: %d live nodes, %d messages delivered, all epochs consistent@."
    (Network.live_count net)
    (Network.messages_delivered net)

(* Quickstart: build a small hypercube-routing network with the join
   protocol, inspect a neighbor table (Figure 1 style), and route a message.
   Exits 1 unless every node is in the system, the network is consistent and
   the message is routed.

   Run with: dune exec examples/quickstart.exe *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node

let () =
  (* IDs are 5 digits of base 4, as in the paper's Figure 1. *)
  let p = Params.paper_example_fig1 in

  (* Start from a single node and let everyone else join through it —
     network initialization per Section 6.1. *)
  let net = Network.create ~latency:(Ntcu_sim.Latency.uniform ~seed:1 ~lo:5. ~hi:60.) p in
  let first = Id.of_string p "21233" in
  Network.add_seed_node net first;

  let rng = Ntcu_std.Rng.create 7 in
  let others =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.singleton first) rng p ~n:15
  in
  (* All 15 nodes join concurrently, each bootstrapping from the first node. *)
  List.iter (fun id -> Network.start_join net ~id ~gateway:first ()) others;
  Network.run net;

  Format.printf "network of %d nodes built by %d concurrent joins@."
    (Network.size net) (List.length others);
  let in_system = Network.all_in_system net in
  let consistent = List.is_empty (Network.check_consistent net) in
  Format.printf "every node in_system: %b@." in_system;
  Format.printf "consistent (Definition 3.8): %b@.@." consistent;

  (* Show the first node's neighbor table, like the paper's Figure 1. *)
  Format.printf "%a@." Ntcu_table.Table.pp (Node.table (Network.node_exn net first));

  (* Route a message between two arbitrary nodes (Section 2.2). *)
  let src = List.nth others 3 and dst = List.nth others 11 in
  let lookup id = Option.map Node.table (Network.node net id) in
  let routed =
    match Ntcu_routing.Route.route ~lookup ~src ~dst with
    | Ok path ->
      Format.printf "route %a -> %a (%d hops): %a@." Id.pp src Id.pp dst
        (Ntcu_routing.Route.hop_count path)
        Fmt.(list ~sep:(any " -> ") Id.pp)
        path;
      true
    | Error e ->
      Format.printf "routing failed: %a@." Ntcu_routing.Route.pp_error e;
      false
  in
  if not (in_system && consistent && routed) then exit 1

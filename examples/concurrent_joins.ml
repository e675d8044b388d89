(* Churn at the paper's simulation scale: m nodes join an n-node consistent
   network concurrently over a transit-stub topology, exactly the setup of
   Figure 15(b). Prints liveness, consistency, Theorem-3 conformance, and the
   JoinNotiMsg distribution against the Theorem-5 bound; then removes a batch
   of nodes with the message-level leave protocol and re-verifies
   consistency. Exits 1 unless the joins end live, quiescent and consistent
   and the network is still consistent after the leaves.

   Run with:
     dune exec examples/concurrent_joins.exe                (n=1000 m=300 d=8)
     dune exec examples/concurrent_joins.exe -- 3096 1000 8 (paper setup)  *)

module Params = Ntcu_id.Params
module Experiment = Ntcu_harness.Experiment
module Report = Ntcu_harness.Report

let () =
  let n, m, d =
    match Sys.argv with
    | [| _; n; m; d |] -> (int_of_string n, int_of_string m, int_of_string d)
    | _ -> (1000, 300, 8)
  in
  let setup = { Experiment.d; n; m } in
  Format.printf "joining %d nodes concurrently into a consistent %d-node network (b=16, d=%d)@."
    m n d;
  let run =
    Experiment.fig15b ~routers:Ntcu_topology.Transit_stub.scaled_config ~seed:1 setup
  in
  Format.printf "%a@." Report.pp_join_run run;

  let p = Params.make ~b:16 ~d in
  Format.printf "Theorem-5 bound on E(J): %.3f@."
    (Ntcu_analysis.Join_cost.theorem5_bound p ~n ~m);
  Format.printf "CDF of JoinNotiMsg per joiner:@.%a@."
    (Report.pp_cdf ~label:(Printf.sprintf "n=%d m=%d d=%d" n m d))
    (Experiment.cdf_points run.join_noti);

  (* Now shrink the network: 10% of the joiners leave again, concurrently. *)
  let leavers = fst (Ntcu_harness.Workload.split (m / 10) run.joiners) in
  let lp = Ntcu_extensions.Leave_protocol.create run.net in
  List.iter (fun id -> Ntcu_extensions.Leave_protocol.request_leave lp id) leavers;
  Ntcu_extensions.Leave_protocol.run lp;
  let consistent = List.is_empty (Ntcu_core.Network.check_consistent run.net) in
  Format.printf "%a; consistent afterwards: %b@." Ntcu_extensions.Leave_protocol.pp_report
    (Ntcu_extensions.Leave_protocol.report lp)
    consistent;
  if not (Experiment.ok run && consistent) then exit 1

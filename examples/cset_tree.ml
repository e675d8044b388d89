(* The paper's running example (Section 3.3, Figure 2): nodes 10261, 47051
   and 00261 join a 5-node consistent network with b = 8, d = 5. Their
   notification sets all equal V_1, so they fall into one C-set tree rooted at
   V_1. This example runs the joins, prints the tree template C(V, W) and the
   realized tree cset(V, W), and verifies the three consistency conditions of
   Section 3.3. Exits 1 if the network ends inconsistent or a condition is
   violated.

   Run with: dune exec examples/cset_tree.exe *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Cset = Ntcu_cset.Cset

let () =
  let p = Params.paper_example_fig2 in
  let v = List.map (Id.of_string p) [ "72430"; "10353"; "62332"; "13141"; "31701" ] in
  let w = List.map (Id.of_string p) [ "10261"; "47051"; "00261" ] in

  let net = Network.create ~latency:(Ntcu_sim.Latency.uniform ~seed:3 ~lo:1. ~hi:40.) p in
  Network.seed_consistent net ~seed:5 v;
  List.iter (fun x -> Network.start_join net ~id:x ~gateway:(List.hd v) ()) w;
  Network.run net;
  let consistent = Network.check_consistent net = [] in
  Format.printf "joins complete; consistent: %b@.@." consistent;

  (* Notification sets (Definition 3.4). *)
  let v_index = Ntcu_table.Suffix_index.of_ids v in
  List.iter
    (fun x ->
      Format.printf "notification set of %a: V_%a@." Id.pp x Id.pp_suffix
        (Cset.noti_suffix v_index x))
    w;

  let root = Cset.noti_suffix v_index (List.hd w) in
  let v_root = List.filter (fun x -> Id.has_suffix x root) v in
  let lookup x = Option.map Node.table (Network.node net x) in

  Format.printf "@.tree template C(V, W) (paper Figure 2(b)):@.%a@." Cset.pp_tree
    (Cset.template p ~root ~w);
  let realized = Cset.realized ~lookup ~v_root ~root ~w in
  Format.printf "realized tree cset(V, W) (one realization of Figure 2(c)):@.%a@."
    Cset.pp_tree realized;

  let report name = function
    | Ok () ->
      Format.printf "%s: satisfied@." name;
      true
    | Error e ->
      Format.printf "%s: VIOLATED (%s)@." name e;
      false
  in
  (* Bound in turn: the elements of a list literal are evaluated last first. *)
  let c1 =
    report "condition (1) — structure matches, no empty C-set"
      (Cset.check_condition1 ~template:(Cset.template p ~root ~w) ~realized)
  in
  let c2 =
    report "condition (2) — V_1 members point into each child C-set"
      (Cset.check_condition2 ~lookup ~v_root ~realized)
  in
  let c3 =
    report "condition (3) — joiners cover their sibling C-sets"
      (Cset.check_condition3 ~lookup ~realized ~w)
  in

  (* Join classification (Definitions 3.2-3.6). *)
  let periods =
    List.map
      (fun x ->
        let node = Network.node_exn net x in
        match (Node.t_begin node, Node.t_end node) with
        | Some b, Some e -> (b, e)
        | _ -> assert false)
      w
  in
  Format.printf "@.joins were %a; dependency groups: %d@." Cset.pp_timing
    (Cset.classify_timing periods)
    (List.length (Cset.dependency_groups v_index ~w));
  if not (consistent && c1 && c2 && c3) then exit 1

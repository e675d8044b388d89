(* Replicated-object location over the routing infrastructure (the paper's
   background, Section 2, and PRR's directory semantics): publish objects
   from several storers, look them up from random clients, and measure hops
   and stretch over a transit-stub topology. Demonstrates properties P1
   (deterministic location) and P2 (queries tend to find nearby copies).

   Run with: dune exec examples/object_location.exe *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Directory = Ntcu_routing.Directory
module Experiment = Ntcu_harness.Experiment
module Rng = Ntcu_std.Rng

let () =
  let p = Params.make ~b:16 ~d:8 in

  (* Build the network (seeded V plus concurrent joins) over a topology. *)
  let w, dist = Experiment.transit_stub_joins p ~seed:2 ~n:200 ~m:100 in
  let net = (Experiment.finish w).net and rng = w.w_rng in
  (* Every failed check is printed; any one makes the exit status 1. *)
  let failed = ref false in
  let fail fmt =
    failed := true;
    Format.printf fmt
  in
  (match Network.check_consistent net with
  | [] -> Format.printf "routing substrate: %d nodes, consistent@." (Network.size net)
  | v :: _ ->
    fail "routing substrate: %d nodes, INCONSISTENT: %a@." (Network.size net)
      Ntcu_table.Check.pp_violation v);

  let ids = Array.of_list (Network.ids net) in
  let lookup id = Option.map Node.table (Network.node net id) in
  let dir = Directory.create ~lookup () in

  (* Publish 50 objects, three replicas each. *)
  let objects = List.init 50 (fun _ -> Id.random rng p) in
  List.iter
    (fun obj ->
      for _ = 1 to 3 do
        match Directory.publish dir ~storer:(Rng.pick rng ids) obj with
        | Ok _ -> ()
        | Error e -> fail "publish failed: %a@." Ntcu_routing.Route.pp_error e
      done)
    objects;
  Format.printf "published %d objects x 3 replicas@." (List.length objects);

  (* Look every object up from random clients; collect hops and stretch. *)
  let hops = ref [] and stretches = ref [] and missed = ref 0 in
  List.iter
    (fun obj ->
      for _ = 1 to 5 do
        let client = Rng.pick rng ids in
        match Directory.locate dir ~client obj with
        | Ok { first_storers = []; _ } -> incr missed
        | Ok { first_storers = storers; first_node; first_depth; path; _ } ->
          hops := float_of_int first_depth :: !hops;
          (* Stretch: distance travelled (walk to the first pointer, then on
             to the replica the pointer selects — the one nearest the pointer
             node) over the direct distance to the globally nearest replica. *)
          let to_pointer = List.filteri (fun i _ -> i <= first_depth) path in
          let walk = Ntcu_routing.Route.path_cost ~dist to_pointer in
          let to_replica =
            List.fold_left (fun acc s -> min acc (dist first_node s)) infinity storers
          in
          let direct =
            List.fold_left (fun acc s -> min acc (dist client s)) infinity storers
          in
          if direct > 0. then stretches := ((walk +. to_replica) /. direct) :: !stretches
        | Error e -> fail "lookup failed: %a@." Ntcu_routing.Route.pp_error e
      done)
    objects;
  let hops = Array.of_list !hops and stretches = Array.of_list !stretches in
  Format.printf "lookups: %d, not found: %d (must be 0 for P1)@." (Array.length hops)
    !missed;
  if !missed > 0 then failed := true;
  if Array.length hops > 0 then
    Format.printf "pointer found after: mean %.2f hops, p95 %.0f hops@."
      (Ntcu_std.Stats.mean hops)
      (Ntcu_std.Stats.percentile hops 95.);
  if Array.length stretches > 0 then
    Format.printf "access stretch: mean %.2f, median %.2f@."
      (Ntcu_std.Stats.mean stretches)
      (Ntcu_std.Stats.median stretches);

  (* Directory load (P3): pointers are spread across nodes. *)
  let pointers = Directory.pointers dir in
  let loads =
    Array.map
      (fun id ->
        float_of_int
          (List.length (Option.value (Id.Map.find_opt id pointers) ~default:[])))
      ids
  in
  Format.printf "directory load per node: mean %.2f pointers, max %.0f@."
    (Ntcu_std.Stats.mean loads)
    (snd (Ntcu_std.Stats.min_max loads));
  if !failed then exit 1

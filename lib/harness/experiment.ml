module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Stats = Ntcu_core.Stats
module Rng = Ntcu_std.Rng
module Engine = Ntcu_sim.Engine
module Online_repair = Ntcu_extensions.Online_repair
module Transit_stub = Ntcu_topology.Transit_stub
module Endhosts = Ntcu_topology.Endhosts

type join_run = {
  net : Network.t;
  seeds : Id.t list;
  joiners : Id.t list;
  join_noti : int array;
  cp_wait : int array;
  consistent : bool;
  violations : Ntcu_table.Check.violation list Lazy.t;
  all_in_system : bool;
  quiescent : bool;
  events : int;
}

let consistent run = run.consistent

type claim = Strict | Best_effort

(* Strict is the paper's regime (assumptions (i)-(iv) hold): liveness,
   quiescence and Def-3.8 consistency are all guaranteed, so all three are
   claimed. Best_effort is the fault/churn regime: crash-over-join repair
   does not yet refill every entry a live node could fill, so consistency is
   reported but not claimed — e.g.
   `ntcu fault -n 24 -m 10 -b 4 -d 6 --seed 196 --crash 0.05` converges live
   and quiescent with exactly one such hole. Liveness and quiescence stay
   claimed: the reliability layer defends them even under loss and
   crashes. *)
let ok ?(claim = Strict) run =
  run.all_in_system && run.quiescent
  && match claim with Strict -> run.consistent | Best_effort -> true

let result net seeds joiners =
  let stats_of id = Node.stats (Network.node_exn net id) in
  {
    net;
    seeds;
    joiners;
    join_noti = Array.of_list (List.map (fun id -> Stats.join_noti_sent (stats_of id)) joiners);
    cp_wait =
      Array.of_list (List.map (fun id -> Stats.copy_and_wait_sent (stats_of id)) joiners);
    (* The eval path only needs yes/no, so probe with [~limit:1] (first
       violation aborts the scan); the full list is recomputed lazily by the
       rare consumer that reports violation details. *)
    consistent = List.is_empty (Network.check_consistent ~limit:1 net);
    violations = lazy (Network.check_consistent net);
    all_in_system = Network.all_in_system net;
    quiescent = Network.is_quiescent net;
    events = Network.messages_delivered net;
  }

let default_latency seed = Ntcu_sim.Latency.uniform ~seed ~lo:1. ~hi:100.

let make_population p ~seed ~n ~m ~suffix =
  let rng = Rng.create seed in
  let seeds = Workload.distinct_ids rng p ~n in
  let joiners =
    Workload.distinct_ids ~suffix ~avoid:(Id.Set.of_list seeds) rng p ~n:m
  in
  (rng, seeds, joiners)

(* Eventual failure detection. Suspicion is traffic-driven, so a victim that
   no protocol message happened to target after the crash is never noticed
   and its pre-crash table entries survive as dangling references. Stand in
   for the periodic liveness probes a deployment would run: any crashed node
   still referenced by a live table gets one probe through the reliable
   transport, whose retry budget then drives the normal suspicion -> scrub ->
   online-repair path. Iterate because a repair refill can itself name a
   not-yet-detected victim. *)
let detect_failures net ~crashed =
  let module Table = Ntcu_table.Table in
  let probe_round () =
    List.fold_left
      (fun progress victim ->
        if Network.is_suspected net victim then progress
        else begin
          let reference =
            List.fold_left
              (fun acc holder ->
                if Option.is_some acc || Id.equal holder victim then acc
                else
                  let table = Node.table (Network.node_exn net holder) in
                  Table.fold table ~init:None ~f:(fun acc ~level ~digit n state ->
                      if Option.is_none acc && Id.equal n victim then
                        Some (holder, level, digit, state)
                      else acc))
              None (Network.live_ids net)
          in
          match reference with
          | None -> progress (* unreferenced: nothing dangles, nothing to do *)
          | Some (holder, level, digit, state) ->
            Network.inject net ~src:holder
              [
                {
                  Node.dst = victim;
                  msg = Ntcu_core.Message.Rv_ngh_noti { level; digit; recorded = state };
                };
              ];
            true
        end)
      false crashed
  in
  while probe_round () do
    Network.run net
  done

type workload = {
  w_net : Network.t;
  w_seeds : Id.t list;
  w_joiners : Id.t list;
  w_rng : Rng.t;
  w_crashed : Id.t list;
}

type regime = Joins of int array | Faults

(* Crashes land at 150 ms, inside the join window of the 1-100 ms latency
   draw. *)
let crash_at = 150.

(* The one seeded join workload: [n] seeds and [m] joiners drawn from
   [Rng.create seed], latency seeded [seed + 1], the consistent network
   seeded [seed + 2], and each joiner given a random gateway from the
   population RNG, join [i] starting at [i * stagger]. Under faults, loss is
   seeded [seed + 3], the transport's jitter [seed + 4] and the crash victims
   [seed + 5] (Workload.non_gateways). *)
let build ?latency ?size_mode ?(record_trace = false) ?(suffix = [||]) ?(stagger = 0.)
    ?(loss = 0.) ?(reliable = false) ?(crash_fraction = 0.) p ~seed ~n ~m =
  let rng, seeds, joiners = make_population p ~seed ~n ~m ~suffix in
  let latency = match latency with Some l -> l | None -> default_latency (seed + 1) in
  let reliability =
    if not reliable then None
    else
      (* The latency draws up to 100 ms per hop, so the initial timeout must
         clear a full round trip. *)
      Some { Network.default_reliability with rto = 250.; seed = seed + 4 }
  in
  let net =
    Network.create ~latency ?size_mode ~record_trace ~loss:(loss, seed + 3) ?reliability p
  in
  Network.seed_consistent net ~seed:(seed + 2) seeds;
  let gateways = Array.of_list seeds in
  let joins =
    List.mapi (fun i id -> (float_of_int i *. stagger, id, Rng.pick rng gateways)) joiners
  in
  Network.start_joins net joins;
  let crashed =
    if crash_fraction <= 0. then []
    else begin
      let victims =
        Workload.non_gateways ~seed seeds
          ~gateways:(List.map (fun (_, _, gateway) -> gateway) joins)
          (max 1 (int_of_float (crash_fraction *. float_of_int n)))
      in
      Engine.schedule_at (Network.engine net) ~time:crash_at (fun () ->
          List.iter (Network.fail net) victims);
      victims
    end
  in
  { w_net = net; w_seeds = seeds; w_joiners = joiners; w_rng = rng; w_crashed = crashed }

(* fault_injection's defaults are the [Faults] regime. The reliable
   transport comes with online repair, which only acts once the run has
   begun. *)
let build_faults ?record_trace ?(reliable = true) ?(loss = 0.02) ?(crash_fraction = 0.05) p
    ~seed ~n ~m =
  let w = build ?record_trace ~reliable ~loss ~crash_fraction p ~seed ~n ~m in
  (w, if reliable then Some (Online_repair.attach w.w_net) else None)

let prepare ?record_trace regime p ~seed ~n ~m =
  match regime with
  | Joins suffix -> build ?record_trace ~suffix p ~seed ~n ~m
  | Faults -> fst (build_faults ?record_trace p ~seed ~n ~m)

let finish w =
  Network.run w.w_net;
  if Network.reliable w.w_net then detect_failures w.w_net ~crashed:w.w_crashed;
  result w.w_net w.w_seeds w.w_joiners

let concurrent_joins ?latency ?size_mode ?suffix ?stagger p ~seed ~n ~m () =
  finish (build ?latency ?size_mode ?suffix ?stagger p ~seed ~n ~m)

let sequential_joins p ~seed ~n ~m () =
  let rng, seeds, joiners = make_population p ~seed ~n ~m ~suffix:[||] in
  let net = Network.create ~latency:(default_latency (seed + 1)) p in
  Network.seed_consistent net ~seed:(seed + 2) seeds;
  let gateways = Array.of_list seeds in
  List.iter
    (fun id ->
      Network.start_join net ~id ~gateway:(Rng.pick rng gateways) ();
      Network.run net)
    joiners;
  result net seeds joiners

let network_init p ~seed ~n =
  if n < 1 then invalid_arg "Experiment.network_init: n must be >= 1";
  let rng = Rng.create seed in
  let ids = Workload.distinct_ids rng p ~n in
  let net = Network.create ~latency:(default_latency (seed + 1)) p in
  let first, joiners = match ids with f :: r -> (f, r) | [] -> assert false in
  Network.add_seed_node net first;
  (* Each joiner is given a random already-present node, as the paper's
     network-initialization section prescribes ("each is given x to begin
     with" in the simplest form; any known member works). *)
  let present = ref [| first |] in
  List.iter
    (fun id ->
      Network.start_join net ~id ~gateway:(Rng.pick rng !present) ();
      Network.run net;
      present := Array.append !present [| id |])
    joiners;
  result net [ first ] joiners

let transit_stub_joins p ~seed ~n ~m =
  let topo = Transit_stub.generate ~seed Transit_stub.default_config in
  let hosts = Endhosts.attach ~seed:(seed + 1) topo ~n:(n + m) in
  let rng, seeds, joiners = make_population p ~seed:(seed + 2) ~n ~m ~suffix:[||] in
  let net = Network.create ~latency:(Endhosts.latency ~seed:(seed + 3) hosts) p in
  Network.seed_consistent net ~seed:(seed + 4) seeds;
  Network.start_joins net (List.map (fun id -> (0., id, List.hd seeds)) joiners);
  ( { w_net = net; w_seeds = seeds; w_joiners = joiners; w_rng = rng; w_crashed = [] },
    Workload.host_distance hosts (seeds @ joiners) )

type fig15b_setup = { d : int; n : int; m : int }

let paper_setups =
  [
    { d = 8; n = 3096; m = 1000 };
    { d = 40; n = 3096; m = 1000 };
    { d = 8; n = 7192; m = 1000 };
    { d = 40; n = 7192; m = 1000 };
  ]

let fig15b ?(routers = Transit_stub.scaled_config) ?record_trace ~seed setup =
  let topo = Transit_stub.generate ~seed:(seed + 10) routers in
  let hosts = Endhosts.attach ~seed:(seed + 11) topo ~n:(setup.n + setup.m) in
  let latency = Endhosts.latency ~seed:(seed + 12) hosts in
  (* Hosts are indexed in registration order: seeds first, then joiners. *)
  let p = Params.make ~b:16 ~d:setup.d in
  finish (build ~latency ?record_trace p ~seed ~n:setup.n ~m:setup.m)

let cdf_points counts =
  let sorted = Array.copy counts in
  Array.sort compare sorted;
  let total = float_of_int (Array.length sorted) in
  let points = ref [] in
  Array.iteri
    (fun i v ->
      if i = Array.length sorted - 1 || sorted.(i + 1) <> v then
        points := (v, float_of_int (i + 1) /. total) :: !points)
    sorted;
  List.rev !points

let fig15a_series ~b ~d ~m ~ns =
  let p = Params.make ~b ~d in
  List.map (fun n -> (n, Ntcu_analysis.Join_cost.theorem5_bound p ~n ~m)) ns

type fault_run = {
  run : join_run;
  crashed : Id.t list;
  stuck : int;
  retransmissions : int;
  timeouts : int;
  failovers : int;
  duplicates : int;
  lost : int;
  acks_lost : int;
  repair : Ntcu_extensions.Online_repair.report option;
}

let fault_injection ?record_trace ?reliable ?loss ?crash_fraction p ~seed ~n ~m () =
  let w, repair =
    build_faults ?record_trace ?reliable ?loss ?crash_fraction p ~seed ~n ~m
  in
  let run = finish w in
  let net = w.w_net in
  let g = Network.global_stats net in
  {
    run;
    crashed = w.w_crashed;
    stuck = List.length (Network.stuck_joiners net);
    retransmissions = Stats.retransmissions g;
    timeouts = Stats.timeouts_fired g;
    failovers = Stats.failovers g;
    duplicates = Stats.duplicates_suppressed g;
    lost = Network.messages_lost net;
    acks_lost = Network.acks_lost net;
    repair = Option.map Online_repair.report repair;
  }

(* The canonical residual-hole run. Seed 196 at these sizes is the smallest
   known workload where crash-over-join repair converges live and quiescent
   yet leaves exactly one Def-3.8 hole: the (1,0) entry of 030231 stays
   empty while live 102001 carries its suffix. The one crash (322031) did not
   take the last candidate; the repair path left the entry empty. That gap is
   why the fault/churn exit status gates on Best_effort rather than Strict.
   Tests, docs and the CLI comment all reference this one fixture instead of
   restating the magic numbers. *)
let residual_hole () = fault_injection (Params.make ~b:4 ~d:6) ~seed:196 ~n:24 ~m:10 ()

type baseline_result = {
  base_consistent : bool;
  base_violations : int;
  base_done : bool;
  peak_pending : int;
  pending_slots : int;
  base_messages : int;
}

let baseline_run p ~seed ~n ~m ~concurrent =
  let module B = Ntcu_baseline.Multicast_join in
  let rng, seeds, joiners = make_population p ~seed ~n ~m ~suffix:[||] in
  let t = B.create ~latency:(default_latency (seed + 1)) p in
  B.seed_consistent t ~seed:(seed + 2) seeds;
  let gateways = Array.of_list seeds in
  List.iteri
    (fun i id ->
      let at = if concurrent then 0. else float_of_int i *. 1e6 in
      B.start_join t ~at ~id ~gateway:(Rng.pick rng gateways) ())
    joiners;
  B.run t;
  let violations = B.check_consistent t in
  let counts = B.message_counts t in
  {
    base_consistent = List.is_empty violations;
    base_violations = List.length violations;
    base_done = B.all_done t;
    peak_pending = B.peak_pending_at_existing t;
    pending_slots = B.total_pending_slots t;
    base_messages = counts.copies + counts.announces + counts.acks + counts.infos;
  }

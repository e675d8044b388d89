module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Parallel = Ntcu_std.Parallel
module Engine = Ntcu_sim.Engine
module Endhosts = Ntcu_topology.Endhosts
module Transit_stub = Ntcu_topology.Transit_stub
module Route = Ntcu_routing.Route
module Protocol = Ntcu_protocol.Protocol
module Json = Report.Json

type arm = Paper | Chord | Chord_naive | Baseline

let arm_name = function
  | Paper -> "paper"
  | Chord -> "chord"
  | Chord_naive -> "chord-naive"
  | Baseline -> "baseline"

let arm_of_name = function
  | "paper" -> Some Paper
  | "chord" -> Some Chord
  | "chord-naive" -> Some Chord_naive
  | "baseline" -> Some Baseline
  | _ -> None

let protocol_of_arm = function
  | Paper -> (module Ntcu_protocol.Paper : Protocol.S)
  | Baseline -> (module Ntcu_protocol.Baseline : Protocol.S)
  | Chord -> Ntcu_chord.Chord.protocol ()
  | Chord_naive -> Ntcu_chord.Chord.protocol ~naive:true ()

type config = {
  b : int;
  d : int;
  n : int;
  m : int;
  leavers : int;
  lookups : int;
  seed : int;
  maintain_every : float;
  rounds : int;
  arms : arm list;
}

let default =
  {
    b = 4;
    d = 6;
    n = 32;
    m = 12;
    leavers = 4;
    lookups = 64;
    seed = 1;
    maintain_every = 500.;
    rounds = 16;
    arms = [ Paper; Chord ];
  }

let smoke = { default with n = 16; m = 6; leavers = 2; lookups = 32 }

(* Workload timeline: staggered joins, then a settle gap, then graceful
   leaves, all inside the bounded-maintenance horizon. The settle gap must
   outlast the slowest join at transit-stub latencies: a departure while a
   join is still in flight violates the paper protocol's assumption (iv) and
   would turn every arm's leave phase into a different experiment. *)
let join_spacing = 50.
let leave_settle = 3_000.
let leave_spacing = 200.
let sample_every = 250.

type workload = {
  params : Params.t;
  seeds : Id.t list;
  joins : (float * Id.t * Id.t) list; (* (time, joiner, gateway) *)
  leaves : (float * Id.t) list;
  pairs : (Id.t * Id.t) list; (* lookup (source, target) *)
}

(* Pure data, computed once and shared read-only by every arm: identical
   populations, gateways, departure schedules and lookup pairs are what make
   the comparison head-to-head. *)
let workload cfg =
  let params = Params.make ~b:cfg.b ~d:cfg.d in
  let rng = Rng.create cfg.seed in
  let seeds = Workload.distinct_ids rng params ~n:cfg.n in
  let joiners =
    Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng params ~n:cfg.m
  in
  let gateways = Array.of_list seeds in
  let joins =
    List.mapi
      (fun i id -> (join_spacing *. float_of_int i, id, Rng.pick rng gateways))
      joiners
  in
  let leaves =
    (* A departing gateway would violate the paper protocol's assumption
       (ii), turning the comparison into a different experiment. *)
    let t0 = (join_spacing *. float_of_int cfg.m) +. leave_settle in
    List.mapi
      (fun i id -> (t0 +. (leave_spacing *. float_of_int i), id))
      (Workload.non_gateways ~seed:cfg.seed seeds
         ~gateways:(List.map (fun (_, _, gateway) -> gateway) joins)
         cfg.leavers)
  in
  let pairs =
    let gone = Id.Set.of_list (List.map snd leaves) in
    let survivors =
      Array.of_list
        (List.filter (fun id -> not (Id.Set.mem id gone)) seeds @ joiners)
    in
    let prng = Rng.create (cfg.seed + 7) in
    List.init cfg.lookups (fun _ ->
        let src = Rng.pick prng survivors in
        let rec pick () =
          let t = Rng.pick prng survivors in
          if Id.equal t src then pick () else t
        in
        (src, pick ()))
  in
  { params; seeds; joins; leaves; pairs }

type arm_result = {
  arm : arm;
  protocol : string;
  members : int;
  violations : Protocol.violation list;
  traffic : Protocol.traffic;
  consistency_window : float;
      (* last sample time (ms) at which the arm was inconsistent *)
  leaves_applied : int;
  lookups_attempted : int;
  lookups_ok : int;
  mean_stretch : float; (* nan when no lookup succeeded *)
}

let arm_ok r = List.is_empty r.violations

let run_arm cfg (w : workload) arm =
  let module P = (val protocol_of_arm arm) in
  (* Each arm builds its own topology instance from the same seeds:
     Transit_stub/Distances are single-domain, but the construction is
     deterministic, so every arm sees identical distances. *)
  let topo = Transit_stub.generate ~seed:(cfg.seed + 10) Transit_stub.default_config in
  let hosts = Endhosts.attach ~seed:(cfg.seed + 11) topo ~n:(cfg.n + cfg.m) in
  let latency = Endhosts.latency ~seed:(cfg.seed + 12) hosts in
  let t =
    P.create ~latency
      { Protocol.params = w.params; seed = cfg.seed; maintain_every = cfg.maintain_every;
        rounds = cfg.rounds }
  in
  P.seed_network t ~seed:(cfg.seed + 2) w.seeds;
  List.iter (fun (at, id, gateway) -> P.start_join t ~at ~id ~gateway) w.joins;
  let leaves_applied =
    if P.supports_leave then begin
      List.iter (fun (at, id) -> P.leave t ~at id) w.leaves;
      List.length w.leaves
    end
    else 0 (* join-only protocol: departures are not part of its story *)
  in
  (* Drain the run on a fixed virtual-time grid, probing consistency at each
     tick: the last inconsistent sample bounds the consistency window. The
     grid is virtual time, so the measurement is deterministic. *)
  let engine = P.engine t in
  let last_bad = ref 0. in
  let k = ref 0 in
  while Engine.pending engine > 0 do
    incr k;
    let time = sample_every *. float_of_int !k in
    Engine.run_until engine ~time;
    if not (P.consistent t) then last_bad := time
  done;
  P.run t;
  (* Host indices follow registration order: seeds first, joiners after, in
     workload order — the same convention every protocol adapter uses. *)
  let dist =
    Workload.host_distance hosts (w.seeds @ List.map (fun (_, id, _) -> id) w.joins)
  in
  let attempted = ref 0 and succeeded = ref 0 and stretch_sum = ref 0. in
  let stretches = ref 0 in
  List.iter
    (fun (src, target) ->
      if P.in_system t src && P.in_system t target then begin
        incr attempted;
        match P.lookup t ~src ~target with
        | None -> ()
        | Some path ->
          incr succeeded;
          let direct = dist src target in
          if direct > 0. then begin
            stretch_sum := !stretch_sum +. (Route.path_cost ~dist path /. direct);
            incr stretches
          end
      end)
    w.pairs;
  {
    arm;
    protocol = P.name;
    members = List.length (P.members t);
    violations = P.check t;
    traffic = P.traffic t;
    consistency_window = !last_bad;
    leaves_applied;
    lookups_attempted = !attempted;
    lookups_ok = !succeeded;
    mean_stretch =
      (if !stretches = 0 then Float.nan
       else !stretch_sum /. float_of_int !stretches);
  }

type report = { config : config; results : arm_result list }

let ok r = List.for_all arm_ok r.results

let run ?(jobs = 1) cfg =
  let w = workload cfg in
  let results =
    Parallel.with_pool ~jobs (fun pool ->
        Parallel.map pool (run_arm cfg w) cfg.arms)
  in
  { config = cfg; results }

let violation_json (v : Protocol.violation) =
  Json.Obj [ ("name", Json.String v.name); ("detail", Json.String v.detail) ]

let arm_json r =
  Json.Obj
    [
      ("arm", Json.String (arm_name r.arm));
      ("protocol", Json.String r.protocol);
      ("members", Json.Int r.members);
      ("ok", Json.Bool (arm_ok r));
      ("violations", Json.List (List.map violation_json r.violations));
      ( "traffic",
        Json.Obj
          [
            ("join", Json.Int r.traffic.join);
            ("maintain", Json.Int r.traffic.maintain);
            ("total", Json.Int r.traffic.total);
          ] );
      ("consistency_window_ms", Json.Float r.consistency_window);
      ("leaves_applied", Json.Int r.leaves_applied);
      ( "lookups",
        Json.Obj
          [
            ("attempted", Json.Int r.lookups_attempted);
            ("ok", Json.Int r.lookups_ok);
            ("mean_stretch", Json.Float r.mean_stretch);
          ] );
    ]

let to_json r =
  let c = r.config in
  Json.Obj
    [
      ("schema", Json.String "ntcu-bench-arena/1");
      ( "config",
        Json.Obj
          [
            ("b", Json.Int c.b);
            ("d", Json.Int c.d);
            ("n", Json.Int c.n);
            ("m", Json.Int c.m);
            ("leavers", Json.Int c.leavers);
            ("lookups", Json.Int c.lookups);
            ("seed", Json.Int c.seed);
            ("maintain_every_ms", Json.Float c.maintain_every);
            ("rounds", Json.Int c.rounds);
            ("arms", Json.List (List.map (fun a -> Json.String (arm_name a)) c.arms));
          ] );
      ("arms", Json.List (List.map arm_json r.results));
      ("ok", Json.Bool (ok r));
    ]

let write ~path r = Json.to_file path (to_json r)

let pp_report ppf r =
  let c = r.config in
  Fmt.pf ppf "arena: n=%d m=%d leavers=%d lookups=%d seed=%d (b=%d d=%d)@." c.n c.m
    c.leavers c.lookups c.seed c.b c.d;
  let rows =
    List.map
      (fun a ->
        [
          arm_name a.arm;
          string_of_int a.members;
          (if arm_ok a then "ok" else Fmt.str "%d violation(s)" (List.length a.violations));
          string_of_int a.traffic.join;
          string_of_int a.traffic.maintain;
          Fmt.str "%.0f" a.consistency_window;
          Fmt.str "%d/%d" a.lookups_ok a.lookups_attempted;
          (if Float.is_nan a.mean_stretch then "-" else Fmt.str "%.2f" a.mean_stretch);
        ])
      r.results
  in
  Report.table
    ~header:
      [ "arm"; "members"; "invariants"; "join msgs"; "maint msgs"; "window ms";
        "lookups"; "stretch" ]
    ppf rows;
  List.iter
    (fun a ->
      List.iter
        (fun v -> Fmt.pf ppf "  %s: %a@." (arm_name a.arm) Protocol.pp_violation v)
        a.violations)
    r.results

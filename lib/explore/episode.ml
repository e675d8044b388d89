module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Engine = Ntcu_sim.Engine
module Latency = Ntcu_sim.Latency
module Trace = Ntcu_sim.Trace
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Workload = Ntcu_harness.Workload
module Experiment = Ntcu_harness.Experiment
module Churn = Ntcu_churn.Churn
module Chord = Ntcu_chord.Chord

type scenario = Concurrent | Dependent | Fault | Churn | Chord

let scenario_name = function
  | Concurrent -> "concurrent"
  | Dependent -> "dependent"
  | Fault -> "fault"
  | Churn -> "churn"
  | Chord -> "chord"

let scenario_of_name = function
  | "concurrent" -> Some Concurrent
  | "dependent" -> Some Dependent
  | "fault" -> Some Fault
  | "churn" -> Some Churn
  | "chord" -> Some Chord
  | _ -> None

type config = {
  scenario : scenario;
  b : int;
  d : int;
  n : int;
  m : int;
  seed : int;
  sched_seed : int;
  scheduler : Scheduler.kind;
  fault : Node.fault option;
  chord_naive : bool;
  midflight : bool;
}

let fault_name = function
  | Node.Drop_queued_join_waits -> "drop-queued-join-waits"
  | Node.Forget_negative_forward -> "forget-negative-forward"

let fault_of_name = function
  | "drop-queued-join-waits" -> Some Node.Drop_queued_join_waits
  | "forget-negative-forward" -> Some Node.Forget_negative_forward
  | _ -> None

let pp_config ppf c =
  Fmt.pf ppf "%s b=%d d=%d n=%d m=%d seed=%d sched=%s/%d%a%s" (scenario_name c.scenario)
    c.b c.d c.n c.m c.seed
    (Scheduler.kind_name c.scheduler)
    c.sched_seed
    (Fmt.option (fun ppf f -> Fmt.pf ppf " fault=%s" (fault_name f)))
    c.fault
    (if c.chord_naive then " naive" else "")

type outcome = {
  config : config;
  violations : Invariants.violation list;
  interventions : Scheduler.intervention list;
  frames : int;
  events : int;
  digest : string;
}

exception Midflight of Invariants.violation

(* Every episode records its delivery trace; the outcome carries its digest
   and what the scheduler did. *)
let outcome config sched ~violations ~events trace =
  let digest = match trace with Some tr -> Trace.digest tr | None -> assert false in
  {
    config;
    violations;
    interventions = Scheduler.recorded sched;
    frames = Scheduler.frames_seen sched;
    events;
    digest;
  }

(* Run a prepared network under the episode's scheduler. With [midflight]
   on, [monitor] watches every event and its first catch aborts the run as
   the sole violation; otherwise the [quiescent] checks judge the drained
   network. *)
let monitored config net ~monitor ~go ~quiescent =
  let sched = Scheduler.make ~seed:config.sched_seed config.scheduler in
  Network.set_delay_hook net (Some (Scheduler.hook sched));
  if config.midflight then
    Engine.set_observer (Network.engine net)
      (Some (fun () -> match monitor () with Some v -> raise (Midflight v) | None -> ()));
  let violations = match go () with () -> quiescent () | exception Midflight v -> [ v ] in
  outcome config sched ~violations ~events:(Network.messages_delivered net)
    (Network.trace net)

(* Constants of the Churn scenario: a seconds-scale steady-state window with
   a half-life short enough that joins, leaves, crashes and repairs all
   overlap inside the adversary's horizon. *)
let churn_duration = 4_000.
let churn_half_life = 2_000.
let churn_loss = 0.02
let churn_sample_every = 1_000.
let churn_maintenance_every = 500.
let churn_lookups_per_sample = 4

(* Steady-state churn under an adversarial scheduler. The episode drives the
   continuous-churn engine instead of a join burst: [m] is ignored (arrivals
   are the engine's Poisson source) and the quiescent checks assert the
   defended claims only — liveness, reverse bookkeeping, transport
   accounting. Consistency and the health verdict are measurements in this
   regime (a hostile schedule can legitimately age holes), so gating on them
   would manufacture false findings. *)
let run_churn config =
  let ccfg =
    {
      Churn.smoke with
      b = config.b;
      d = config.d;
      n = config.n;
      duration = churn_duration;
      half_life = churn_half_life;
      loss = churn_loss;
      sample_every = churn_sample_every;
      maintenance_every = churn_maintenance_every;
      lookups_per_sample = churn_lookups_per_sample;
      seed = config.seed;
    }
  in
  let t = Churn.prepare ~record_trace:true ccfg in
  let net = Churn.net t in
  monitored config net
    ~monitor:(Invariants.midflight ~expect_budget:false ~net ~joiners:[] ())
    ~go:(fun () -> ignore (Churn.finish t : Churn.result))
    ~quiescent:(fun () ->
      Invariants.quiescent ~expect_budget:false ~expect_consistency:false ~net
        ~seeds:(Churn.initial t) ~joiners:[] ())

(* The join scenarios run Experiment's workload: Concurrent and Dependent
   are concurrent_joins' (Dependent's joiners all end in digit 2), Fault is
   fault_injection's at its defaults. Crash episodes assert the defended
   claims only, as the fault experiment does; the others are strict. *)
let run_join config =
  let regime, strict =
    match config.scenario with
    | Fault -> (Experiment.Faults, false)
    | Dependent -> (Experiment.Joins [| 2 |], true)
    | Concurrent | Churn | Chord -> (Experiment.Joins [||], true)
  in
  let w =
    Experiment.prepare ~record_trace:true regime
      (Params.make ~b:config.b ~d:config.d)
      ~seed:config.seed ~n:config.n ~m:config.m
  in
  let net = w.Experiment.w_net and joiners = w.Experiment.w_joiners in
  List.iter (fun nd -> Node.set_fault nd config.fault) (Network.nodes net);
  monitored config net
    ~monitor:(Invariants.midflight ~expect_budget:strict ~net ~joiners ())
    ~go:(fun () -> ignore (Experiment.finish w : Experiment.join_run))
    ~quiescent:(fun () ->
      Invariants.quiescent ~expect_budget:strict ~expect_consistency:strict ~net
        ~seeds:w.Experiment.w_seeds ~joiners ())

(* Constants of the Chord scenario. Each joiner's gateway is its
   key-predecessor seed, so an unperturbed join lookup is exactly two frames
   — request and direct answer — and completes no earlier than 2 x 25 ms.
   The crash at 45 ms therefore kills every victim mid-join under the nop
   schedule, harmlessly. Only an adversary that rushes a critical join frame
   gets a victim into the ring — and out of it again — before the first
   stabilization round at 500 ms, which is the schedule-dependent window
   where naive Chord's missing liveness checks poison the ring permanently. *)
let chord_latency_lo = 25.
let chord_latency_hi = 60.
let chord_crash_at = 45.

let run_chord config =
  let p = Params.make ~b:config.b ~d:config.d in
  let rng = Rng.create config.seed in
  let seeds = Workload.distinct_ids rng p ~n:config.n in
  let joiners =
    Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:config.m
  in
  let latency =
    Latency.uniform ~seed:(config.seed + 1) ~lo:chord_latency_lo ~hi:chord_latency_hi
  in
  let ccfg = { (Chord.default_config p) with Chord.naive = config.chord_naive } in
  let t = Chord.create ~latency ~record_trace:true ccfg in
  let sched = Scheduler.make ~seed:config.sched_seed config.scheduler in
  Chord.set_delay_hook t (Some (Scheduler.hook sched));
  Chord.seed_ring t seeds;
  (* Key order coincides with [Id.compare] (Chord keys are the numeric value
     of the digits), so the key-predecessor gateway is the largest seed below
     the joiner, wrapping to the largest seed overall. *)
  let gateways = Array.of_list (List.sort Id.compare seeds) in
  let gateway_of id =
    let below = ref None in
    Array.iter (fun s -> if Id.compare s id < 0 then below := Some s) gateways;
    match !below with Some s -> s | None -> gateways.(Array.length gateways - 1)
  in
  List.iter
    (fun id -> Chord.start_join t ~at:0. ~id ~gateway:(gateway_of id) ())
    joiners;
  (* Victims are joiners: mid-join crashes are the naive protocol's blind
     spot (gateways are seeds, so assumption (ii) stays intact). *)
  let victims =
    let candidates = Array.of_list joiners in
    let crash_rng = Rng.create (config.seed + 5) in
    Rng.shuffle crash_rng candidates;
    let count = min (max 1 (config.m / 2)) (Array.length candidates) in
    Array.to_list (Array.sub candidates 0 count)
  in
  Engine.schedule_at (Chord.engine t) ~time:chord_crash_at (fun () ->
      List.iter (fun id -> Chord.crash t id) victims);
  Chord.run t;
  outcome config sched ~violations:(Chord.check t) ~events:(Chord.messages_delivered t)
    (Chord.trace t)

let run config =
  match config.scenario with
  | Churn -> run_churn config
  | Chord -> run_chord config
  | Concurrent | Dependent | Fault -> run_join config

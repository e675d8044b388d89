(* Command-line interface to the reproduction: run joins, regenerate the
   paper's figures, validate consistency across seeds, query the analytic
   model, and run the bench ([ntcu bench], sections in experiments.ml). *)

open Cmdliner

module Params = Ntcu_id.Params
module Experiment = Ntcu_harness.Experiment
module Report = Ntcu_harness.Report
module Join_cost = Ntcu_analysis.Join_cost
module Parallel = Ntcu_std.Parallel

(* ---- common arguments ---- *)

let n_arg =
  Arg.(value & opt int 500 & info [ "n" ] ~docv:"N" ~doc:"Size of the initial network $(docv).")

let m_arg =
  Arg.(value & opt int 200 & info [ "m" ] ~docv:"M" ~doc:"Number of joining nodes $(docv).")

let b_arg = Arg.(value & opt int 16 & info [ "b" ] ~docv:"B" ~doc:"Digit base $(docv).")
let d_arg = Arg.(value & opt int 8 & info [ "d" ] ~docv:"D" ~doc:"Digits per ID $(docv).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed $(docv).")

let suffix_arg =
  Arg.(
    value & opt string ""
    & info [ "suffix" ] ~docv:"SUFFIX"
        ~doc:"Force all joiner IDs to end with $(docv) (adversarial dependent joins).")

let opt_int names doc = Arg.(value & opt (some int) None & info names ~docv:"N" ~doc)
let opt_float names docv doc = Arg.(value & opt (some float) None & info names ~docv ~doc)
let pick o dflt = Option.value o ~default:dflt

(* A duration flag in virtual seconds over a config's milliseconds. *)
let secs o dflt = match o with None -> dflt | Some s -> s *. 1000.

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"J"
        ~doc:
          "Fan independent runs out to $(docv) domains (0 = one per core). Defaults to \
           the NTCU_JOBS environment variable, then to 1 (serial). Results are \
           collected in submission order, so the output is identical for every value.")

let with_pool jobs f = Parallel.with_pool ~jobs:(Parallel.resolve_jobs jobs) f
let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Use the paper's 8320-router topology.")

let out_arg default =
  Arg.(
    value & opt string default
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON artifact to $(docv).")

(* ---- join ---- *)

let join_cmd =
  let run n m b d seed suffix sequential =
    let p = Params.make ~b ~d in
    let suffix =
      match Ntcu_harness.Workload.parse_suffix ~b suffix with
      | Ok suffix -> suffix
      | Error e -> failwith e
    in
    let result =
      if sequential then Experiment.sequential_joins p ~seed ~n ~m ()
      else Experiment.concurrent_joins p ~suffix ~seed ~n ~m ()
    in
    Format.printf "%a" Report.pp_join_run result;
    if Experiment.ok result then 0 else 1
  in
  let sequential =
    Arg.(value & flag & info [ "sequential" ] ~doc:"Join one node at a time.")
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Run m joins into an n-node consistent network and verify.")
    Term.(const run $ n_arg $ m_arg $ b_arg $ d_arg $ seed_arg $ suffix_arg $ sequential)

(* ---- validate ---- *)

let validate_cmd =
  let run trials jobs =
    let ok_run (run : Experiment.join_run) =
      Experiment.ok run
      && Array.for_all
           (fun c -> c <= (Ntcu_core.Network.params run.net).d + 1)
           run.cp_wait
    in
    (* Every (scenario, seed) pair is an independent simulation; fan them
       out and print in submission order, byte-identical to the serial loop. *)
    let scenarios =
      List.concat_map
        (fun seed ->
          [
            ( Printf.sprintf "concurrent b=4 d=6 n=20 m=30 seed=%d" seed,
              fun () ->
                Experiment.concurrent_joins (Params.make ~b:4 ~d:6) ~seed ~n:20 ~m:30 () );
            ( Printf.sprintf "dependent  b=8 d=5 n=30 m=20 seed=%d" seed,
              fun () ->
                Experiment.concurrent_joins
                  (Params.make ~b:8 ~d:5)
                  ~suffix:[| 3; 1 |] ~seed ~n:30 ~m:20 () );
            ( Printf.sprintf "init       b=4 d=6 n=30       seed=%d" seed,
              fun () -> Experiment.network_init (Params.make ~b:4 ~d:6) ~seed ~n:30 );
          ])
        (List.init trials (fun i -> i + 1))
    in
    let results =
      with_pool jobs (fun pool ->
          Parallel.map pool (fun (label, thunk) -> (label, ok_run (thunk ()))) scenarios)
    in
    let failures = ref 0 in
    List.iter
      (fun (label, ok) ->
        if not ok then incr failures;
        Format.printf "%-50s %s@." label (if ok then "ok" else "FAILED"))
      results;
    Format.printf "@.%d scenario(s) failed@." !failures;
    if !failures = 0 then 0 else 1
  in
  let trials =
    Arg.(value & opt int 5 & info [ "trials" ] ~docv:"K" ~doc:"Seeds per scenario.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Run a battery of join scenarios across seeds and check every invariant.")
    Term.(const run $ trials $ jobs_arg)

(* ---- fig15a ---- *)

let fig15a_cmd =
  let run b d m =
    Experiments.fig15a_curve ~b ~d ~m;
    0
  in
  Cmd.v
    (Cmd.info "fig15a" ~doc:"Print one Figure 15(a) curve (Theorem 5 bound vs n).")
    Term.(const run $ b_arg $ d_arg $ m_arg)

(* ---- fig15b ---- *)

let fig15b_cmd =
  let run n m d seed full =
    let result =
      Experiment.fig15b ~routers:(Experiments.routers ~full) ~seed { Experiment.d; n; m }
    in
    Format.printf "%a@." Report.pp_join_run result;
    Format.printf "%a"
      (Report.pp_cdf ~label:(Printf.sprintf "n=%d, m=%d, b=16, d=%d" n m d))
      (Experiment.cdf_points result.join_noti);
    if Experiment.ok result then 0 else 1
  in
  Cmd.v
    (Cmd.info "fig15b"
       ~doc:"Run one Figure 15(b) setup over a transit-stub topology and print the CDF.")
    Term.(const run $ n_arg $ m_arg $ d_arg $ seed_arg $ full_arg)

(* ---- bound ---- *)

let bound_cmd =
  let run n m b d =
    let p = Params.make ~b ~d in
    Format.printf "P_i(n) (Theorem 4):@.";
    Array.iteri
      (fun i prob -> if prob > 1e-12 then Format.printf "  P_%d = %.6f@." i prob)
      (Join_cost.level_probabilities p ~n);
    Format.printf "E(J) single join (Theorem 4): %.3f@." (Join_cost.expected_join_noti p ~n);
    Format.printf "E(J) upper bound, m=%d concurrent (Theorem 5): %.3f@." m
      (Join_cost.theorem5_bound p ~n ~m);
    Format.printf "CpRst+JoinWait bound (Theorem 3): %d@." (Join_cost.theorem3_bound p);
    0
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Evaluate the analytic model (Theorems 3-5).")
    Term.(const run $ n_arg $ m_arg $ b_arg $ d_arg)

(* ---- baseline ---- *)

let baseline_cmd =
  let run n m b d seed concurrent =
    let p = Params.make ~b ~d in
    let r = Experiment.baseline_run p ~seed ~n ~m ~concurrent in
    Format.printf
      "multicast-join baseline (%s): done=%b consistent=%b violations=%d@.\
       peak pending state at existing nodes: %d; total pending slots: %d; messages: %d@."
      (if concurrent then "concurrent" else "sequential")
      r.base_done r.base_consistent r.base_violations r.peak_pending r.pending_slots
      r.base_messages;
    0
  in
  let concurrent =
    Arg.(value & flag & info [ "concurrent" ] ~doc:"Start all joins at time zero.")
  in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run the Tapestry-style multicast-join baseline.")
    Term.(const run $ n_arg $ m_arg $ b_arg $ d_arg $ seed_arg $ concurrent)

(* ---- leave ---- *)

let leave_cmd =
  let run n m b d seed leavers =
    let p = Params.make ~b ~d in
    let result = Experiment.concurrent_joins p ~seed ~n ~m () in
    if not (Experiment.consistent result) then begin
      Format.printf "setup inconsistent@.";
      1
    end
    else Experiments.exit_status (Experiments.leave result.net ~leavers)
  in
  let leavers =
    Arg.(value & opt int 50 & info [ "leavers" ] ~docv:"K" ~doc:"Concurrent leavers.")
  in
  Cmd.v
    (Cmd.info "leave"
       ~doc:"Build a network, run K concurrent message-level leaves, verify consistency.")
    Term.(const run $ n_arg $ m_arg $ b_arg $ d_arg $ seed_arg $ leavers)

(* ---- recovery ---- *)

let recovery_cmd =
  let run n m b d seed fraction =
    let p = Params.make ~b ~d in
    let result = Experiment.concurrent_joins p ~seed ~n ~m () in
    if not (Experiment.consistent result) then begin
      Format.printf "setup inconsistent@.";
      1
    end
    else begin
      let victims =
        Ntcu_extensions.Recovery.fail_random result.net ~seed:(seed + 1) ~fraction
      in
      Format.printf "crashed %d of %d nodes@." (List.length victims) (n + m);
      let report = Ntcu_extensions.Recovery.repair result.net in
      Format.printf "%a@." Ntcu_extensions.Recovery.pp_report report;
      let consistent = List.is_empty (Ntcu_core.Network.check_consistent result.net) in
      Format.printf "survivors consistent: %b@." consistent;
      if consistent then 0 else 1
    end
  in
  let fraction =
    Arg.(
      value & opt float 0.2
      & info [ "fraction" ] ~docv:"F" ~doc:"Fraction of nodes to crash (0 <= F < 1).")
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:"Build a network, crash a fraction of it, repair, verify consistency.")
    Term.(const run $ n_arg $ m_arg $ b_arg $ d_arg $ seed_arg $ fraction)

(* ---- fault ---- *)

let fault_cmd =
  let run n m b d seed loss crash unreliable =
    let p = Params.make ~b ~d in
    let f =
      Experiment.fault_injection ~reliable:(not unreliable) ~loss ~crash_fraction:crash p
        ~seed ~n ~m ()
    in
    Format.printf "%a" Report.pp_fault_run f;
    (* Best-effort claim: crash-over-join repair can still leave a hole that
       a live node could fill (the pinned Experiment.residual_hole fixture),
       so consistency is reported above but only liveness and quiescence
       gate the exit status. *)
    if Experiment.ok ~claim:Experiment.Best_effort f.run then 0 else 1
  in
  let loss =
    Arg.(
      value & opt float 0.02
      & info [ "loss" ] ~docv:"P" ~doc:"In-transit loss probability per message copy.")
  in
  let crash =
    Arg.(
      value & opt float 0.01
      & info [ "crash" ] ~docv:"F"
          ~doc:"Fraction of (non-gateway) seed nodes that fail-stop mid-join.")
  in
  let unreliable =
    Arg.(
      value & flag
      & info [ "unreliable" ]
          ~doc:"Disable the ack/retransmit transport (reproduces the undefended wedge).")
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Run concurrent joins under message loss and mid-join crashes with the \
          reliability layer (ack/retransmit, failure suspicion, online repair).")
    Term.(const run $ n_arg $ m_arg $ b_arg $ d_arg $ seed_arg $ loss $ crash $ unreliable)

(* ---- churn ---- *)

let churn_cmd =
  let module Churn = Ntcu_churn.Churn in
  let module Session = Ntcu_churn.Session in
  let run smoke n b d seed duration half_life dist crash loss sample_every
      maintenance_every lookups sweep_points jobs out =
    let base = if smoke then Churn.smoke else Churn.default in
    let dist =
      match dist with
      | None -> base.Churn.dist
      | Some s -> (
        match Session.kind_of_name s with
        | Some k -> k
        | None -> failwith (Printf.sprintf "unknown session distribution %S" s))
    in
    let cfg =
      {
        base with
        Churn.n = pick n base.Churn.n;
        b = pick b base.Churn.b;
        d = pick d base.Churn.d;
        seed;
        duration = secs duration base.Churn.duration;
        half_life = secs half_life base.Churn.half_life;
        dist;
        crash_fraction = pick crash base.Churn.crash_fraction;
        loss = pick loss base.Churn.loss;
        sample_every = secs sample_every base.Churn.sample_every;
        maintenance_every = secs maintenance_every base.Churn.maintenance_every;
        lookups_per_sample = pick lookups base.Churn.lookups_per_sample;
      }
    in
    with_pool jobs (fun pool ->
        Experiments.exit_status (Experiments.churn pool ~points:sweep_points ~out cfg))
  in
  let dist =
    Arg.(
      value
      & opt (some string) None
      & info [ "dist" ] ~docv:"D"
          ~doc:"Session-time distribution: $(b,exponential), $(b,pareto) or $(b,fixed).")
  in
  let sweep_points =
    Arg.(
      value & opt int 0
      & info [ "sweep" ] ~docv:"K"
          ~doc:
            "After the main run, sweep $(docv) half-life points (halved at each \
             step from the configured half-life) and report the measured churn \
             tolerance against the stochastic-analysis prediction. 0 disables.")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run the network at a target size under continuous Poisson join/leave/crash \
          churn for hours of virtual time, sampling consistency violations, repair \
          debt, lookup success and message overhead; optionally sweep the half-life \
          down to the graceful-degradation boundary. Deterministic in --seed; \
          --jobs only fans out sweep points and never changes any output.")
    Term.(
      const run
      $ smoke_arg "CI-sized run: 60 nodes, 2 min virtual."
      $ opt_int [ "n" ] "Target steady-state network size."
      $ opt_int [ "b" ] "Digit base."
      $ opt_int [ "d" ] "Digits per ID."
      $ seed_arg
      $ opt_float [ "duration" ] "SECONDS" "Steady-state window in virtual seconds."
      $ opt_float [ "half-life" ] "SECONDS" "Population half-life in virtual seconds."
      $ dist
      $ opt_float [ "crash-fraction" ] "F"
          "Fraction of departures that crash (0 <= F <= 1)."
      $ opt_float [ "loss" ] "P" "In-transit loss probability per message copy."
      $ opt_float [ "sample-every" ] "SECONDS"
          "Time-series sampling period, virtual seconds."
      $ opt_float [ "maintenance-every" ] "SECONDS"
          "Maintenance (dead-reference probe + reap) period, virtual seconds."
      $ opt_int [ "lookups" ] "Routed lookups measured per sample."
      $ sweep_points $ jobs_arg $ out_arg "BENCH_churn.json")

(* ---- serve ---- *)

let serve_cmd =
  let module Serve = Ntcu_serve.Serve in
  let module Churn = Ntcu_churn.Churn in
  let run smoke n b d seed objects replicas zipf lookups cache serve_every lookups_per_tick
      churn_n duration half_life jobs out =
    let base = if smoke then Serve.smoke else Serve.default in
    let cfg =
      {
        Serve.n = pick n base.Serve.n;
        b = pick b base.Serve.b;
        d = pick d base.Serve.d;
        seed;
        objects = pick objects base.Serve.objects;
        replicas = pick replicas base.Serve.replicas;
        zipf_s = pick zipf base.Serve.zipf_s;
        lookups = pick lookups base.Serve.lookups;
        cache = pick cache base.Serve.cache;
        serve_every = secs serve_every base.Serve.serve_every;
        lookups_per_tick = pick lookups_per_tick base.Serve.lookups_per_tick;
      }
    in
    let churn_base = Experiments.churn_base ~smoke in
    let churn_cfg =
      {
        churn_base with
        Churn.b = cfg.Serve.b;
        d = cfg.Serve.d;
        seed;
        n = pick churn_n churn_base.Churn.n;
        duration = secs duration churn_base.Churn.duration;
        half_life = secs half_life churn_base.Churn.half_life;
      }
    in
    with_pool jobs (fun pool ->
        Experiments.exit_status (Experiments.serve pool ~smoke ~out cfg churn_cfg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Heavy-traffic object location: publish Zipf-popular replicated objects and \
          serve sustained lookups over the PRR-style directory — a static run with the \
          hop-pointer cache ablated off and on, plus a run composed with the \
          continuous-churn driver (periodic maintenance, re-replication, lookup \
          success gating). Deterministic in --seed; --jobs only fans out the \
          independent runs and never changes any output.")
    Term.(
      const run
      $ smoke_arg "CI-sized run: 60 nodes, 400 objects, churn smoke window."
      $ opt_int [ "n" ] "Static-run network size."
      $ opt_int [ "b" ] "Digit base."
      $ opt_int [ "d" ] "Digits per ID."
      $ seed_arg
      $ opt_int [ "objects" ] "Number of published objects."
      $ opt_int [ "replicas" ] "Storers per object."
      $ opt_float [ "zipf" ] "S" "Zipf popularity exponent (0 = uniform)."
      $ opt_int [ "lookups" ] "Static-run total lookups."
      $ opt_int [ "cache" ] "LRU hop-pointer cache capacity (0 disables)."
      $ opt_float [ "serve-every" ] "SECONDS" "Serve-tick period under churn, virtual seconds."
      $ opt_int [ "lookups-per-tick" ] "Lookups issued at each serve tick."
      $ opt_int [ "churn-n" ] "Churn-run target network size."
      $ opt_float [ "duration" ] "SECONDS" "Churn window in virtual seconds."
      $ opt_float [ "half-life" ] "SECONDS" "Churn population half-life in virtual seconds."
      $ jobs_arg $ out_arg "BENCH_serve.json")

(* ---- scale ---- *)

let scale_cmd =
  let module Scale = Ntcu_scale.Scale in
  let module Scale_bench = Ntcu_harness.Scale_bench in
  let run smoke n seeds b d seed shards inject max_epochs jobs out =
    let base =
      if smoke then { Scale_bench.smoke_config with Scale.seed }
      else Scale_bench.default_config ~seed ~n:(pick n 100_000) ()
    in
    let cfg =
      {
        base with
        Scale.params =
          Params.make ~b:(pick b base.Scale.params.b) ~d:(pick d base.Scale.params.d);
        n = pick n base.Scale.n;
        seeds = pick seeds base.Scale.seeds;
        shards = pick shards base.Scale.shards;
        inject_per_epoch = pick inject base.Scale.inject_per_epoch;
        max_epochs = pick max_epochs base.Scale.max_epochs;
      }
    in
    let control (r : Scale_bench.run) =
      let c =
        Scale_bench.control_bytes_per_node
          ~n:(min 10_000 cfg.Scale.n)
          ~seed:cfg.Scale.seed cfg.Scale.params
      in
      Format.printf "record-backed control: %.1f bytes/node (arena %.1f)@." c
        (Scale_bench.bytes_per_node r.summary);
      c
    in
    Experiments.exit_status
      (Experiments.scale ~jobs:(Parallel.resolve_jobs jobs) ~out ~control [ cfg ])
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run one very large join-and-stabilize simulation on the sharded \
          struct-of-arrays engine (packed ids, epoch lockstep, batched cross-shard \
          wire traffic). Deterministic in --seed; --jobs accelerates the single run \
          without changing its payload.")
    Term.(
      const run
      $ smoke_arg "CI-sized run: 2000 nodes over 16 shards."
      $ opt_int [ "n" ]
          "Total population, seeds included (default 100000, or 2000 with --smoke)."
      $ opt_int [ "seeds" ] "Initially in-system nodes."
      $ opt_int [ "b" ] "Digit base."
      $ opt_int [ "d" ] "Digits per ID."
      $ seed_arg
      $ opt_int [ "shards" ] "Logical shard count (power of two)."
      $ opt_int [ "inject" ] "Joiners started per epoch."
      $ opt_int [ "max-epochs" ] "Safety bound on the epoch loop."
      $ jobs_arg $ out_arg "BENCH_scale.json")

(* ---- explore ---- *)

let explore_cmd =
  let module Explore = Ntcu_explore.Explore in
  let module Episode = Ntcu_explore.Episode in
  let module Scheduler = Ntcu_explore.Scheduler in
  let module Repro = Ntcu_explore.Repro in
  let run budget seed scheduler scenario n m b d jobs smoke inject_fault chord_naive
      no_midflight out max_shrinks replay =
    match replay with
    | Some path -> (
      match Repro.load path with
      | Error e ->
        Format.eprintf "cannot load repro: %s@." e;
        2
      | Ok repro ->
        let r = Repro.replay repro in
        Format.printf "replaying %a@.expected %s@." Episode.pp_config repro.Repro.config
          (Ntcu_explore.Invariants.signature repro.Repro.violation);
        List.iter
          (fun v ->
            Format.printf "observed %s@." (Ntcu_explore.Invariants.signature v))
          r.Repro.outcome.Episode.violations;
        Format.printf "digest %s (expected %s)@." r.Repro.outcome.Episode.digest
          repro.Repro.digest;
        Format.printf "%s@." (if r.Repro.reproduced then "REPRODUCED" else "NOT REPRODUCED");
        if r.Repro.reproduced then 0 else 1)
    | None ->
      let base = if smoke then Explore.smoke_settings else Explore.default_settings in
      let schedulers =
        match scheduler with
        | "all" -> base.Explore.schedulers
        | s -> (
          match
            List.find_opt
              (fun k -> String.equal (Scheduler.kind_name k) s)
              (Scheduler.Nop :: base.Explore.schedulers)
          with
          | Some k -> [ k ]
          | None -> failwith (Printf.sprintf "unknown scheduler %S" s))
      in
      let scenarios =
        match scenario with
        | "all" -> base.Explore.scenarios
        | s -> (
          match Episode.scenario_of_name s with
          | Some sc -> [ sc ]
          | None -> failwith (Printf.sprintf "unknown scenario %S" s))
      in
      let fault =
        match inject_fault with
        | None -> None
        | Some name -> (
          match Episode.fault_of_name name with
          | Some f -> Some f
          | None -> failwith (Printf.sprintf "unknown fault %S" name))
      in
      let report =
        Explore.run
          {
            Explore.base_seed = seed;
            budget = pick budget base.Explore.budget;
            schedulers;
            scenarios;
            n = pick n base.Explore.n;
            m = pick m base.Explore.m;
            b = pick b base.Explore.b;
            d = pick d base.Explore.d;
            fault;
            chord_naive;
            midflight = not no_midflight;
            jobs = Parallel.resolve_jobs jobs;
            max_shrinks = pick max_shrinks base.Explore.max_shrinks;
          }
      in
      Format.printf "%a" Explore.pp_report report;
      (match out with
      | None -> ()
      | Some dir ->
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        Report.Json.to_file
          (Filename.concat dir "explore_report.json")
          (Explore.report_json report);
        List.iteri
          (fun i (f : Explore.found) ->
            match f.Explore.repro with
            | Some r -> Repro.save (Filename.concat dir (Printf.sprintf "repro_%d.txt" i)) r
            | None -> ())
          report.Explore.found;
        Format.printf "report and repros written to %s@." dir);
      if report.Explore.failures = 0 then 0 else 1
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"K" ~doc:"Episodes per (scenario, scheduler) pair.")
  in
  let scheduler =
    Arg.(
      value & opt string "all"
      & info [ "scheduler" ] ~docv:"S"
          ~doc:"Scheduler: $(b,random), $(b,pct), $(b,targeted), $(b,nop) or $(b,all).")
  in
  let scenario =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ] ~docv:"S"
          ~doc:
            "Scenario: $(b,concurrent), $(b,dependent), $(b,fault), $(b,churn), \
             $(b,chord) or $(b,all).")
  in
  let inject_fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-fault" ] ~docv:"F"
          ~doc:
            "Inject a test-only protocol bug into every node: \
             $(b,drop-queued-join-waits) or $(b,forget-negative-forward). The hunt is \
             then expected to find (and exit 1 on) its violations.")
  in
  let chord_naive =
    Arg.(
      value & flag
      & info [ "chord-naive" ]
          ~doc:
            "Run $(b,chord) episodes with the classic incorrect stabilize (no liveness \
             checks, single successor pointer). The hunt is then expected to find (and \
             exit 1 on) ring violations that the corrected protocol does not exhibit.")
  in
  let no_midflight =
    Arg.(value & flag & info [ "no-midflight" ] ~doc:"Disable the mid-flight monitors.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write explore_report.json and repro_$(i,K).txt files to $(docv).")
  in
  let max_shrinks =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-shrinks" ] ~docv:"K"
          ~doc:"Delta-debug at most $(docv) violations to minimal repros.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a repro file instead of exploring; exit 0 iff the recorded \
             violation and trace digest reproduce exactly.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Hunt for schedule-dependent protocol violations: run seeded episodes under \
          adversarial schedulers, check invariants, delta-debug any violation to a \
          minimal replayable repro.")
    Term.(
      const run $ budget $ seed_arg $ scheduler $ scenario
      $ opt_int [ "n" ] "Size of the initial network."
      $ opt_int [ "m" ] "Number of joining nodes."
      $ opt_int [ "b" ] "Digit base."
      $ opt_int [ "d" ] "Digits per ID."
      $ jobs_arg
      $ smoke_arg "CI-sized run: tiny budget and workloads, no fault scenario."
      $ inject_fault $ chord_naive $ no_midflight $ out $ max_shrinks $ replay)

(* ---- arena ---- *)

let arena_cmd =
  let module Arena = Ntcu_harness.Arena in
  let run seed n m leavers lookups b d jobs smoke naive arms_s out =
    let base = if smoke then Arena.smoke else Arena.default in
    let arms =
      match arms_s with
      | None -> base.Arena.arms @ if naive then [ Arena.Chord_naive ] else []
      | Some s ->
        List.map
          (fun name ->
            match Arena.arm_of_name name with
            | Some a -> a
            | None -> failwith (Printf.sprintf "unknown arm %S" name))
          (String.split_on_char ',' s)
    in
    let report =
      Experiments.arena ~jobs:(Parallel.resolve_jobs jobs) ~out
        {
          Arena.b = pick b base.Arena.b;
          d = pick d base.Arena.d;
          n = pick n base.Arena.n;
          m = pick m base.Arena.m;
          leavers = pick leavers base.Arena.leavers;
          lookups = pick lookups base.Arena.lookups;
          seed;
          maintain_every = base.Arena.maintain_every;
          rounds = base.Arena.rounds;
          arms;
        }
    in
    (* Every selected arm must hold its own invariants, so [--arms
       chord-naive] exits 1 by design (the bench section claims the
       opposite). *)
    if Arena.ok report then 0 else 1
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Also run the classic incorrect Chord stabilize as an extra arm; its \
             invariant violations (if any) fail the run.")
  in
  let arms =
    Arg.(
      value
      & opt (some string) None
      & info [ "arms" ] ~docv:"A,B,.."
          ~doc:
            "Comma-separated arms to run ($(b,paper), $(b,chord), $(b,chord-naive), \
             $(b,baseline)); overrides the default set and $(b,--naive).")
  in
  Cmd.v
    (Cmd.info "arena"
       ~doc:
         "Run the protocol arena: the paper protocol and corrected Chord \
          head-to-head on identical seeded topologies, join/leave schedules and lookup \
          workloads (add the multicast baseline or naive Chord with $(b,--arms) / \
          $(b,--naive)), with a paired report of traffic, consistency windows, lookup \
          success and stretch. Exits non-zero if any arm violates its own invariants.")
    Term.(
      const run $ seed_arg
      $ opt_int [ "n" ] "Initial members."
      $ opt_int [ "m" ] "Joiners."
      $ opt_int [ "leavers" ] "Graceful departures."
      $ opt_int [ "lookups" ] "Lookup pairs."
      $ opt_int [ "b" ] "Digit base."
      $ opt_int [ "d" ] "Digits per ID."
      $ jobs_arg
      $ smoke_arg "CI-sized run: small population and workload."
      $ naive $ arms $ out_arg "BENCH_arena.json")

(* ---- bench ---- *)

let bench_cmd =
  let run smoke full jobs selected =
    with_pool jobs (fun pool -> Experiments.bench pool ~smoke ~full selected)
  in
  let names = Experiments.section_names in
  let selected =
    Arg.(
      value
      & pos_all (enum (List.map (fun name -> (name, name)) names)) []
      & info [] ~docv:"SECTION"
          ~doc:
            (Printf.sprintf
               "Run only these sections (default: all). $(docv) is %s; sections run in \
                that order whatever the order given. Selecting avg-vs-bound or \
                theorem3 also prints the fig15b section, whose runs they share."
               (Arg.doc_alts names)))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's evaluation (Figure 15, Theorems 3-5) and the \
          comparison, ablation, churn, serving, scale, arena and fault experiments; \
          the churn-steady, serve, scale and arena sections write BENCH_*.json in the \
          current directory. Exits 1 if any claim fails. Output is identical for \
          every --jobs value and on every rerun, apart from the scale section's host \
          timings; the benchmark (ntcubench) measures host time.")
    Term.(
      const run
      $ smoke_arg
          "CI-sized parameters for the churn-steady, serve, scale, arena and fault \
           sections."
      $ full_arg $ jobs_arg $ selected)

let main =
  Cmd.group
    (Cmd.info "ntcu" ~version:"1.0.0"
       ~doc:
         "Neighbor table construction and update in a dynamic peer-to-peer network \
          (Liu & Lam, ICDCS 2003) - reproduction toolkit.")
    [
      join_cmd;
      validate_cmd;
      fig15a_cmd;
      fig15b_cmd;
      bound_cmd;
      baseline_cmd;
      leave_cmd;
      recovery_cmd;
      fault_cmd;
      churn_cmd;
      serve_cmd;
      scale_cmd;
      explore_cmd;
      arena_cmd;
      bench_cmd;
    ]

(* Bad input exits 2 with its message, in every command: the flag decoders
   here raise [Failure], the libraries' config validators [Invalid_argument].
   Any other exception is a bug and exits 125, as under cmdliner's handler. *)
let () =
  exit
    (match Cmd.eval' ~catch:false main with
    | code -> code
    | exception (Failure e | Invalid_argument e) ->
      Format.eprintf "%s@." e;
      2
    | exception e ->
      Format.eprintf "ntcu: internal error, uncaught exception:@.%s@.%s@."
        (Printexc.to_string e) (Printexc.get_backtrace ());
      Cmd.Exit.internal_error)

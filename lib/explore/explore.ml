module Parallel = Ntcu_std.Parallel
module Json = Ntcu_harness.Report.Json
module Arena = Ntcu_harness.Arena

type settings = {
  base_seed : int;
  budget : int;
  scenarios : Episode.scenario list;
  schedulers : Scheduler.kind list;
  n : int;
  m : int;
  b : int;
  d : int;
  fault : Ntcu_core.Node.fault option;
  chord_naive : bool;
  midflight : bool;
  jobs : int;
  max_shrinks : int;
}

let default_settings =
  {
    base_seed = 1;
    budget = 8;
    scenarios =
      [
        Episode.Concurrent;
        Episode.Dependent;
        Episode.Fault;
        Episode.Churn;
        Episode.Chord;
      ];
    schedulers =
      [
        Scheduler.Random_delay { scale = 16. };
        Scheduler.Pct { bands = 4; invert = 0.05 };
        Scheduler.Targeted { probability = 0.25; stretch = 32. };
      ];
    n = 24;
    m = 10;
    b = 4;
    d = 6;
    fault = None;
    chord_naive = false;
    midflight = true;
    jobs = 1;
    max_shrinks = 3;
  }

let smoke_settings =
  {
    default_settings with
    budget = 2;
    scenarios = [ Episode.Concurrent; Episode.Dependent; Episode.Chord ];
    n = 12;
    m = 6;
  }

type found = {
  outcome : Episode.outcome;
  shrunk : (Scheduler.intervention list * Episode.outcome * int) option;
  repro : Repro.t option;
  replay_ok : bool;
}

type report = {
  settings : settings;
  episodes : int;
  failures : int;
  found : found list;
}

let configs settings =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun scheduler ->
          List.init settings.budget (fun i ->
              (* Same workload seeds across schedulers — each adversary gets
                 a shot at the same population — but distinct scheduler
                 seeds so re-ordering choices differ. *)
              let seed = settings.base_seed + (97 * i) in
              {
                Episode.scenario;
                b = settings.b;
                d = settings.d;
                n = settings.n;
                m = settings.m;
                seed;
                sched_seed = seed + 13;
                scheduler;
                fault = settings.fault;
                chord_naive = settings.chord_naive;
                midflight = settings.midflight;
              }))
        settings.schedulers)
    settings.scenarios

let run settings =
  let configs = configs settings in
  let outcomes =
    Parallel.with_pool ~jobs:settings.jobs (fun pool ->
        Parallel.map pool Episode.run configs)
  in
  let failing =
    List.filter (fun (o : Episode.outcome) -> not (List.is_empty o.violations)) outcomes
  in
  (* Shrinking re-runs episodes serially; cap how many we minimize. *)
  let found =
    List.mapi
      (fun i (outcome : Episode.outcome) ->
        if i >= settings.max_shrinks then
          { outcome; shrunk = None; repro = None; replay_ok = false }
        else begin
          match Shrink.shrink_outcome outcome with
          | None -> { outcome; shrunk = None; repro = None; replay_ok = false }
          | Some (minimal, final, probes) ->
            let repro =
              match final.Episode.violations with
              | [] ->
                (* Cannot happen: ddmin's invariant keeps the test failing.
                   Degrade to unshrunk rather than crash the hunt. *)
                None
              | v :: _ ->
                Some
                  {
                    Repro.config =
                      {
                        final.Episode.config with
                        Episode.scheduler = Scheduler.Fixed minimal;
                      };
                    found_by = Scheduler.kind_name outcome.config.Episode.scheduler;
                    violation = v;
                    digest = final.Episode.digest;
                  }
            in
            let replay_ok =
              match repro with
              | None -> false
              | Some r -> (Repro.replay r).Repro.reproduced
            in
            { outcome; shrunk = Some (minimal, final, probes); repro; replay_ok }
        end)
      failing
  in
  {
    settings;
    episodes = List.length outcomes;
    failures = List.length failing;
    found;
  }

let intervention_json (i : Scheduler.intervention) =
  Json.Obj [ ("seq", Json.Int i.seq); ("factor", Json.Float i.factor) ]

let found_json f =
  let o = f.outcome in
  Json.Obj
    [
      ("scenario", Json.String (Episode.scenario_name o.config.Episode.scenario));
      ("scheduler", Json.String (Scheduler.kind_name o.config.Episode.scheduler));
      ("seed", Json.Int o.config.Episode.seed);
      ("sched_seed", Json.Int o.config.Episode.sched_seed);
      ("violations", Json.List (List.map Arena.violation_json o.violations));
      ("frames", Json.Int o.frames);
      ("events", Json.Int o.events);
      ("interventions", Json.Int (List.length o.interventions));
      ( "shrunk",
        match f.shrunk with
        | None -> Json.Null
        | Some (minimal, final, probes) ->
          Json.Obj
            [
              ("minimal", Json.List (List.map intervention_json minimal));
              ("probes", Json.Int probes);
              ("digest", Json.String final.Episode.digest);
              ( "violations",
                Json.List (List.map Arena.violation_json final.Episode.violations) );
            ] );
      ("replay_ok", Json.Bool f.replay_ok);
    ]

let report_json r =
  let s = r.settings in
  Json.Obj
    [
      ( "settings",
        Json.Obj
          [
            ("base_seed", Json.Int s.base_seed);
            ("budget", Json.Int s.budget);
            ( "scenarios",
              Json.List
                (List.map (fun x -> Json.String (Episode.scenario_name x)) s.scenarios) );
            ( "schedulers",
              Json.List
                (List.map (fun x -> Json.String (Scheduler.kind_name x)) s.schedulers) );
            ("n", Json.Int s.n);
            ("m", Json.Int s.m);
            ("b", Json.Int s.b);
            ("d", Json.Int s.d);
            ( "fault",
              match s.fault with
              | None -> Json.Null
              | Some f -> Json.String (Episode.fault_name f) );
            ("chord_naive", Json.Bool s.chord_naive);
            ("midflight", Json.Bool s.midflight);
          ] );
      ("episodes", Json.Int r.episodes);
      ("failures", Json.Int r.failures);
      ("found", Json.List (List.map found_json r.found));
    ]

let pp_report ppf r =
  Fmt.pf ppf "explored %d episodes: %d violation(s)@." r.episodes r.failures;
  List.iter
    (fun f ->
      let o = f.outcome in
      Fmt.pf ppf "  [%a]@." Episode.pp_config o.Episode.config;
      List.iter
        (fun v -> Fmt.pf ppf "    %a@." Ntcu_protocol.Protocol.pp_violation v)
        o.Episode.violations;
      match f.shrunk with
      | None -> Fmt.pf ppf "    (not shrunk: over --max-shrinks budget)@."
      | Some (minimal, _, probes) ->
        Fmt.pf ppf "    shrunk %d -> %d intervention(s) in %d probe(s); replay %s@."
          (List.length o.Episode.interventions)
          (List.length minimal) probes
          (if f.replay_ok then "ok" else "FAILED"))
    r.found

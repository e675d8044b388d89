(* Tests for the continuous-churn engine (lib/churn): session-sampler
   properties, steady-state driver behavior, byte-identical artifacts across
   Parallel fan-out widths, and the Best_effort claim gating shared with the
   fault CLI. *)

module Rng = Ntcu_std.Rng
module Parallel = Ntcu_std.Parallel
module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Check = Ntcu_table.Check
module Network = Ntcu_core.Network
module Session = Ntcu_churn.Session
module Churn = Ntcu_churn.Churn
module Experiment = Ntcu_harness.Experiment
module Report = Ntcu_harness.Report

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---- Session samplers ---- *)

let arb_sampler_case =
  QCheck.(
    triple
      (oneofl ~print:Session.kind_name Session.all_kinds)
      (int_range 1 1_000_000) (int_range 0 1_000_000))

let draws dist seed k =
  let rng = Rng.create seed in
  List.init k (fun _ -> Session.sample dist rng)

let sampler_deterministic =
  qtest "sampler is a pure function of the seed" arb_sampler_case
    (fun (kind, mean_i, seed) ->
      let dist = Session.make kind ~mean:(float_of_int mean_i) in
      List.for_all2 Float.equal (draws dist seed 20) (draws dist seed 20))

let sampler_positive =
  qtest "samples are strictly positive and finite" arb_sampler_case
    (fun (kind, mean_i, seed) ->
      let dist = Session.make kind ~mean:(float_of_int mean_i) in
      List.for_all
        (fun x -> x > 0. && Float.is_finite x)
        (draws dist seed 50))

(* The seeded empirical mean must land near the analytic mean for every
   shape. 20k draws: the worst coefficient of variation here is Pareto at
   alpha = 2.5 (CV ~ 0.9), giving a standard error well under 1% — a 15%
   tolerance has enormous margin while still catching a mis-scaled
   inverse CDF. *)
let empirical_mean_tolerance () =
  let mean = 120_000. and n = 20_000 in
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let dist = Session.make kind ~mean in
          let rng = Rng.create seed in
          let sum = ref 0. in
          for _ = 1 to n do
            sum := !sum +. Session.sample dist rng
          done;
          let emp = !sum /. float_of_int n in
          let rel = Float.abs ((emp /. mean) -. 1.) in
          if rel > 0.15 then
            Alcotest.failf "%s seed %d: empirical mean %.0f vs %.0f (rel %.3f)"
              (Session.kind_name kind) seed emp mean rel)
        [ 1; 7; 42 ])
    Session.all_kinds

let analytic_mean_matches () =
  List.iter
    (fun kind ->
      let dist = Session.make kind ~mean:5_000. in
      check (Alcotest.float 1e-6) (Session.kind_name kind) 5_000. (Session.mean dist))
    Session.all_kinds

let make_rejects_nonpositive_mean () =
  List.iter
    (fun kind ->
      List.iter
        (fun mean ->
          try
            ignore (Session.make kind ~mean : Session.dist);
            Alcotest.failf "%s accepted mean %g" (Session.kind_name kind) mean
          with Invalid_argument _ -> ())
        [ 0.; -1. ])
    Session.all_kinds

let kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Session.kind_of_name (Session.kind_name k) with
      | Some k' when k' = k -> ()
      | Some _ | None ->
        Alcotest.failf "kind name %S does not round-trip" (Session.kind_name k))
    Session.all_kinds;
  check Alcotest.bool "exp alias" true
    (Session.kind_of_name "exp" = Some Session.Exponential);
  check Alcotest.bool "unknown rejected" true (Session.kind_of_name "zipf" = None)

(* ---- Steady-state driver ---- *)

(* A sub-smoke config so runtest stays fast: 40 nodes, one virtual minute. *)
let tiny =
  {
    Churn.smoke with
    n = 40;
    duration = 60_000.;
    half_life = 40_000.;
    sample_every = 10_000.;
    maintenance_every = 5_000.;
    lookups_per_sample = 8;
  }

let driver_tiny_run () =
  let r = Churn.run tiny in
  let s = r.Churn.summary in
  check Alcotest.int "series length = samples" (List.length r.Churn.series)
    s.Churn.samples;
  check Alcotest.bool "at least a handful of samples" true (s.Churn.samples >= 3);
  check Alcotest.bool "drained" true s.Churn.drained;
  check Alcotest.bool "final in_system" true s.Churn.final_in_system;
  check Alcotest.bool "population sustained (best-effort ok)" true
    (Churn.ok ~claim:Experiment.Best_effort r);
  (* Arrivals happened and sessions expired: this was an open system, not a
     static network with a sampler. *)
  check Alcotest.bool "arrivals occurred" true (s.Churn.joins_started > 0);
  check Alcotest.bool "departures occurred" true
    (s.Churn.leaves + s.Churn.crashes + s.Churn.aborted > 0)

let driver_deterministic () =
  let doc r = Report.Json.to_string (Churn.bench_json r) in
  let a = doc (Churn.run tiny) and b = doc (Churn.run tiny) in
  check Alcotest.string "same seed, same artifact" a b;
  let c = doc (Churn.run { tiny with seed = tiny.Churn.seed + 1 }) in
  check Alcotest.bool "different seed, different artifact" true (a <> c)

(* The acceptance property for the sweep: fanned out over 1 worker and over
   4, the whole BENCH document (series, summaries, sweep table) is
   byte-identical. *)
let sweep_jobs_byte_identical () =
  let artifact jobs =
    let pool = Parallel.create ~jobs in
    let sweep = Churn.sweep pool ~base:tiny ~points:2 in
    Parallel.shutdown pool;
    Report.Json.to_string (Churn.bench_json ~sweep (Churn.run tiny))
  in
  check Alcotest.string "jobs=1 vs jobs=4" (artifact 1) (artifact 4)

let sweep_halves_half_life () =
  let pool = Parallel.create ~jobs:1 in
  let w = Churn.sweep pool ~base:tiny ~points:2 in
  Parallel.shutdown pool;
  match w.Churn.points with
  | [ p0; p1 ] ->
    check (Alcotest.float 1e-9) "point 0 at base" tiny.Churn.half_life
      p0.Churn.p_half_life;
    check (Alcotest.float 1e-9) "point 1 halved" (tiny.Churn.half_life /. 2.)
      p1.Churn.p_half_life;
    check Alcotest.bool "seeds offset" true
      (p1.Churn.p_seed = tiny.Churn.seed + 97)
  | _ -> Alcotest.fail "expected 2 points"

(* ---- Best_effort claim gating (shared with `ntcu fault`) ---- *)

(* The canonical residual-hole fixture (Experiment.residual_hole): converges
   live and quiescent with exactly one Def-3.8 violation, so Strict rejects
   it and Best_effort accepts it. This pins the CLI exit-status contract of
   `ntcu fault`. *)
let best_effort_gates_residual_hole () =
  let f = Experiment.residual_hole () in
  check Alcotest.bool "live and quiescent" true
    (Experiment.ok ~claim:Experiment.Best_effort f.Experiment.run);
  check Alcotest.bool "not strictly consistent" false
    (Experiment.ok ~claim:Experiment.Strict f.Experiment.run);
  check Alcotest.bool "default claim is strict" false (Experiment.ok f.Experiment.run);
  (* The one hole has a live carrier: the crash did not take the only node
     with the needed suffix; the repair path left the entry empty. *)
  let net = f.Experiment.run.Experiment.net in
  match Lazy.force f.Experiment.run.Experiment.violations with
  | [ Check.False_negative { node; level; digit; witness } ] ->
    check Alcotest.string "hole owner" "030231" (Id.to_string node);
    check Alcotest.int "hole level" 1 level;
    check Alcotest.int "hole digit" 0 digit;
    check Alcotest.bool "witness registered" true (Network.mem net witness);
    check Alcotest.bool "witness not failed" false (Network.is_failed net witness);
    check Alcotest.bool "witness not crashed" false
      (List.exists (Id.equal witness) f.Experiment.crashed)
  | vs ->
    Alcotest.failf "expected one false negative, got %a"
      Fmt.(Dump.list Check.pp_violation)
      vs

let suites =
  [
    ( "churn.session",
      [
        sampler_deterministic;
        sampler_positive;
        Alcotest.test_case "empirical mean within tolerance" `Quick
          empirical_mean_tolerance;
        Alcotest.test_case "analytic mean" `Quick analytic_mean_matches;
        Alcotest.test_case "rejects nonpositive mean" `Quick
          make_rejects_nonpositive_mean;
        Alcotest.test_case "kind names round-trip" `Quick kind_names_roundtrip;
      ] );
    ( "churn.driver",
      [
        Alcotest.test_case "tiny steady-state run" `Quick driver_tiny_run;
        Alcotest.test_case "deterministic artifact" `Quick driver_deterministic;
        Alcotest.test_case "sweep byte-identical across jobs" `Quick
          sweep_jobs_byte_identical;
        Alcotest.test_case "sweep halves half-life" `Quick sweep_halves_half_life;
        Alcotest.test_case "best-effort claim gates residual hole" `Quick
          best_effort_gates_residual_hole;
      ] );
  ]

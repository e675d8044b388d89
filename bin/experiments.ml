(* The experiments behind `ntcu`'s commands and its `bench` sections.

   An experiment that a command and a bench section both run is written once
   here: it runs, prints its report, writes its JSON artifact and returns its
   named claims. The command turns the claims into its exit status, the
   section into CLAIM FAILED lines and the bench's exit status.

   The bench sections regenerate every table and figure of the paper's
   evaluation (Section 5.2, Figure 15) and the comparison and ablation
   experiments of DESIGN.md. Every independent-run sweep (the four fig15b
   setups, the 300-run Theorem 4 estimator, the size-mode and latency-model
   ablations, the fault-injection loss x crash grid) goes through
   Ntcu_std.Parallel.map, which returns results in submission order — so all
   tables and JSON artifacts are byte-identical across --jobs values; --jobs 1
   (the default) is exactly the serial path. Host time is measured only in
   scale's host section: ntcubench times everything else. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Experiment = Ntcu_harness.Experiment
module Report = Ntcu_harness.Report
module Scale_bench = Ntcu_harness.Scale_bench
module Arena = Ntcu_harness.Arena
module Join_cost = Ntcu_analysis.Join_cost
module Stats = Ntcu_std.Stats
module Parallel = Ntcu_std.Parallel
module Churn = Ntcu_churn.Churn
module Serve = Ntcu_serve.Serve

let pf = Format.printf

(* ---- Claims ---- *)

(* A named pass/fail verdict. Runs without loss or churn claim consistency;
   crash regimes (the fault grid, the steady-state churn engine) claim the
   Best_effort contract instead — liveness and quiescence, with consistency
   reported but not gated (see Experiment.claim). *)
type claims = (string * bool) list

(* Print every broken claim; the exit status is 0 iff all of them hold. *)
let exit_status (claims : claims) =
  let broken = List.filter (fun (_, holds) -> not holds) claims in
  List.iter (fun (name, _) -> pf "CLAIM FAILED: %s@." name) broken;
  if List.is_empty broken then 0 else 1

(* ---- Shared experiments ---- *)

(* The churn bench's base point: n = 250 held for 20 virtual minutes at a
   10-minute half-life (~2.4 population turnovers, enough for the tail window
   to be steady state), sampled every 30 s; or the churn smoke config. Serving
   under churn runs at the same point, the scale its tail-success claim is
   gated at. *)
let churn_base ~smoke =
  if smoke then Churn.smoke
  else
    {
      Churn.default with
      n = 250;
      duration = 1_200_000.;
      half_life = 600_000.;
      sample_every = 30_000.;
    }

(* [leavers] concurrent message-level leaves (the first [leavers] registered
   nodes) run to quiescence; the survivors must stay consistent. *)
let leave net ~leavers : claims =
  let module Leave_protocol = Ntcu_extensions.Leave_protocol in
  let lp = Leave_protocol.create net in
  let victims = fst (Ntcu_harness.Workload.split leavers (Ntcu_core.Network.ids net)) in
  List.iter (fun id -> Leave_protocol.request_leave lp id) victims;
  Leave_protocol.run lp;
  pf "concurrent leaves: %a@." Leave_protocol.pp_report (Leave_protocol.report lp);
  let consistent = List.is_empty (Ntcu_core.Network.check_consistent net) in
  pf "consistent after leaves: %b@." consistent;
  [ ("leave: survivors consistent", consistent) ]

(* lib/churn's open system: Poisson arrivals against expiring sessions at the
   target size, then (with [points > 0]) a downward half-life sweep to locate
   the measured churn tolerance. Writes the ntcu-bench-churn/1 artifact. The
   claim is Best_effort: under crash churn, consistency is one of the
   measured series, not a guarantee. [health] also claims a clean bill of
   health at the configured half-life. *)
let churn pool ?(health = false) ~points ~out cfg : claims =
  let result = Churn.run cfg in
  pf "%a@." Churn.pp_result result;
  let sweep = if points = 0 then None else Some (Churn.sweep pool ~base:cfg ~points) in
  Option.iter (pf "%a@." Churn.pp_sweep) sweep;
  Report.Json.to_file out (Churn.bench_json ?sweep result);
  pf "wrote %s@." out;
  ( "churn-steady: sustained and drained (best-effort)",
    Churn.ok ~claim:Experiment.Best_effort result )
  ::
  (if health then
     [
       ( "churn-steady: healthy at base half-life",
         List.is_empty (Churn.health cfg result.Churn.summary) );
     ]
   else [])

(* The PRR-style directory under a production-shaped workload: Zipf-popular
   replicated objects, sustained lookups from random clients, the LRU
   hop-pointer cache ablated off and on, and the same workload composed with
   the continuous-churn driver. Writes the ntcu-bench-serve/1 artifact. The
   static claims are strict: every lookup returns the complete replica set,
   cache or not. *)
let serve pool ~smoke ~out cfg churn_cfg : claims =
  let abl, churn = Serve.run_all pool cfg churn_cfg in
  pf "static serving, cache off:@.%a@.@." Serve.pp_summary abl.Serve.nocache;
  pf "static serving, cache %d:@.%a@.@." cfg.Serve.cache Serve.pp_summary abl.Serve.cached;
  pf "serving under churn (n=%d, half-life %gs):@.%a@." churn_cfg.Churn.n
    (churn_cfg.Churn.half_life /. 1000.)
    Serve.pp_churn_run churn;
  Report.Json.to_file out (Serve.bench_json cfg abl churn);
  pf "wrote %s@." out;
  [
    ( "serve: every static lookup finds the complete replica set (cache off)",
      Serve.static_ok abl.Serve.nocache );
    ( "serve: every static lookup finds the complete replica set (cache on)",
      Serve.static_ok abl.Serve.cached );
  ]
  @ (if cfg.Serve.cache > 0 then
       [
         ( "serve: hop-pointer cache lowers mean pointer-hit depth",
           Serve.cache_improves ~nocache:abl.Serve.nocache ~cached:abl.Serve.cached );
       ]
     else [])
  @ [
      (* The smoke churn config deliberately churns past its predicted repair
         tolerance (see Churn.smoke), so only the default scale claims the
         serving SLO; smoke still requires traffic and a Best_effort churn
         side. *)
      (if smoke then
         ( "serve: churn side issues lookups and holds its best-effort claim",
           churn.Serve.sc_lookups > 0
           && Churn.ok ~claim:Experiment.Best_effort churn.Serve.sc_churn )
       else ("serve: tail lookup resolution >= 0.99 under churn", Serve.churn_ok churn));
    ]

(* lib/scale's sharded epoch engine over each config, then the
   ntcu-bench-scale/1 artifact. Each run's payload is a deterministic
   function of its config (byte-identical for every [jobs]); wall time,
   events/s and GC peak live in the host section. [control] measures (and
   prints) the record-backed memory control, given the last run. With
   [memory], the scale-up must at least halve per-node state: the arena's
   bytes/node at the last config against the control. *)
let scale ~jobs ~out ~control ?(memory = false) configs : claims =
  let runs =
    List.map
      (fun cfg ->
        let r = Scale_bench.measure ~jobs cfg in
        pf "%a@." Scale_bench.pp_run r;
        r)
      configs
  in
  let last = List.nth runs (List.length runs - 1) in
  let control = control last in
  Report.Json.to_file out (Scale_bench.bench_json ~control_bytes_per_node:control runs);
  pf "wrote %s@." out;
  List.map
    (fun (r : Scale_bench.run) ->
      ( Printf.sprintf "scale: n=%d complete and consistent" r.config.Scale_bench.Scale.n,
        Scale_bench.ok r ))
    runs
  @
  if memory then
    [
      ( "scale: arena bytes/node at 100k <= half the record control at 10k",
        Scale_bench.bytes_per_node last.Scale_bench.summary <= control /. 2. );
    ]
  else []

(* The pluggable-protocol arena: every configured arm on the identical seeded
   topology, join/leave schedule and lookup pairs; writes the paired report
   (byte-identical across [jobs]). Each front end gates it its own way. *)
let arena ~jobs ~out cfg =
  let report = Arena.run ~jobs cfg in
  pf "%a@." Arena.pp_report report;
  Arena.write ~path:out report;
  pf "wrote %s@." out;
  report

(* ---- Bench sections ---- *)

type ctx = {
  pool : Parallel.t;
  smoke : bool;  (** CI-sized parameters where a section has them. *)
  full : bool;  (** The paper's 8320-router topology. *)
  want : string -> bool;  (** Whether a section was selected. *)
  failed : bool ref;
}

let claim_all c claims = if exit_status claims <> 0 then c.failed := true

let claim c name cond =
  claim_all c [ (name, cond) ];
  cond

let pmap c f xs = Parallel.map c.pool f xs
let section name = pf "@.=== %s ===@." name
let mean_int a = Stats.mean (Stats.of_ints a)

(* ---- Figure 15(a): theoretical upper bound of E(J) ---- *)

(* One curve, n = 10k..100k; [ntcu fig15a] prints one, the section four. *)
let fig15a_curve ~b ~d ~m =
  let ns = List.init 10 (fun i -> 10_000 * (i + 1)) in
  let label = Printf.sprintf "m=%d, b=%d, d=%d" m b d in
  pf "%a" (Report.pp_fig15a_curve ~label) (Experiment.fig15a_series ~b ~d ~m ~ns)

let fig15a _ =
  section "Figure 15(a): upper bound of E(J) vs n (Theorem 5), b = 16";
  List.iter
    (fun (m, d) -> fig15a_curve ~b:16 ~d ~m)
    [ (500, 40); (1000, 40); (500, 8); (1000, 8) ]

(* ---- Figure 15(b): simulated CDF of JoinNotiMsg per joining node ---- *)

let paper_measured = [ 6.117; 6.051; 5.026; 5.399 ]

let routers ~full =
  if full then Ntcu_topology.Transit_stub.paper_config
  else Ntcu_topology.Transit_stub.scaled_config

let fig15b_runs c ~routers =
  (* Each run builds its own topology, latency model, network and RNGs
     inside the thunk, so the four setups are free to run on four domains. *)
  pmap c
    (fun (i, setup) -> (setup, Experiment.fig15b ~routers ~seed:(100 + i) setup))
    (List.mapi (fun i setup -> (i, setup)) Experiment.paper_setups)

let fig15b_section c =
  section "Figure 15(b): CDF of # JoinNotiMsg sent by a joining node";
  let routers = routers ~full:c.full in
  pf "router topology: %d routers@." (Ntcu_topology.Transit_stub.router_count routers);
  let runs = fig15b_runs c ~routers in
  List.iter
    (fun ((setup : Experiment.fig15b_setup), (run : Experiment.join_run)) ->
      let label =
        Printf.sprintf "n=%d, m=%d, b=16, d=%d%s" setup.n setup.m setup.d
          (if
             claim c
               (Printf.sprintf "fig15b n=%d d=%d consistent" setup.n setup.d)
               (Experiment.ok run)
           then ""
           else "  [INCONSISTENT!]")
      in
      pf "%a" (Report.pp_cdf ~label) (Experiment.cdf_points run.join_noti))
    runs;
  runs

let avg_vs_bound runs =
  section "Section 5.2 in-text: average JoinNotiMsg vs Theorem-5 bound";
  let rows =
    List.map2
      (fun ((setup : Experiment.fig15b_setup), (run : Experiment.join_run)) paper_avg ->
        let label = Printf.sprintf "n=%d d=%d" setup.n setup.d in
        ( label,
          mean_int run.join_noti,
          Join_cost.theorem5_bound (Params.make ~b:16 ~d:setup.d) ~n:setup.n ~m:setup.m,
          paper_avg ))
      runs paper_measured
  in
  pf "%a" Report.pp_avg_vs_bound rows

(* ---- Theorem 3: CpRst + JoinWait <= d + 1 ---- *)

let theorem3 c runs =
  section "Theorem 3: CpRstMsg + JoinWaitMsg per join <= d + 1";
  List.iter
    (fun ((setup : Experiment.fig15b_setup), (run : Experiment.join_run)) ->
      let worst = Array.fold_left max 0 run.cp_wait in
      pf "n=%d d=%d: mean %.3f, max %d, bound %d  %s@." setup.n setup.d
        (mean_int run.cp_wait) worst (setup.d + 1)
        (if
           claim c
             (Printf.sprintf "theorem3 n=%d d=%d" setup.n setup.d)
             (worst <= setup.d + 1)
         then "OK"
         else "VIOLATED"))
    runs

(* avg-vs-bound and theorem3 read the fig15b runs, so selecting either of
   them prints the fig15b section too. *)
let fig15b c =
  let runs = fig15b_section c in
  if c.want "avg-vs-bound" then avg_vs_bound runs;
  if c.want "theorem3" then theorem3 c runs

(* ---- Theorem 4: exact E(J) for a single join vs simulation ---- *)

let theorem4 c =
  section "Theorem 4: E(J) for a single join, closed form vs simulation";
  (* J is heavy-tailed (a rare low notification level makes the set, and
     hence J, an order of magnitude larger), so the standard error matters. *)
  let p = Params.make ~b:16 ~d:8 in
  List.iter
    (fun n ->
      let expected = Join_cost.expected_join_noti p ~n in
      let runs = 300 in
      let samples =
        Array.of_list
          (pmap c
             (fun seed ->
               let run = Experiment.concurrent_joins p ~seed:((seed + 1) * 7) ~n ~m:1 () in
               float_of_int run.join_noti.(0))
             (List.init runs Fun.id))
      in
      let avg = Stats.mean samples in
      let stderr = Stats.stddev samples /. sqrt (float_of_int runs) in
      pf "n=%5d: closed form %.3f, simulated %.3f +/- %.3f (%d joins)@." n expected avg
        stderr runs)
    [ 200; 500; 1000 ]

(* ---- Baseline comparison: state placement and concurrency safety ---- *)

let baseline c =
  section "Baseline: multicast join (Tapestry-style) vs this paper's protocol";
  let p = Params.make ~b:16 ~d:8 in
  let n = 500 and m = 200 in
  let ours = Experiment.concurrent_joins p ~seed:11 ~n ~m () in
  let base_seq = Experiment.baseline_run p ~seed:11 ~n ~m ~concurrent:false in
  let base_con = Experiment.baseline_run p ~seed:11 ~n ~m ~concurrent:true in
  pf "%a"
    (Report.table
       ~header:[ "protocol"; "workload"; "consistent"; "peak state@existing"; "state slots" ])
    [
      [
        "this paper";
        "concurrent";
        (if claim c "baseline: this paper consistent" (Experiment.ok ours) then "yes"
         else "NO");
        "0";
        "0";
      ];
      [
        "multicast";
        "sequential";
        (if base_seq.base_consistent then "yes" else "NO");
        string_of_int base_seq.peak_pending;
        string_of_int base_seq.pending_slots;
      ];
      [
        "multicast";
        "concurrent";
        (if base_con.base_consistent then "yes"
         else Printf.sprintf "NO (%d violations)" base_con.base_violations);
        string_of_int base_con.peak_pending;
        string_of_int base_con.pending_slots;
      ];
    ]

(* ---- Section 6.2 ablation: message-size reduction ---- *)

let msgsize c =
  section "Section 6.2 ablation: bytes sent per size mode";
  let p = Params.make ~b:16 ~d:8 in
  let n = 500 and m = 200 in
  let results =
    pmap c
      (fun (mode, name) ->
        let run = Experiment.concurrent_joins ~size_mode:mode p ~seed:21 ~n ~m () in
        let bytes = Ntcu_core.Stats.bytes_sent (Ntcu_core.Network.global_stats run.net) in
        (name, Experiment.ok run, bytes))
      [
        (Ntcu_core.Message.Full, "full tables");
        (Ntcu_core.Message.Level_range, "level range");
        (Ntcu_core.Message.Bit_vector, "level range + bit vector");
      ]
  in
  let rows =
    List.map
      (fun (name, ok, bytes) ->
        [
          name;
          (if claim c ("msgsize: " ^ name) ok then "yes" else "NO");
          string_of_int bytes;
          Printf.sprintf "%.1f" (float_of_int bytes /. float_of_int m /. 1024.);
        ])
      results
  in
  pf "%a" (Report.table ~header:[ "mode"; "consistent"; "total bytes"; "KiB per join" ]) rows

(* ---- Message census: big vs small messages (Section 5.2's distinction) ---- *)

let census c =
  section "Message census per join (big = table-carrying, small = rest)";
  let p = Params.make ~b:16 ~d:8 in
  let n = 1000 and m = 400 in
  let run = Experiment.concurrent_joins p ~seed:81 ~n ~m () in
  ignore (claim c "census: setup run ok" (Experiment.ok run) : bool);
  let g = Ntcu_core.Network.global_stats run.net in
  let per_join k =
    float_of_int (Ntcu_core.Stats.sent g k) /. float_of_int m
  in
  let big =
    [
      Ntcu_core.Message.K_cp_rst;
      K_cp_rly;
      K_join_wait;
      K_join_wait_rly;
      K_join_noti;
      K_join_noti_rly;
    ]
  in
  let small =
    [
      Ntcu_core.Message.K_in_sys_noti;
      K_spe_noti;
      K_spe_noti_rly;
      K_rv_ngh_noti;
      K_rv_ngh_noti_rly;
    ]
  in
  let rows =
    List.map
      (fun k ->
        [
          Ntcu_core.Message.kind_name k;
          Printf.sprintf "%.3f" (per_join k);
          (if List.mem k big then "big (request/reply)" else "small");
        ])
      (big @ small)
  in
  pf "%a" (Report.table ~header:[ "message"; "sent per join"; "class" ]) rows;
  pf
    "(replies mirror requests one-for-one; the paper analyzes CpRst/JoinWait — Theorem 3 \
     — and JoinNoti — Theorems 4-5; small-message counts were deferred to the technical \
     report)@."

(* ---- Latency-model ablation ---- *)

let latency_ablation c =
  section "Ablation: latency model vs join cost (consistency must hold in all)";
  let p = Params.make ~b:16 ~d:8 in
  let n = 500 and m = 200 in
  (* Latency models are built inside the thunk: the transit-stub one owns a
     Distances cache, which is single-domain state and must belong to the
     domain that runs its simulation. *)
  let results =
    pmap c
      (fun (make_latency, name) ->
        let run = Experiment.concurrent_joins ~latency:(make_latency ()) p ~seed:31 ~n ~m () in
        (name, Experiment.ok run, mean_int run.join_noti, run.events))
      [
        ((fun () -> Ntcu_sim.Latency.constant 1.0), "constant 1ms");
        ((fun () -> Ntcu_sim.Latency.uniform ~seed:1 ~lo:1. ~hi:100.), "uniform 1-100ms");
        ( (fun () ->
            let topo =
              Ntcu_topology.Transit_stub.generate ~seed:2
                Ntcu_topology.Transit_stub.default_config
            in
            let hosts = Ntcu_topology.Endhosts.attach ~seed:3 topo ~n:(n + m) in
            Ntcu_topology.Endhosts.latency ~seed:4 hosts),
          "transit-stub" );
      ]
  in
  let rows =
    List.map
      (fun (name, ok, avg_j, events) ->
        [
          name;
          (if claim c ("latency-ablation: " ^ name) ok then "yes" else "NO");
          Printf.sprintf "%.3f" avg_j;
          string_of_int events;
        ])
      results
  in
  pf "%a" (Report.table ~header:[ "latency model"; "consistent"; "avg J"; "messages" ]) rows

(* ---- Optimization extension: route stretch before/after ---- *)

let optimize c =
  section "Extension: neighbor-table optimization (route stretch)";
  let w, dist =
    Experiment.transit_stub_joins (Params.make ~b:16 ~d:8) ~seed:42 ~n:300 ~m:100
  in
  let run = Experiment.finish w in
  ignore (claim c "optimize: setup consistent" run.Experiment.consistent : bool);
  let net = run.Experiment.net in
  let before =
    Ntcu_extensions.Optimize.average_route_stretch net ~dist ~seed:5 ~samples:500
  in
  let improved = Ntcu_extensions.Optimize.optimize ~max_passes:5 net ~dist in
  let after =
    Ntcu_extensions.Optimize.average_route_stretch net ~dist ~seed:5 ~samples:500
  in
  pf "entries improved: %d@." improved;
  pf "average route stretch: %.3f before, %.3f after@." before after;
  pf "still consistent: %b@."
    (claim c "optimize: consistent after optimization"
       (List.is_empty (Ntcu_core.Network.check_consistent net)))

(* ---- Assumption ablation: what the paper's assumptions buy ---- *)

(* The one section whose whole point is to exhibit violations: it claims
   nothing. *)
let assumption _ =
  section "Assumption ablation: reliable delivery (iii) and no deletion during joins (iv)";
  let p = Params.make ~b:16 ~d:8 in
  let n = 300 and m = 150 in
  (* (iii): message loss wedges joins (liveness), it does not corrupt tables
     of nodes that did complete. *)
  pf "-- assumption (iii): in-transit message loss@.";
  let rows =
    List.map
      (fun loss ->
        let rng = Ntcu_std.Rng.create 51 in
        let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n in
        let joiners =
          Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:m
        in
        let net =
          Ntcu_core.Network.create ~loss:(loss, 52)
            ~latency:(Ntcu_sim.Latency.uniform ~seed:53 ~lo:1. ~hi:100.)
            p
        in
        Ntcu_core.Network.seed_consistent net ~seed:54 seeds;
        let gateways = Array.of_list seeds in
        List.iter
          (fun id ->
            Ntcu_core.Network.start_join net ~id
              ~gateway:(Ntcu_std.Rng.pick rng gateways) ())
          joiners;
        Ntcu_core.Network.run net;
        [
          Printf.sprintf "%.1f%%" (100. *. loss);
          string_of_int (Ntcu_core.Network.messages_lost net);
          string_of_int (List.length (Ntcu_core.Network.stuck_joiners net));
        ])
      [ 0.0; 0.001; 0.01; 0.05; 0.2 ]
  in
  pf "%a" (Report.table ~header:[ "loss rate"; "messages lost"; "wedged joiners" ]) rows;
  (* (iv): leaves DURING the join window can strand joiners and leave
     dangling references; epoch-separated churn (the theorem's regime) never
     does. *)
  pf "-- assumption (iv): node deletion during the join window@.";
  let mixed_run ~interleave seed =
    (* Experiment's concurrent workload; the leavers and their times come
       from its population RNG, past the gateway draws. *)
    let w = Experiment.prepare (Experiment.Joins [||]) p ~seed ~n ~m in
    let net = w.Experiment.w_net and rng = w.Experiment.w_rng in
    let lp = Ntcu_extensions.Leave_protocol.create net in
    let victims = Array.of_list w.Experiment.w_seeds in
    Ntcu_std.Rng.shuffle rng victims;
    let victims = Array.sub victims 0 30 in
    if interleave then
      (* Leaves fire inside the join window. *)
      Array.iter
        (fun id ->
          Ntcu_extensions.Leave_protocol.request_leave lp
            ~at:(Ntcu_std.Rng.float rng 150.) id)
        victims
    else begin
      (* Epoch-separated: joins first, then leaves. *)
      Ntcu_core.Network.run net;
      Array.iter (fun id -> Ntcu_extensions.Leave_protocol.request_leave lp id) victims
    end;
    Ntcu_core.Network.run net;
    let wedged = List.length (Ntcu_core.Network.stuck_joiners net) in
    let violations =
      List.length (Ntcu_table.Check.violations (Ntcu_core.Network.tables net))
    in
    (wedged, violations)
  in
  let rows =
    List.concat_map
      (fun (interleave, label) ->
        List.map
          (fun seed ->
            let wedged, violations = mixed_run ~interleave seed in
            [ label; string_of_int seed; string_of_int wedged; string_of_int violations ])
          [ 61; 62; 63 ])
      [ (false, "epoch-separated"); (true, "interleaved") ]
  in
  pf "%a"
    (Report.table ~header:[ "schedule"; "seed"; "wedged joiners"; "violations" ])
    rows

(* ---- Churn extensions: leaves and failure recovery ---- *)

let churn_batches c =
  section "Extensions: message-level leaves and failure recovery under churn";
  let p = Params.make ~b:16 ~d:8 in
  let run = Experiment.concurrent_joins p ~seed:41 ~n:600 ~m:200 () in
  ignore (claim c "churn: setup run ok" (Experiment.ok run) : bool);
  (* A quarter of the network leaves concurrently. *)
  claim_all c (leave run.net ~leavers:200);
  (* Then crash fractions of the survivors and repair. *)
  List.iter
    (fun fraction ->
      let run = Experiment.concurrent_joins p ~seed:42 ~n:600 ~m:200 () in
      ignore (claim c "churn: pre-crash run ok" (Experiment.ok run) : bool);
      ignore (Ntcu_extensions.Recovery.fail_random run.net ~seed:43 ~fraction);
      let report = Ntcu_extensions.Recovery.repair run.net in
      (* Crashes here are epoch-separated (the network was quiescent), so
         repair must restore full consistency — unlike the crash-over-join
         grids in [fault], where it is best-effort. *)
      pf "fail %2.0f%%: %a; consistent: %b@." (100. *. fraction)
        Ntcu_extensions.Recovery.pp_report report
        (claim c
           (Printf.sprintf "churn: consistent after repair at %.0f%%"
              (100. *. fraction))
           (List.is_empty
              (Ntcu_table.Check.violations (Ntcu_core.Network.tables run.net)))))
    [ 0.05; 0.15; 0.30; 0.50 ]

(* ---- Continuous churn: steady-state engine + half-life sweep ---- *)

(* Unlike [churn_batches] (epoch-separated leave/crash batches on a quiescent
   network), the open system sampled over virtual hours. The smoke config
   deliberately sits below its predicted tolerance (a 1-minute half-life
   against a ~2-minute prediction), so only the default scale claims a clean
   bill of health at the base half-life. *)
let churn_steady c =
  section "Continuous churn: steady state + half-life sweep (writes BENCH_churn.json)";
  claim_all c
    (churn c.pool ~health:(not c.smoke)
       ~points:(if c.smoke then 2 else 3)
       ~out:"BENCH_churn.json" (churn_base ~smoke:c.smoke))

(* ---- Heavy-traffic object-location serving ---- *)

let serve_section c =
  section "Object-location serving: Zipf workload + cache ablation (writes BENCH_serve.json)";
  claim_all c
    (serve c.pool ~smoke:c.smoke ~out:"BENCH_serve.json"
       (if c.smoke then Serve.smoke else Serve.default)
       (churn_base ~smoke:c.smoke))

(* ---- Sharded scale engine: packed ids + arena storage at 10^5 nodes ---- *)

(* The population curve; the memory claim compares the arena's deterministic
   bytes/node at 100k against a record-backed consistent network measured at
   10k nodes. *)
let scale_section c =
  section "Scale: sharded epoch engine, packed ids + arena storage (writes BENCH_scale.json)";
  let configs =
    if c.smoke then [ Scale_bench.smoke_config ]
    else
      List.map
        (fun n -> Scale_bench.default_config ~n ())
        [ 10_000; 50_000; 100_000 ]
  in
  let control _ =
    let control = Scale_bench.control_bytes_per_node Params.paper_sim_d8 in
    pf "record-backed control at 10k nodes: %.1f bytes/node@." control;
    control
  in
  claim_all c
    (scale ~jobs:(Parallel.jobs c.pool) ~out:"BENCH_scale.json" ~control
       ~memory:(not c.smoke) configs)

(* ---- Protocol arena: paper vs Chord vs baseline, head to head ---- *)

(* Every arm, the differential ones included. The production arms (paper,
   corrected Chord) must pass their own invariants and answer every lookup;
   naive Chord is the designed differential and must NOT pass — silent
   departures break its ring where successor redundancy and the paper's
   repair survive. The baseline is comparison data only: its concurrency
   unsafety is claimed by the [baseline] section, and whether its races fire
   here depends on the scale. *)
let arena_section c =
  section "Protocol arena: paper vs Chord vs baseline (writes BENCH_arena.json)";
  let base = if c.smoke then Arena.smoke else Arena.default in
  let cfg =
    { base with
      Arena.arms = [ Arena.Paper; Arena.Chord; Arena.Baseline; Arena.Chord_naive ] }
  in
  let report = arena ~jobs:(Parallel.jobs c.pool) ~out:"BENCH_arena.json" cfg in
  claim_all c
    (List.concat_map
       (fun (r : Arena.arm_result) ->
         let name = Arena.arm_name r.arm in
         match r.arm with
         | Arena.Chord_naive ->
           [
             ( "arena: naive chord exhibits the differential (violations expected)",
               not (Arena.arm_ok r) );
           ]
         | Arena.Baseline -> []
         | Arena.Paper | Arena.Chord ->
           [
             (Printf.sprintf "arena: %s arm invariants" name, Arena.arm_ok r);
             ( Printf.sprintf "arena: %s arm answers every lookup" name,
               r.lookups_attempted > 0 && r.lookups_ok = r.lookups_attempted );
           ])
       report.Arena.results)

(* ---- Backup neighbors: routing resilience before repair ---- *)

let resilience c =
  section "Backup neighbors (Section 2.1): routing success right after crashes, before repair";
  let p = Params.make ~b:16 ~d:8 in
  let rows =
    List.map
      (fun fraction ->
        let run = Experiment.concurrent_joins p ~seed:71 ~n:400 ~m:400 () in
        ignore (claim c "resilience: setup run ok" (Experiment.ok run) : bool);
        let net = run.net in
        ignore (Ntcu_extensions.Recovery.fail_random net ~seed:72 ~fraction);
        let alive x =
          Ntcu_core.Network.mem net x && not (Ntcu_core.Network.is_failed net x)
        in
        let lookup x = Option.map Ntcu_core.Node.table (Ntcu_core.Network.node net x) in
        let live = Array.of_list (Ntcu_core.Network.live_ids net) in
        let rng = Ntcu_std.Rng.create 73 in
        let plain = ref 0 and resilient = ref 0 in
        let total = 2000 in
        for _ = 1 to total do
          let src = Ntcu_std.Rng.pick rng live and dst = Ntcu_std.Rng.pick rng live in
          (match Ntcu_routing.Route.route ~lookup ~src ~dst with
          | Ok path when List.for_all alive path -> incr plain
          | Ok _ | Error _ -> ());
          match Ntcu_routing.Route.route_resilient ~lookup ~alive ~src ~dst with
          | Ok _ -> incr resilient
          | Error _ -> ()
        done;
        let pct x = Printf.sprintf "%.1f%%" (100. *. float_of_int x /. float_of_int total) in
        [ Printf.sprintf "%.0f%%" (100. *. fraction); pct !plain; pct !resilient ])
      [ 0.05; 0.1; 0.2; 0.3 ]
  in
  pf "%a"
    (Report.table
       ~header:[ "crashed"; "primaries only"; "with backup neighbors" ])
    rows

(* ---- Fault injection: the reliability layer vs loss and crashes ---- *)

let fault c =
  section "Fault injection: ack/retransmit + suspicion + online repair vs loss and crashes";
  let smoke = c.smoke in
  let p = Params.make ~b:16 ~d:8 in
  let n = if smoke then 60 else 300 in
  let m = if smoke then 8 else 100 in
  let cell (f : Experiment.fault_run) =
    Printf.sprintf "%s/%s%s"
      (if f.run.all_in_system then "live" else Printf.sprintf "%d stuck" f.stuck)
      (if Experiment.consistent f.run then "ok"
       else Printf.sprintf "%d viol" (List.length (Lazy.force f.run.violations)))
      (if f.retransmissions > 0 then Printf.sprintf " (%d rtx)" f.retransmissions else "")
  in
  let losses = if smoke then [ 0.02 ] else [ 0.01; 0.02; 0.05 ] in
  let crashes = if smoke then [ 0.0; 0.02 ] else [ 0.0; 0.01; 0.03 ] in
  (* The loss x crash grid is flattened into one batch of independent cells
     (each with its own network, loss RNG and crash schedule), then folded
     back into rows — the ordered map keeps the table identical to the
     serial nesting. *)
  let grid = List.concat_map (fun loss -> List.map (fun cr -> (loss, cr)) crashes) losses in
  let cells =
    pmap c
      (fun (loss, crash_fraction) ->
        Experiment.fault_injection ~loss ~crash_fraction p ~seed:91 ~n ~m ())
      grid
  in
  (* The defended claim in this regime is Best_effort: every cell must end
     live and quiescent; residual holes are reported in the table but not
     gated (crash-over-join repair can still leave an entry empty that a
     live node could fill). *)
  List.iter2
    (fun (loss, crash_fraction) (f : Experiment.fault_run) ->
      ignore
        (claim c
           (Printf.sprintf "fault: loss=%.2f crash=%.2f live (best-effort)" loss
              crash_fraction)
           (Experiment.ok ~claim:Experiment.Best_effort f.run)
          : bool))
    grid cells;
  let rows =
    List.mapi
      (fun i loss ->
        Printf.sprintf "%.0f%%" (100. *. loss)
        :: List.mapi
             (fun j _ -> cell (List.nth cells ((i * List.length crashes) + j)))
             crashes)
      losses
  in
  let header =
    "loss \\ crash"
    :: List.map (fun cr -> Printf.sprintf "%.0f%% crash" (100. *. cr)) crashes
  in
  pf "n=%d, m=%d, retransmit ON:@." n m;
  pf "%a" (Report.table ~header) rows;
  (* Control: the same workload with the transport disabled reproduces the
     undefended wedge (assumption-(iii) ablation). *)
  let off =
    Experiment.fault_injection ~reliable:false ~loss:0.02 ~crash_fraction:0. p ~seed:91 ~n
      ~m ()
  in
  pf "retransmit OFF control (2%% loss, no crash): %d stuck joiners, %d lost@." off.stuck
    off.lost;
  let detail =
    Experiment.fault_injection ~loss:0.02
      ~crash_fraction:(if smoke then 0.02 else 0.01)
      p ~seed:92 ~n ~m ()
  in
  pf "detail (2%% loss + crash): %a" Report.pp_fault_run detail

(* ---- The bench ---- *)

(* Every section, in run order, under the names that select it. *)
let sections =
  [
    ([ "fig15a" ], fig15a);
    ([ "fig15b"; "avg-vs-bound"; "theorem3" ], fig15b);
    ([ "theorem4" ], theorem4);
    ([ "baseline" ], baseline);
    ([ "msgsize" ], msgsize);
    ([ "census" ], census);
    ([ "latency-ablation" ], latency_ablation);
    ([ "optimize" ], optimize);
    ([ "assumption" ], assumption);
    ([ "resilience" ], resilience);
    ([ "churn" ], churn_batches);
    ([ "churn-steady" ], churn_steady);
    ([ "serve" ], serve_section);
    ([ "scale" ], scale_section);
    ([ "arena" ], arena_section);
    ([ "fault" ], fault);
  ]

let section_names = List.concat_map fst sections

(* Run the selected sections ([] = all) on [pool]; the exit status is 1 iff
   some claim failed. *)
let bench pool ~smoke ~full selected =
  let want name = List.is_empty selected || List.mem name selected in
  let c = { pool; smoke; full; want; failed = ref false } in
  List.iter (fun (names, run) -> if List.exists want names then run c) sections;
  if !(c.failed) then begin
    pf "@.FAILED: a consistency claim above did not hold.@.";
    1
  end
  else begin
    pf "@.done.@.";
    0
  end

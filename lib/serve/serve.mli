(** Heavy-traffic object-location serving.

    The directory layer ({!Ntcu_routing.Directory}) reproduces PRR's
    publish/lookup semantics; this driver exercises it the way a deployment
    would: populate a network with many objects whose popularity follows a
    Zipf law ({!Ntcu_churn.Zipf}), drive sustained lookup traffic from every
    live node, and measure what the DHT-serving literature measures (ReCord,
    the generalized-hypercubes study — PAPERS.md): lookup throughput,
    pointer-hit depth (P2), stretch against the direct metric distance,
    per-node directory load (P3) and tail latency percentiles.

    The LRU hop-pointer cache on the query path is ablated: off by default
    at the {!Ntcu_routing.Directory} API, sized from {!config}.

    Runs come in two modes: a {e static} run over a consistent network built
    directly ({!run_static}) and a {e churn-composed} run ({!under_churn})
    that installs a periodic serve tick on the {!Ntcu_churn.Churn} engine —
    maintain the directory, re-replicate under-replicated objects, then
    issue Zipf lookups — while the open system churns underneath.

    Everything is deterministic in [config.seed]; {!run_all} fans the
    ablation and the churn run out over {!Ntcu_std.Parallel}, so the bench
    artifact is byte-identical at any [--jobs] width. *)

type config = {
  b : int;
  d : int;
  n : int;  (** Static-run network size. *)
  objects : int;
  replicas : int;  (** Storers per object. *)
  zipf_s : float;  (** Popularity exponent; 0 = uniform. *)
  lookups : int;  (** Static-run total lookups. *)
  cache : int;  (** LRU hop-pointer cache capacity; 0 disables. *)
  serve_every : float;  (** Churn mode: virtual ms between serve ticks. *)
  lookups_per_tick : int;
  seed : int;
}

val default : config
(** 500 nodes, 10k objects x 3 replicas, [s = 1] Zipf, 20k lookups, 4096-entry
    cache, 30 s serve ticks of 64 lookups. *)

val smoke : config
(** CI scale: 60 nodes, 400 objects x 2 replicas, 2k lookups, 256-entry
    cache, 10 s serve ticks of 16 lookups. *)

(** {1 Static serving} *)

type summary = {
  s_cache_capacity : int;
  s_members : int;
  s_published : int;  (** (object, replica) publications installed. *)
  s_publish_hops : int;
  s_lookups : int;
  s_complete : int;
      (** Lookups whose {!Ntcu_routing.Directory.locate} union equalled the
          full replica set — the correctness count, [= s_lookups] on a
          consistent network whatever the cache does. *)
  s_depth_mean : float;  (** Mean pointer-hit depth (P2); cache hits are 0. *)
  s_depth_max : int;
  s_stretch_mean : float;
      (** Access cost (walk to the first pointer + fetch from the replica it
          redirects to) over the direct distance to the nearest replica;
          samples with zero direct distance are excluded. *)
  s_stretch_p99 : float;
  s_stretch_samples : int;
  s_latency_mean : float;  (** Access cost, virtual ms. *)
  s_latency_p50 : float;
  s_latency_p99 : float;
  s_lookups_per_s : float;
      (** Virtual throughput: total lookups over the busiest client's serial
          access time (clients run in parallel). No wall clock involved. *)
  s_load_mean : float;  (** Pointer entries per member (P3). *)
  s_load_max : int;
  s_cache : Ntcu_routing.Directory.cache_stats;
}

val run_static : config -> summary
(** Build a consistent [n]-node network directly
    ({!Ntcu_core.Network.seed_consistent}) over a transit-stub topology,
    publish [objects x replicas], then issue [lookups] Zipf-popular lookups
    from uniform random clients.
    @raise Invalid_argument on a malformed config, or if a publish or lookup
    fails — impossible on the consistent network this builds. *)

(** {1 Serving under churn} *)

type tick = {
  tk_t : float;  (** Virtual ms. *)
  tk_members : int;
  tk_live_objects : int;  (** Objects with >= 1 surviving replica. *)
  tk_lookups : int;  (** Lookups issued (skipped draws excluded). *)
  tk_resolved : int;  (** Lookups that found at least one surviving replica. *)
  tk_found : int;  (** Lookups that found every surviving replica. *)
  tk_skipped : int;  (** Draws whose object had no surviving replica. *)
  tk_rereplicated : int;  (** Replacement replicas published. *)
  tk_maintain : Ntcu_routing.Directory.maintain_stats;
}

type churn_run = {
  sc_config : config;
  sc_churn : Ntcu_churn.Churn.result;
  sc_ticks : tick list;
  sc_lookups : int;
  sc_resolved : int;
  sc_resolution : float;
      (** Fraction of lookups that found at least one surviving replica — the
          lookup-success metric of the DHT-serving literature. *)
  sc_tail_resolution : float;  (** Pooled over the second half of the ticks. *)
  sc_found : int;
  sc_success : float;
      (** Stricter completeness rate: the fraction whose {!locate} union
          covered {e every} surviving replica. Transient P1 disagreements
          while neighbor tables are mid-repair lower this without making
          the object unlocatable. *)
  sc_tail_success : float;
  sc_rereplicated : int;
  sc_republished : int;
  sc_dropped : int;
  sc_publish_hops : int;
  sc_revalidated : int;
  sc_maintain_errors : int;
  sc_lost_objects : int;  (** Objects with no surviving replica at the end. *)
  sc_cache : Ntcu_routing.Directory.cache_stats;
}

val under_churn : config -> Ntcu_churn.Churn.config -> churn_run
(** Compose the serving workload with the steady-state churn driver: prepare
    the churn run, publish [objects] from the initial members, then fire a
    serve tick every [serve_every] virtual ms strictly inside the churn
    window. Each tick runs incremental directory maintenance
    ({!Ntcu_routing.Directory.maintain}), prunes departed storers from the
    ground-truth replica map, re-replicates under-replicated objects onto
    live members, and issues [lookups_per_tick] Zipf lookups; a lookup
    {e resolves} when it finds at least one surviving replica and is
    {e complete} when it finds every one. The ticks draw from their own RNGs
    and inject no messages, so the churn side of the run is byte-identical
    to an unserved run of the same seed.
    @raise Invalid_argument on a malformed config or if the churn window is
    shorter than [serve_every]. *)

(** {1 Fan-out, claims, reporting} *)

type ablation = { nocache : summary; cached : summary }

val run_all : Ntcu_std.Parallel.t -> config -> Ntcu_churn.Churn.config -> ablation * churn_run
(** The full bench: the static run with the cache off and on, plus the
    churn-composed run, fanned out over the pool in submission order
    (byte-identical results at any pool width). The [nocache] arm is
    [{cfg with cache = 0}]. *)

val static_ok : summary -> bool
(** Every lookup found the complete replica set. *)

val cache_improves : nocache:summary -> cached:summary -> bool
(** The cached arm's mean pointer-hit depth is strictly lower. *)

val churn_ok : churn_run -> bool
(** Tail lookup resolution >= 0.99 and the churn side held its Best_effort
    claim ({!Ntcu_churn.Churn.ok}). *)

val ok : ?smoke:bool -> config -> ablation -> churn_run -> bool
(** All of the above (cache improvement only required when [cache > 0]);
    the CLI's exit status and the bench claims. With [~smoke:true] the
    churn-side SLO is waived — the smoke churn config deliberately churns
    past its predicted repair tolerance, mirroring the churn-steady bench —
    though the churn run must still issue traffic and hold its Best_effort
    churn claim. *)

val config_json : config -> Ntcu_harness.Report.Json.t
val summary_json : summary -> Ntcu_harness.Report.Json.t
val churn_run_json : churn_run -> Ntcu_harness.Report.Json.t

val bench_json : config -> ablation -> churn_run -> Ntcu_harness.Report.Json.t
(** The [BENCH_serve.json] document, schema ["ntcu-bench-serve/1"]:
    [{schema; config; static = {nocache; cache}; churn}]. Deliberately
    contains no wall-clock or job-count fields, so serial and parallel runs
    emit byte-identical artifacts. *)

val pp_summary : summary Fmt.t
val pp_churn_run : churn_run Fmt.t

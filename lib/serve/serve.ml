module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Stats = Ntcu_std.Stats
module Parallel = Ntcu_std.Parallel
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Directory = Ntcu_routing.Directory
module Route = Ntcu_routing.Route
module Zipf = Ntcu_churn.Zipf
module Churn = Ntcu_churn.Churn
module Workload = Ntcu_harness.Workload
module Json = Ntcu_harness.Report.Json
module Arrivals = Ntcu_sim.Arrivals
module Endhosts = Ntcu_topology.Endhosts
module Transit_stub = Ntcu_topology.Transit_stub

(* ---- Configuration ----------------------------------------------------- *)

type config = {
  b : int;
  d : int;
  n : int;
  objects : int;
  replicas : int;
  zipf_s : float;
  lookups : int;
  cache : int;
  serve_every : float;
  lookups_per_tick : int;
  seed : int;
}

let default =
  {
    b = 16;
    d = 8;
    n = 500;
    objects = 10_000;
    replicas = 3;
    zipf_s = 1.0;
    lookups = 20_000;
    cache = 4_096;
    serve_every = 30_000.;
    lookups_per_tick = 64;
    seed = 1;
  }

let smoke =
  {
    default with
    n = 60;
    objects = 400;
    replicas = 2;
    lookups = 2_000;
    cache = 256;
    serve_every = 10_000.;
    lookups_per_tick = 16;
  }

let validate cfg =
  if cfg.n < 2 then invalid_arg "Serve: n must be >= 2";
  if cfg.objects < 1 then invalid_arg "Serve: objects must be >= 1";
  if cfg.replicas < 1 || cfg.replicas > cfg.n then
    invalid_arg "Serve: replicas must be in [1, n]";
  if cfg.lookups < 1 then invalid_arg "Serve: lookups must be >= 1";
  if cfg.cache < 0 then invalid_arg "Serve: cache must be >= 0";
  if cfg.serve_every <= 0. then invalid_arg "Serve: serve_every must be positive";
  if cfg.lookups_per_tick < 1 then invalid_arg "Serve: lookups_per_tick must be >= 1"

(* ---- Static serving run ------------------------------------------------ *)

type summary = {
  s_cache_capacity : int;
  s_members : int;
  s_published : int;  (* (object, replica) publications installed *)
  s_publish_hops : int;
  s_lookups : int;
  s_complete : int;  (* lookups that returned exactly the full replica set *)
  s_depth_mean : float;
  s_depth_max : int;
  s_stretch_mean : float;
  s_stretch_p99 : float;
  s_stretch_samples : int;
  s_latency_mean : float;
  s_latency_p50 : float;
  s_latency_p99 : float;
  s_lookups_per_s : float;
  s_load_mean : float;
  s_load_max : int;
  s_cache : Directory.cache_stats;
}

(* The serving latency of one lookup: walk the surrogate path to the first
   pointer, then fetch from the replica nearest that pointer node (the copy
   the pointer redirects to — PRR's access-cost model, as in
   examples/object_location.ml). On a cache hit the walk is local and the
   client fetches its nearest known copy directly. *)
let access_cost ~dist ~client (r : Directory.locate_result) =
  let prefix =
    if r.Directory.cached then [ client ]
    else List.filteri (fun i _ -> i <= r.Directory.first_depth) r.Directory.path
  in
  let walk = Route.path_cost ~dist prefix in
  let fetch =
    List.fold_left
      (fun acc s -> Float.min acc (dist r.Directory.first_node s))
      Float.infinity r.Directory.first_storers
  in
  if Float.is_finite fetch then walk +. fetch else walk

let run_static cfg =
  validate cfg;
  let p = Params.make ~b:cfg.b ~d:cfg.d in
  let rng = Rng.create cfg.seed in
  let members = Workload.distinct_ids rng p ~n:cfg.n in
  let net = Network.create p in
  Network.seed_consistent net ~seed:(cfg.seed + 1) members;
  let topo = Transit_stub.generate ~seed:(cfg.seed + 2) Transit_stub.default_config in
  let hosts = Endhosts.attach ~seed:(cfg.seed + 3) topo ~n:cfg.n in
  let dist = Workload.host_distance hosts members in
  let lookup id = Option.map Node.table (Network.node net id) in
  let dir = Directory.create ~cache:cfg.cache ~lookup () in
  let objects =
    Array.of_list
      (Workload.distinct_ids ~avoid:(Id.Set.of_list members) rng p ~n:cfg.objects)
  in
  let member_arr = Array.of_list members in
  (* Replica placement: [replicas] distinct storers per object. *)
  let storer_rng = Rng.create (cfg.seed + 4) in
  let publish_hops = ref 0 in
  let published = ref 0 in
  let replica_sets =
    Array.map
      (fun obj ->
        let idx = Rng.sample_without_replacement storer_rng cfg.replicas cfg.n in
        let storers =
          List.sort Id.compare (List.map (fun i -> member_arr.(i)) (Array.to_list idx))
        in
        List.iter
          (fun storer ->
            match Directory.publish dir ~storer obj with
            | Ok h ->
              publish_hops := !publish_hops + h;
              incr published
            | Error e ->
              (* Cannot happen on a consistent network (P1). *)
              Fmt.invalid_arg "Serve: publish failed: %a" Route.pp_error e)
          storers;
        storers)
      objects
  in
  (* Zipf lookup traffic from random clients. *)
  let zipf = Zipf.create ~s:cfg.zipf_s ~n:cfg.objects in
  let lookup_rng = Rng.create (cfg.seed + 5) in
  let depths = Array.make cfg.lookups 0. in
  let latencies = Array.make cfg.lookups 0. in
  let stretches = ref [] in
  let complete = ref 0 in
  let depth_max = ref 0 in
  let clients_clock = Id.Tbl.create cfg.n in
  for i = 0 to cfg.lookups - 1 do
    let rank = Zipf.sample zipf lookup_rng in
    let obj = objects.(rank) in
    let client = Rng.pick lookup_rng member_arr in
    match Directory.locate dir ~client obj with
    | Error e -> Fmt.invalid_arg "Serve: lookup failed: %a" Route.pp_error e
    | Ok r ->
      let truth = replica_sets.(rank) in
      if List.equal Id.equal r.Directory.all_storers truth then incr complete;
      depths.(i) <- float_of_int r.Directory.first_depth;
      if r.Directory.first_depth > !depth_max then depth_max := r.Directory.first_depth;
      let cost = access_cost ~dist ~client r in
      latencies.(i) <- cost;
      let direct =
        List.fold_left (fun acc s -> Float.min acc (dist client s)) Float.infinity truth
      in
      if direct > 0. then stretches := (cost /. direct) :: !stretches;
      let sofar = try Id.Tbl.find clients_clock client with Not_found -> 0. in
      Id.Tbl.replace clients_clock client (sofar +. cost)
  done;
  (* Virtual throughput: clients issue their lookups serially and in parallel
     with each other, so the makespan is the busiest client's serial time.
     No wall clock is involved; the figure is a pure function of the seed. *)
  let makespan =
    (* Max over clients is order-independent. *)
    (Id.Tbl.fold [@ntcu.allow "D002"])
      (fun _client t acc -> Float.max t acc)
      clients_clock 0.
  in
  let lookups_per_s =
    if makespan > 0. then float_of_int cfg.lookups /. (makespan /. 1000.) else 0.
  in
  let loads =
    Array.map
      (fun id ->
        List.fold_left
          (fun acc (_obj, storers) -> acc + List.length storers)
          0 (Directory.pointers_at dir id))
      member_arr
  in
  let load_max = Array.fold_left max 0 loads in
  let stretch_arr = Array.of_list !stretches in
  {
    s_cache_capacity = cfg.cache;
    s_members = cfg.n;
    s_published = !published;
    s_publish_hops = !publish_hops;
    s_lookups = cfg.lookups;
    s_complete = !complete;
    s_depth_mean = Stats.mean depths;
    s_depth_max = !depth_max;
    s_stretch_mean = (if Array.length stretch_arr = 0 then 0. else Stats.mean stretch_arr);
    s_stretch_p99 =
      (if Array.length stretch_arr = 0 then 0. else Stats.percentile stretch_arr 99.);
    s_stretch_samples = Array.length stretch_arr;
    s_latency_mean = Stats.mean latencies;
    s_latency_p50 = Stats.percentile latencies 50.;
    s_latency_p99 = Stats.percentile latencies 99.;
    s_lookups_per_s = lookups_per_s;
    s_load_mean = Stats.mean (Stats.of_ints loads);
    s_load_max = load_max;
    s_cache = Directory.cache_stats dir;
  }

(* ---- Serving under churn ----------------------------------------------- *)

type tick = {
  tk_t : float;
  tk_members : int;
  tk_live_objects : int;  (* objects with at least one surviving replica *)
  tk_lookups : int;
  tk_resolved : int;  (* lookups that found at least one surviving replica *)
  tk_found : int;  (* lookups that found every surviving replica *)
  tk_skipped : int;  (* draws whose object had no surviving replica *)
  tk_rereplicated : int;
  tk_maintain : Directory.maintain_stats;
}

type churn_run = {
  sc_config : config;
  sc_churn : Churn.result;
  sc_ticks : tick list;
  sc_lookups : int;
  sc_resolved : int;
  sc_resolution : float;  (* found >= 1 surviving replica: lookup success *)
  sc_tail_resolution : float;  (* pooled over the second half of the ticks *)
  sc_found : int;
  sc_success : float;  (* found the complete surviving replica set *)
  sc_tail_success : float;
  sc_rereplicated : int;
  sc_republished : int;
  sc_dropped : int;
  sc_publish_hops : int;
  sc_revalidated : int;
  sc_maintain_errors : int;
  sc_lost_objects : int;  (* objects with no surviving replica at the end *)
  sc_cache : Directory.cache_stats;
}

let under_churn cfg (churn_cfg : Churn.config) =
  validate cfg;
  if churn_cfg.Churn.duration <= cfg.serve_every then
    invalid_arg "Serve: churn duration must exceed serve_every";
  let st = Churn.prepare churn_cfg in
  let net = Churn.net st in
  let engine = Network.engine net in
  let p = Params.make ~b:churn_cfg.Churn.b ~d:churn_cfg.Churn.d in
  (* Members are live, fully joined nodes; everyone else is invisible to the
     directory (departed hosts keep no reachable pointers). *)
  let lookup id =
    if Network.is_failed net id then None
    else
      match Network.node net id with
      | Some node when Node.status_equal (Node.status node) Node.In_system ->
        Some (Node.table node)
      | Some _ | None -> None
  in
  let members () = List.filter (fun id -> Option.is_some (lookup id)) (Network.live_ids net) in
  let dir = Directory.create ~cache:cfg.cache ~lookup () in
  let obj_rng = Rng.create (cfg.seed + 10) in
  let initial = Churn.initial st in
  let objects =
    Array.of_list
      (Workload.distinct_ids ~avoid:(Id.Set.of_list initial) obj_rng p ~n:cfg.objects)
  in
  (* Ground-truth replica map, pruned and re-replicated at every tick. *)
  let reps = Array.make (Array.length objects) [] in
  let serve_rng = Rng.create (cfg.seed + 11) in
  let initial_arr = Array.of_list initial in
  let n0 = Array.length initial_arr in
  Array.iteri
    (fun i obj ->
      let k = min cfg.replicas n0 in
      let idx = Rng.sample_without_replacement serve_rng k n0 in
      let storers =
        List.sort Id.compare (List.map (fun j -> initial_arr.(j)) (Array.to_list idx))
      in
      let ok =
        List.filter
          (fun storer ->
            match Directory.publish dir ~storer obj with Ok _ -> true | Error _ -> false)
          storers
      in
      reps.(i) <- ok)
    objects;
  let zipf = Zipf.create ~s:cfg.zipf_s ~n:cfg.objects in
  let ticks = ref [] in
  let rereplicate obj_i member_arr =
    (* Refill the replica set from live members; draws are bounded so a
       near-empty network cannot spin. *)
    let added = ref 0 in
    let missing = cfg.replicas - List.length reps.(obj_i) in
    let attempts = ref (8 * missing) in
    while List.length reps.(obj_i) < cfg.replicas && !attempts > 0 do
      decr attempts;
      let candidate = Rng.pick serve_rng member_arr in
      if not (List.exists (Id.equal candidate) reps.(obj_i)) then begin
        match Directory.publish dir ~storer:candidate objects.(obj_i) with
        | Ok _ ->
          reps.(obj_i) <- List.sort Id.compare (candidate :: reps.(obj_i));
          incr added
        | Error _ -> ()
      end
    done;
    !added
  in
  let tick ~now =
    let mstats = Directory.maintain dir in
    let member_list = members () in
    let member_arr = Array.of_list member_list in
    let n_members = Array.length member_arr in
    let live_objects = ref 0 in
    let rereplicated = ref 0 in
    Array.iteri
      (fun i _obj ->
        let survivors = List.filter (fun s -> Option.is_some (lookup s)) reps.(i) in
        reps.(i) <- survivors;
        if n_members > cfg.replicas && List.length survivors < cfg.replicas then
          rereplicated := !rereplicated + rereplicate i member_arr;
        if not (List.is_empty reps.(i)) then incr live_objects)
      objects;
    let issued = ref 0 in
    let resolved = ref 0 in
    let found = ref 0 in
    let skipped = ref 0 in
    if n_members > 0 then
      for _ = 1 to cfg.lookups_per_tick do
        let rank = Zipf.sample zipf serve_rng in
        let survivors = reps.(rank) in
        if List.is_empty survivors then incr skipped
        else begin
          let client = Rng.pick serve_rng member_arr in
          incr issued;
          match Directory.locate dir ~client objects.(rank) with
          | Ok r ->
            let hit s = List.exists (Id.equal s) r.Directory.all_storers in
            if List.exists hit survivors then incr resolved;
            if List.for_all hit survivors then incr found
          | Error _ -> ()
        end
      done;
    ticks :=
      {
        tk_t = now;
        tk_members = n_members;
        tk_live_objects = !live_objects;
        tk_lookups = !issued;
        tk_resolved = !resolved;
        tk_found = !found;
        tk_skipped = !skipped;
        tk_rereplicated = !rereplicated;
        tk_maintain = mstats;
      }
      :: !ticks
  in
  (* Strictly inside the churn window: the k-th tick fires at k*serve_every,
     the last one below [duration] (the churn stop event must win at the
     boundary). *)
  let count =
    max 0 (int_of_float (Float.ceil (churn_cfg.Churn.duration /. cfg.serve_every)) - 1)
  in
  if count > 0 then
    ignore
      (Arrivals.start engine ~first:cfg.serve_every
         ~next:(Arrivals.take (count - 1) (Arrivals.every cfg.serve_every))
         (fun ~now -> tick ~now)
        : Arrivals.t);
  let churn_result = Churn.finish st in
  let ticks = List.rev !ticks in
  let n_ticks = List.length ticks in
  let pool_rate f ts =
    let issued = List.fold_left (fun acc tk -> acc + tk.tk_lookups) 0 ts in
    let hits = List.fold_left (fun acc tk -> acc + f tk) 0 ts in
    (issued, hits, if issued = 0 then 1. else float_of_int hits /. float_of_int issued)
  in
  let tail = List.filteri (fun i _ -> i >= n_ticks / 2) ticks in
  let issued, resolved, resolution = pool_rate (fun tk -> tk.tk_resolved) ticks in
  let _, _, tail_resolution = pool_rate (fun tk -> tk.tk_resolved) tail in
  let _, found, success = pool_rate (fun tk -> tk.tk_found) ticks in
  let _, _, tail_success = pool_rate (fun tk -> tk.tk_found) tail in
  let lost =
    Array.fold_left (fun acc survivors -> if List.is_empty survivors then acc + 1 else acc) 0 reps
  in
  let sum f = List.fold_left (fun acc tk -> acc + f tk) 0 ticks in
  {
    sc_config = cfg;
    sc_churn = churn_result;
    sc_ticks = ticks;
    sc_lookups = issued;
    sc_resolved = resolved;
    sc_resolution = resolution;
    sc_tail_resolution = tail_resolution;
    sc_found = found;
    sc_success = success;
    sc_tail_success = tail_success;
    sc_rereplicated = sum (fun tk -> tk.tk_rereplicated);
    sc_republished = sum (fun tk -> tk.tk_maintain.Directory.republished);
    sc_dropped = sum (fun tk -> tk.tk_maintain.Directory.dropped);
    sc_publish_hops = sum (fun tk -> tk.tk_maintain.Directory.publish_hops);
    sc_revalidated = sum (fun tk -> tk.tk_maintain.Directory.revalidated);
    sc_maintain_errors = sum (fun tk -> tk.tk_maintain.Directory.errors);
    sc_lost_objects = lost;
    sc_cache = Directory.cache_stats dir;
  }

(* ---- Whole-bench fan-out ----------------------------------------------- *)

type ablation = { nocache : summary; cached : summary }

type task_result = R_static of summary | R_churn of churn_run

let run_all pool cfg churn_cfg =
  let tasks = [ `Static { cfg with cache = 0 }; `Static cfg; `Churn (cfg, churn_cfg) ] in
  let results =
    Parallel.map pool
      (function
        | `Static c -> R_static (run_static c)
        | `Churn (c, cc) -> R_churn (under_churn c cc))
      tasks
  in
  match results with
  | [ R_static nocache; R_static cached; R_churn churn ] -> ({ nocache; cached }, churn)
  | _ -> assert false

(* ---- Claims ------------------------------------------------------------ *)

let static_ok s = s.s_lookups > 0 && s.s_complete = s.s_lookups

let cache_improves ~nocache ~cached =
  cached.s_depth_mean < nocache.s_depth_mean

let churn_ok r =
  r.sc_lookups > 0 && r.sc_tail_resolution >= 0.99
  && Churn.ok ~claim:Ntcu_harness.Experiment.Best_effort r.sc_churn

(* ---- Reporting --------------------------------------------------------- *)

let config_json cfg =
  Json.Obj
    [
      ("b", Json.Int cfg.b);
      ("d", Json.Int cfg.d);
      ("n", Json.Int cfg.n);
      ("objects", Json.Int cfg.objects);
      ("replicas", Json.Int cfg.replicas);
      ("zipf_s", Json.Float cfg.zipf_s);
      ("lookups", Json.Int cfg.lookups);
      ("cache", Json.Int cfg.cache);
      ("serve_every", Json.Float cfg.serve_every);
      ("lookups_per_tick", Json.Int cfg.lookups_per_tick);
      ("seed", Json.Int cfg.seed);
    ]

let cache_stats_json (c : Directory.cache_stats) =
  Json.Obj
    [
      ("hits", Json.Int c.Directory.hits);
      ("misses", Json.Int c.Directory.misses);
      ("evictions", Json.Int c.Directory.evictions);
      ("invalidations", Json.Int c.Directory.invalidations);
      ("entries", Json.Int c.Directory.entries);
      ("capacity", Json.Int c.Directory.capacity);
    ]

let summary_json s =
  Json.Obj
    [
      ("cache_capacity", Json.Int s.s_cache_capacity);
      ("members", Json.Int s.s_members);
      ("published", Json.Int s.s_published);
      ("publish_hops", Json.Int s.s_publish_hops);
      ("lookups", Json.Int s.s_lookups);
      ("complete", Json.Int s.s_complete);
      ("depth_mean", Json.Float s.s_depth_mean);
      ("depth_max", Json.Int s.s_depth_max);
      ("stretch_mean", Json.Float s.s_stretch_mean);
      ("stretch_p99", Json.Float s.s_stretch_p99);
      ("stretch_samples", Json.Int s.s_stretch_samples);
      ("latency_mean_ms", Json.Float s.s_latency_mean);
      ("latency_p50_ms", Json.Float s.s_latency_p50);
      ("latency_p99_ms", Json.Float s.s_latency_p99);
      ("lookups_per_s", Json.Float s.s_lookups_per_s);
      ("load_mean", Json.Float s.s_load_mean);
      ("load_max", Json.Int s.s_load_max);
      ("cache", cache_stats_json s.s_cache);
    ]

let maintain_json (m : Directory.maintain_stats) =
  Json.Obj
    [
      ("objects", Json.Int m.Directory.objects);
      ("republished", Json.Int m.Directory.republished);
      ("dropped", Json.Int m.Directory.dropped);
      ("publish_hops", Json.Int m.Directory.publish_hops);
      ("revalidated", Json.Int m.Directory.revalidated);
      ("errors", Json.Int m.Directory.errors);
    ]

let tick_json tk =
  Json.Obj
    [
      ("t", Json.Float tk.tk_t);
      ("members", Json.Int tk.tk_members);
      ("live_objects", Json.Int tk.tk_live_objects);
      ("lookups", Json.Int tk.tk_lookups);
      ("resolved", Json.Int tk.tk_resolved);
      ("found", Json.Int tk.tk_found);
      ("skipped", Json.Int tk.tk_skipped);
      ("rereplicated", Json.Int tk.tk_rereplicated);
      ("maintain", maintain_json tk.tk_maintain);
    ]

let churn_run_json r =
  Json.Obj
    [
      ("churn_config", Churn.config_json r.sc_churn.Churn.config);
      ("series", Json.List (List.map tick_json r.sc_ticks));
      ( "summary",
        Json.Obj
          [
            ("ticks", Json.Int (List.length r.sc_ticks));
            ("lookups", Json.Int r.sc_lookups);
            ("resolved", Json.Int r.sc_resolved);
            ("resolution", Json.Float r.sc_resolution);
            ("tail_resolution", Json.Float r.sc_tail_resolution);
            ("found", Json.Int r.sc_found);
            ("success", Json.Float r.sc_success);
            ("tail_success", Json.Float r.sc_tail_success);
            ("rereplicated", Json.Int r.sc_rereplicated);
            ("republished", Json.Int r.sc_republished);
            ("dropped", Json.Int r.sc_dropped);
            ("publish_hops", Json.Int r.sc_publish_hops);
            ("revalidated", Json.Int r.sc_revalidated);
            ("maintain_errors", Json.Int r.sc_maintain_errors);
            ("lost_objects", Json.Int r.sc_lost_objects);
            ("cache", cache_stats_json r.sc_cache);
            ("churn", Churn.summary_json r.sc_churn.Churn.summary);
          ] );
    ]

let bench_json cfg (abl : ablation) churn =
  Json.Obj
    [
      ("schema", Json.String "ntcu-bench-serve/1");
      ("config", config_json cfg);
      ( "static",
        Json.Obj
          [ ("nocache", summary_json abl.nocache); ("cache", summary_json abl.cached) ] );
      ("churn", churn_run_json churn);
    ]

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>members %d, %d publications (%d hops)@,\
     lookups %d: complete %d, depth mean %.2f max %d@,\
     latency ms: mean %.1f p50 %.1f p99 %.1f; stretch mean %.2f p99 %.2f@,\
     throughput %.0f lookups/s (virtual); load mean %.1f max %d@,\
     cache: capacity %d, %d hits / %d misses, %d evictions@]"
    s.s_members s.s_published s.s_publish_hops s.s_lookups s.s_complete s.s_depth_mean
    s.s_depth_max s.s_latency_mean s.s_latency_p50 s.s_latency_p99 s.s_stretch_mean
    s.s_stretch_p99 s.s_lookups_per_s s.s_load_mean s.s_load_max s.s_cache_capacity
    s.s_cache.Directory.hits s.s_cache.Directory.misses s.s_cache.Directory.evictions

let pp_churn_run ppf r =
  Fmt.pf ppf
    "@[<v>%d ticks, %d lookups: resolved %.4f (tail %.4f), complete %.4f (tail %.4f)@,\
     maintenance: %d republished, %d revalidated, %d dropped, %d hops, %d errors@,\
     re-replications %d; lost objects %d@]"
    (List.length r.sc_ticks) r.sc_lookups r.sc_resolution r.sc_tail_resolution r.sc_success
    r.sc_tail_success r.sc_republished r.sc_revalidated r.sc_dropped r.sc_publish_hops
    r.sc_maintain_errors r.sc_rereplicated r.sc_lost_objects

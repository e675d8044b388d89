module Scale = Ntcu_scale.Scale
module Json = Report.Json

type run = {
  config : Scale.config;
  jobs : int;
  summary : Scale.summary;
  wall_s : float;
  top_heap_words : int;
}

let default_config ?(seed = 1) ~n () =
  {
    Scale.params = Ntcu_id.Params.paper_sim_d8;
    n;
    seeds = min n 1024;
    seed;
    shards = 64;
    inject_per_epoch = 512;
    max_epochs = 1_000_000;
  }

let smoke_config =
  { (default_config ~n:2000 ()) with Scale.seeds = 128; shards = 16 }

let measure ~jobs config =
  let t0 = Unix.gettimeofday () in
  let summary = Scale.run ~jobs config in
  let wall_s = Unix.gettimeofday () -. t0 in
  { config; jobs; summary; wall_s; top_heap_words = (Gc.quick_stat ()).top_heap_words }

let bytes_per_node (s : Scale.summary) =
  8. *. float_of_int s.store_words /. float_of_int s.population

let events_per_s r =
  if r.wall_s > 0. then float_of_int r.summary.events /. r.wall_s else 0.

let control_bytes_per_node ?(n = 10_000) ?(seed = 1) params =
  let ids = Workload.distinct_ids (Ntcu_std.Rng.create seed) params ~n in
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  let net = Ntcu_core.Network.create params in
  Ntcu_core.Network.seed_consistent net ~seed ids;
  Gc.full_major ();
  let after = (Gc.stat ()).live_words in
  let net = Sys.opaque_identity net in
  ignore (Ntcu_core.Network.size net : int);
  8. *. float_of_int (after - before) /. float_of_int n

let ok r =
  let s = r.summary in
  s.injected = s.population - s.seed_count
  && s.stuck = 0 && s.violations = 0
  && s.epochs < r.config.Scale.max_epochs

(* ---- JSON ---- *)

let config_json (c : Scale.config) =
  Json.Obj
    [
      ("b", Json.Int c.params.b);
      ("d", Json.Int c.params.d);
      ("n", Json.Int c.n);
      ("seeds", Json.Int c.seeds);
      ("seed", Json.Int c.seed);
      ("shards", Json.Int c.shards);
      ("inject_per_epoch", Json.Int c.inject_per_epoch);
      ("max_epochs", Json.Int c.max_epochs);
    ]

let payload_json r =
  let s = r.summary in
  Json.Obj
    [
      ("config", config_json r.config);
      ("epochs", Json.Int s.epochs);
      ("injected", Json.Int s.injected);
      ("events", Json.Int s.events);
      ( "kind_counts",
        Json.Obj (List.map (fun (k, c) -> (k, Json.Int c)) s.kind_counts) );
      ("cross_batches", Json.Int s.cross_batches);
      ("cross_bytes", Json.Int s.cross_bytes);
      ("redirects", Json.Int s.redirects);
      ("deferrals", Json.Int s.deferrals);
      ("stuck", Json.Int s.stuck);
      ("stabilize_fills", Json.Int s.stabilize_fills);
      ("violations", Json.Int s.violations);
      ("store_words", Json.Int s.store_words);
      ("bytes_per_node", Json.Float (bytes_per_node s));
      ( "shard_events",
        Json.List (Array.to_list (Array.map (fun e -> Json.Int e) s.shard_events)) );
    ]

let host_json r =
  Json.Obj
    [
      ("jobs", Json.Int r.jobs);
      ("wall_s", Json.Float r.wall_s);
      ("events_per_s", Json.Float (events_per_s r));
      ("top_heap_words", Json.Int r.top_heap_words);
    ]

let run_json r = Json.Obj [ ("payload", payload_json r); ("host", host_json r) ]

let bench_json ~control_bytes_per_node runs =
  Json.Obj
    [
      ("schema", Json.String "ntcu-bench-scale/1");
      ("runs", Json.List (List.map run_json runs));
      ( "control",
        Json.Obj [ ("record_bytes_per_node", Json.Float control_bytes_per_node) ] );
    ]

(* ---- plain text ---- *)

let shard_imbalance (s : Scale.summary) =
  let n = Array.length s.shard_events in
  if n = 0 || s.events = 0 then 1.
  else
    let mx = Array.fold_left max 0 s.shard_events in
    let mean = float_of_int s.events /. float_of_int n in
    if mean > 0. then float_of_int mx /. mean else 1.

let pp_run ppf r =
  let s = r.summary in
  Fmt.pf ppf
    "@[<v>scale run: n=%d seeds=%d shards=%d jobs=%d@,\
     epochs %d, events %d (%.0f/s), cross %d batches / %d bytes@,\
     redirects %d, deferrals %d, stuck %d, stabilize fills %d, violations %d@,\
     arena %.1f bytes/node (%d words), shard imbalance %.2fx, wall %.2fs@]"
    s.population s.seed_count s.shard_count r.jobs s.epochs s.events (events_per_s r)
    s.cross_batches s.cross_bytes s.redirects s.deferrals s.stuck s.stabilize_fills
    s.violations (bytes_per_node s) s.store_words (shard_imbalance s) r.wall_s

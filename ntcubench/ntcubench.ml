(* One instance of one benchmark workload.

     ntcubench.exe --workload NAME --seed N [--trace] [--setup-only]
                   [--trace-out FILE]
     ntcubench.exe --calibrate

   Builds the workload's starting state from the seed, times the measured
   phase with a monotonic clock, verifies the result outside the timed
   phase, and prints one JSON object on stdout. run.py spawns this once per
   instance, so each GC peak belongs to that instance alone, and aggregates
   the instances. --calibrate times the fixed loop run.py uses to scale
   host times to a reference host speed.

   With --trace the benchmark wraps its calls into each layer in spans
   (name, start, end, parent), kept in memory and written to --trace-out at
   the end. The two high-frequency boundaries, one Distances query per sent
   message and one engine event per delivery, are aggregated in place
   instead of becoming one span each. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Json = Ntcu_harness.Report.Json
module Workload = Ntcu_harness.Workload
module Scale_bench = Ntcu_harness.Scale_bench
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Stats = Ntcu_core.Stats
module Message = Ntcu_core.Message
module Engine = Ntcu_sim.Engine
module Latency = Ntcu_sim.Latency
module Transit_stub = Ntcu_topology.Transit_stub
module Endhosts = Ntcu_topology.Endhosts
module Distances = Ntcu_topology.Distances
module Scale = Ntcu_scale.Scale
module Serve = Ntcu_serve.Serve
module Churn = Ntcu_churn.Churn
module Directory = Ntcu_routing.Directory

(* One-line JSON (Report.Json pretty-prints across lines). *)
let rec json_line = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Json.Float _ -> "null"
  | Json.String s -> json_string s
  | Json.List l -> "[" ^ String.concat "," (List.map json_line l) ^ "]"
  | Json.Obj fields ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_line v) fields)
    ^ "}"

and json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* ---- Clock ---- *)

let clock_base = Monotonic_clock.now ()

(* Nanoseconds since program start; exact in a float for ~104 days. *)
let now_ns () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) clock_base)
let seconds_between t0 t1 = (t1 -. t0) *. 1e-9

(* ---- Spans ---- *)

module Spans = struct
  type span = { name : string; parent : int; start : float; mutable stop : float }

  type t = {
    on : bool;
    mutable rev : span list;
    mutable count : int;
    mutable current : int;
  }

  let create ~on = { on; rev = []; count = 0; current = -1 }

  let span t name f =
    if not t.on then f ()
    else begin
      let s = { name; parent = t.current; start = now_ns (); stop = nan } in
      t.rev <- s :: t.rev;
      t.current <- t.count;
      t.count <- t.count + 1;
      let r = f () in
      s.stop <- now_ns ();
      t.current <- s.parent;
      r
    end

  (* Total seconds spent in spans called [name]. *)
  let seconds t name =
    List.fold_left
      (fun acc s -> if String.equal s.name name then acc +. seconds_between s.start s.stop else acc)
      0. t.rev

  let write t path ~aggregates =
    let oc = open_out path in
    List.iteri
      (fun i s ->
        output_string oc
          (json_line
             (Json.Obj
                [
                  ("id", Json.Int i);
                  ("name", Json.String s.name);
                  ("parent", Json.Int s.parent);
                  ("start_ns", Json.Float s.start);
                  ("end_ns", Json.Float s.stop);
                ]));
        output_char oc '\n')
      (List.rev t.rev);
    List.iter
      (fun (name, fields) ->
        output_string oc
          (json_line (Json.Obj (("aggregate", Json.String name) :: fields)));
        output_char oc '\n')
      aggregates;
    close_out oc
end

(* Growable unboxed sample buffer for per-event durations. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  (* Empty until the first sample, so untraced runs carry no buffer. *)
  let create () = { data = [||]; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.create_float (max 65536 (2 * t.len)) in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of an ascending array, [q] in [0, 1]. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* ---- What an instance reports ---- *)

type outcome = {
  failures : string list;  (** Failed checks; empty iff the run verified. *)
  attempted : int;  (** Operations issued: joins, injections or lookups. *)
  failed : int;  (** Operations that did not succeed. *)
  nodes : int;  (** Divisor of [bytes_per_node]. *)
  own_bytes_per_node : float option;
      (** A layer's own deterministic footprint, used instead of the live heap. *)
  events : int;  (** Divisor of the GC per-event counts. *)
  slo : (int * int * float) option;
      (** [(met, of, floor)]: a success floor checked over all instances of
          a run together (see {!Churn_serve}). *)
  exact : (string * Json.t) list;
      (** Deterministic simulation counts: identical across every run of
          one seed, traced or not. *)
  layers : (string * Json.t) list;  (** Per-layer metrics of this instance. *)
  aggregates : (string * (string * Json.t) list) list;
      (** Aggregated high-frequency spans, for the trace file. *)
}

type 'st workload = {
  setup : seed:int -> Spans.t -> 'st;
  phase : Spans.t -> 'st -> unit;  (** The timed phase. *)
  verify : Spans.t -> 'st -> outcome;
}

let int_fields = List.map (fun (k, v) -> (k, Json.Int v))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ---- join-transit: Figure 15(b) at paper scale ---- *)

(* n = 7192 initial nodes, m = 1000 concurrent joiners at t = 0, b = 16,
   d = 8, over the 8,320-router transit-stub topology with end-host
   shortest-path latencies. Seed offsets follow Experiment.fig15b, so a seed
   here reproduces its run with the same seed. *)
module Join_transit = struct
  let n = 7192
  let m = 1000
  let params = Params.paper_sim_d8

  type st = {
    net : Network.t;
    hosts : Endhosts.t;
    joins : (float * Id.t * Id.t) list;
    joiners : Id.t list;
    dist_calls : int ref;
    dist_busy : float array;  (** Nanoseconds, one cell (unboxed). *)
    event_ns : Samples.t;
    mutable violations : Ntcu_table.Check.violation list;
  }

  let setup ~seed spans =
    let rng = Rng.create seed in
    let seeds = Workload.distinct_ids rng params ~n in
    let joiners = Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng params ~n:m in
    let hosts =
      Spans.span spans "topology.build" (fun () ->
          let topo = Transit_stub.generate ~seed:(seed + 10) Transit_stub.paper_config in
          Endhosts.attach ~seed:(seed + 11) topo ~n:(n + m))
    in
    let dist_calls = ref 0 and dist_busy = [| 0. |] in
    let latency =
      if not spans.Spans.on then Endhosts.latency ~jitter:0.05 ~seed:(seed + 12) hosts
      else
        (* Endhosts.latency's own construction, with the Distances query
           timed: every delay is bit-identical to the untraced run. *)
        Latency.of_distance ~jitter:0.05 ~seed:(seed + 12) (fun ~src ~dst ->
            let t0 = now_ns () in
            let d = Endhosts.distance hosts src dst in
            dist_busy.(0) <- dist_busy.(0) +. (now_ns () -. t0);
            incr dist_calls;
            d)
    in
    let net = Network.create ~latency params in
    Spans.span spans "network.seed" (fun () -> Network.seed_consistent net ~seed:(seed + 2) seeds);
    let gateways = Array.of_list seeds in
    let joins = List.map (fun id -> (0., id, Rng.pick rng gateways)) joiners in
    { net; hosts; joins; joiners; dist_calls; dist_busy; event_ns = Samples.create (); violations = [] }

  let phase spans st =
    Spans.span spans "engine.run" (fun () ->
        Network.start_joins st.net st.joins;
        if spans.Spans.on then begin
          (* The observer fires after each event; the gap between two calls
             is one event's dispatch plus its handler. *)
          let last = [| now_ns () |] in
          Engine.set_observer (Network.engine st.net)
            (Some
               (fun () ->
                 let t = now_ns () in
                 Samples.add st.event_ns (t -. last.(0));
                 last.(0) <- t))
        end;
        Network.run st.net;
        Engine.set_observer (Network.engine st.net) None);
    st.violations <-
      Spans.span spans "check" (fun () -> Network.check_consistent ~limit:1 st.net)

  let verify spans st =
    let d = params.Params.d in
    let stats_of id = Node.stats (Network.node_exn st.net id) in
    let not_in_system =
      List.length
        (List.filter
           (fun id ->
             not (Node.status_equal (Node.status (Network.node_exn st.net id)) Node.In_system))
           st.joiners)
    in
    let join_noti = List.fold_left (fun acc id -> acc + Stats.join_noti_sent (stats_of id)) 0 st.joiners in
    let cp_wait_max =
      List.fold_left (fun acc id -> max acc (Stats.copy_and_wait_sent (stats_of id))) 0 st.joiners
    in
    let engine = Network.engine st.net in
    let g = Network.global_stats st.net in
    let delivered = Network.messages_delivered st.net in
    let ds = Distances.stats (Endhosts.distances st.hosts) in
    let failures =
      List.concat
        [
          (if not_in_system > 0 then [ Printf.sprintf "%d joiners not in_system" not_in_system ]
           else []);
          (if List.is_empty st.violations then [] else [ "check_consistent found a violation" ]);
          (if cp_wait_max > d + 1 then
             [ Printf.sprintf "max CpRst+JoinWait %d exceeds d+1 = %d (Theorem 3)" cp_wait_max (d + 1) ]
           else []);
          (if Network.is_quiescent st.net then [] else [ "network not quiescent" ]);
        ]
    in
    let kinds =
      List.map
        (fun k -> ("sent." ^ Message.kind_name k, Json.Int (Stats.sent g k)))
        Message.
          [
            K_cp_rst; K_cp_rly; K_join_wait; K_join_wait_rly; K_join_noti; K_join_noti_rly;
            K_in_sys_noti; K_spe_noti; K_spe_noti_rly; K_rv_ngh_noti; K_rv_ngh_noti_rly;
          ]
    in
    let makespan = Engine.now engine in
    let exact =
      int_fields
        [
          ("deliveries", delivered);
          ("events", Engine.events_processed engine);
          ("total_sent", Stats.total_sent g);
          ("bytes_sent", Stats.bytes_sent g);
          ("join_noti", join_noti);
          ("cp_wait_max", cp_wait_max);
          ("not_in_system", not_in_system);
          ("violations", List.length st.violations);
          ("dist.queries", ds.queries);
          ("dist.settled_hits", ds.settled_hits);
          ("dist.state_hits", ds.state_hits);
          ("dist.state_misses", ds.state_misses);
          ("dist.evictions", ds.evictions);
          ("dist.pops", ds.pops);
        ]
      @ [ ("makespan_ms", Json.Float makespan) ]
      @ kinds
    in
    let layers =
      [
        ("engine.events", Json.Int (Engine.events_processed engine));
        ("distances.pops", Json.Int ds.pops);
        ("distances.state_misses", Json.Int ds.state_misses);
        ("distances.evictions", Json.Int ds.evictions);
        ("distances.settled_hit_ratio", Json.Float (ratio ds.settled_hits ds.queries));
        ("node.deliveries", Json.Int delivered);
        ("node.msgs_per_join", Json.Float (ratio (Stats.total_sent g) m));
        ("node.bytes_per_join", Json.Float (ratio (Stats.bytes_sent g) m));
        ("node.join_noti_mean", Json.Float (ratio join_noti m));
        ("node.cp_wait_max", Json.Int cp_wait_max);
        ("sim.makespan_ms", Json.Float makespan);
        ("check.violations", Json.Int (List.length st.violations));
      ]
      @
      if not spans.Spans.on then []
      else begin
        let run_s = Spans.seconds spans "engine.run" in
        let events = Samples.sorted st.event_ns in
        let dist_s = st.dist_busy.(0) *. 1e-9 in
        [
          ("topology.build_s", Json.Float (Spans.seconds spans "topology.build"));
          ("network.seed_s", Json.Float (Spans.seconds spans "network.seed"));
          ("engine.run_s", Json.Float run_s);
          ("engine.self_s", Json.Float (run_s -. dist_s));
          ("engine.event_p50_us", Json.Float (percentile events 0.50 *. 1e-3));
          ("engine.event_p99_us", Json.Float (percentile events 0.99 *. 1e-3));
          ("engine.event_samples", Json.Int st.event_ns.Samples.len);
          ("distances.calls", Json.Int !(st.dist_calls));
          ("distances.busy_s", Json.Float dist_s);
          ("check.busy_s", Json.Float (Spans.seconds spans "check"));
        ]
      end
    in
    {
      failures;
      attempted = m;
      failed = not_in_system;
      nodes = n + m;
      own_bytes_per_node = None;
      events = delivered;
      slo = None;
      exact;
      layers;
      aggregates =
        (if spans.Spans.on then
           [
             ( "distances.query",
               [
                 ("parent", Json.String "engine.run");
                 ("calls", Json.Int !(st.dist_calls));
                 ("busy_ns", Json.Float st.dist_busy.(0));
               ] );
             ( "engine.event",
               [
                 ("parent", Json.String "engine.run");
                 ("samples", Json.Int st.event_ns.Samples.len);
                 ( "busy_ns",
                   Json.Float (Array.fold_left ( +. ) 0. (Array.sub st.event_ns.data 0 st.event_ns.len)) );
               ] );
           ]
         else []);
    }

  let workload = { setup; phase; verify }
end

(* ---- scale-join: the sharded epoch engine at jobs 1 ---- *)

module Scale_join = struct
  let n = 20_000

  type st = { config : Scale.config; mutable summary : Scale.summary option }

  let setup ~seed _spans = { config = Scale_bench.default_config ~seed ~n (); summary = None }

  let phase spans st =
    st.summary <- Some (Spans.span spans "scale.run" (fun () -> Scale.run ~jobs:1 st.config))

  let verify _spans st =
    let s = Option.get st.summary in
    let run =
      { Scale_bench.config = st.config; jobs = 1; summary = s; wall_s = 0.; top_heap_words = 0 }
    in
    let mean_shard = ratio s.events (Array.length s.shard_events) in
    let max_shard = Array.fold_left max 0 s.shard_events in
    let counts =
      [
        ("scale.frames", s.events);
        ("scale.epochs", s.epochs);
        ("scale.cross_batches", s.cross_batches);
        ("scale.cross_bytes", s.cross_bytes);
        ("scale.redirects", s.redirects);
        ("scale.deferrals", s.deferrals);
        ("scale.store_words", s.store_words);
        ("scale.stuck", s.stuck);
        ("scale.stabilize_fills", s.stabilize_fills);
        ("scale.violations", s.violations);
      ]
    in
    let layers =
      int_fields counts
      @ [
          ("scale.msgs_per_join", Json.Float (ratio s.events s.injected));
          ( "scale.shard_imbalance",
            Json.Float (if mean_shard = 0. then 0. else float_of_int max_shard /. mean_shard) );
        ]
    in
    {
      failures = (if Scale_bench.ok run then [] else [ "Scale_bench.ok does not hold" ]);
      attempted = s.injected;
      failed = s.stuck;
      nodes = s.population;
      own_bytes_per_node = Some (Scale_bench.bytes_per_node s);
      events = s.events;
      slo = None;
      exact =
        int_fields
          (counts
          @ [ ("population", s.population); ("injected", s.injected) ]
          @ List.map (fun (k, v) -> ("kind." ^ k, v)) s.kind_counts
          @ List.mapi (fun i v -> (Printf.sprintf "shard.%d" i, v)) (Array.to_list s.shard_events));
      layers;
      aggregates = [];
    }

  let workload = { setup; phase; verify }
end

(* ---- churn-serve: Zipf lookups over a churning network ---- *)

(* The churn bench's base regime (n = 250, 10-minute half-life, half the
   departures crash, 1% loss) for its 20 virtual minutes, serving 2,000
   objects instead of 10,000.

   Serve.churn_ok is Churn.ok ~claim:Best_effort plus a floor of 0.99 on
   the lookup resolution over the second half of the serve ticks. The
   floor is a statistical target: instance seed 28 resolves 0.9898 of its
   ~1,250 tail lookups. So each instance must meet the rest of churn_ok,
   and the floor is checked over the tail lookups of all instances of a run
   together. *)
module Churn_serve = struct
  let objects = 2_000
  let tail_floor = 0.99

  type st = {
    serve : Serve.config;
    churn : Churn.config;
    mutable result : Serve.churn_run option;
  }

  let setup ~seed _spans =
    {
      serve = { Serve.default with objects; seed };
      churn =
        {
          Churn.default with
          n = 250;
          duration = 1_200_000.;
          half_life = 600_000.;
          sample_every = 30_000.;
          seed;
        };
      result = None;
    }

  let phase spans st =
    st.result <-
      Some (Spans.span spans "serve.under_churn" (fun () -> Serve.under_churn st.serve st.churn))

  let verify _spans st =
    let r = Option.get st.result in
    let s = r.Serve.sc_churn.Churn.summary in
    let leave = s.Churn.leave_report and repair = s.Churn.repair_report in
    let retrans =
      List.fold_left (fun acc (x : Churn.sample) -> acc + x.window_retrans) 0 r.sc_churn.series
    in
    let cache = r.sc_cache in
    let counts =
      [
        ("churn.deliveries", s.events);
        ("churn.joins", s.joins_started);
        ("churn.leaves", s.leaves);
        ("churn.crashes", s.crashes);
        ("churn.retransmissions", retrans);
        ("leave.messages", leave.messages);
        ("leave.fallback_flood", leave.fallback_flood);
        ("repair.suspicions", repair.suspicions);
        ("repair.tables_consulted", repair.tables_consulted);
        ("repair.emptied", repair.emptied);
        ("directory.lookups", r.sc_lookups);
        ("directory.resolved", r.sc_resolved);
        ("directory.revalidated", r.sc_revalidated);
        ("directory.republished", r.sc_republished);
        ("directory.publish_hops", r.sc_publish_hops);
        ("directory.maintain_errors", r.sc_maintain_errors);
        ("directory.lost_objects", r.sc_lost_objects);
      ]
    in
    let floats =
      [
        ("churn.tail_stale_fraction", s.tail_stale_fraction);
        ( "directory.cache_hit_ratio",
          ratio cache.Directory.hits (cache.Directory.hits + cache.Directory.misses) );
      ]
    in
    let float_fields = List.map (fun (k, v) -> (k, Json.Float v)) in
    (* The tail as Serve pools it: ticks from the middle one on. *)
    let half = List.length r.sc_ticks / 2 in
    let tail = List.filteri (fun i _ -> i >= half) r.sc_ticks in
    let tail_sum f = List.fold_left (fun acc (tk : Serve.tick) -> acc + f tk) 0 tail in
    let tail_lookups = tail_sum (fun tk -> tk.tk_lookups) in
    let tail_resolved = tail_sum (fun tk -> tk.tk_resolved) in
    let churn_ok = r.sc_lookups > 0 && Churn.ok ~claim:Ntcu_harness.Experiment.Best_effort r.sc_churn in
    {
      failures =
        List.concat
          [
            (if churn_ok then [] else [ "Churn.ok ~claim:Best_effort does not hold" ]);
            (if tail_lookups = 0 || ratio tail_resolved tail_lookups = r.sc_tail_resolution then []
             else [ "tail lookup counts disagree with Serve's tail resolution" ]);
          ];
      attempted = r.sc_lookups;
      failed = r.sc_lookups - r.sc_resolved;
      nodes = st.churn.Churn.n;
      own_bytes_per_node = None;
      events = s.events;
      slo = Some (tail_resolved, tail_lookups, tail_floor);
      exact =
        int_fields
          (counts
          @ [
              ("found", r.sc_found);
              ("dropped", r.sc_dropped);
              ("rereplicated", r.sc_rereplicated);
              ("cache.hits", cache.hits);
              ("cache.misses", cache.misses);
              ("cache.evictions", cache.evictions);
              ("aborted", s.aborted);
              ("stuck_reaped", s.stuck_reaped);
              ("final_live", s.final_live);
            ])
        @ float_fields (("end_time", s.end_time) :: ("tail_resolution", r.sc_tail_resolution) :: floats);
      layers = int_fields counts @ float_fields floats;
      aggregates = [];
    }

  let workload = { setup; phase; verify }
end

(* ---- Host-speed calibration ---- *)

(* A fixed computation of the benchmark's own, independent of the ntcu
   libraries: hashing, sorting and list allocation, the kinds of work the
   workloads spend their time on. run.py times it between instances to
   see how fast the host runs at that moment. Returns a checksum so the
   work cannot be optimised away. *)
let calibrate () =
  let h = Hashtbl.create 16 in
  for i = 0 to 300_000 do
    Hashtbl.replace h (i * 7919 land 0xfffff) i
  done;
  let acc = ref 0 in
  Hashtbl.iter (fun k v -> acc := !acc + (k lxor v)) h;
  let a = Array.init 400_000 (fun i -> float_of_int (i * 104729 land 0xffff)) in
  Array.sort Float.compare a;
  let l = List.init 300_000 (fun i -> (i, string_of_int i)) in
  let kept = List.filter (fun (k, _) -> k land 3 = 0) l in
  !acc + List.length kept + int_of_float a.(1000)

(* ---- One instance ---- *)

type gc_counts = { minor : float; promoted : float; majors : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { minor = s.minor_words; promoted = s.promoted_words; majors = s.major_collections }

let run_instance (type st) (w : st workload) ~seed ~trace ~setup_only ~trace_out =
  let spans = Spans.create ~on:trace in
  let st = w.setup ~seed spans in
  let gc0 = gc_counts () in
  let phase_start_abs = Monotonic_clock.now () in
  let t0 = now_ns () in
  if setup_only then
    [ ("phase_start_ns", Json.Int (Int64.to_int phase_start_abs)) ]
  else begin
    w.phase spans st;
    let t1 = now_ns () in
    let gc1 = gc_counts () in
    let o = w.verify spans st in
    let top_heap_words = (Gc.quick_stat ()).top_heap_words in
    Gc.full_major ();
    let live_words = (Gc.stat ()).live_words in
    ignore (Sys.opaque_identity st);
    let bytes_per_node =
      match o.own_bytes_per_node with
      | Some b -> b
      | None -> 8. *. float_of_int live_words /. float_of_int o.nodes
    in
    let per_event x = x /. float_of_int (max 1 o.events) in
    Option.iter (fun path -> Spans.write spans path ~aggregates:o.aggregates) trace_out;
    [
      ("phase_start_ns", Json.Int (Int64.to_int phase_start_abs));
      ("wall_s", Json.Float (seconds_between t0 t1));
      ("ok", Json.Bool (List.is_empty o.failures));
      ("failures", Json.List (List.map (fun s -> Json.String s) o.failures));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("success_ratio", Json.Float (ratio (o.attempted - o.failed) o.attempted));
      ("peak_heap_mb", Json.Float (8. *. float_of_int top_heap_words /. 1e6));
      ("bytes_per_node", Json.Float bytes_per_node);
      ( "slo",
        match o.slo with
        | None -> Json.Null
        | Some (met, total, floor) ->
          Json.Obj [ ("met", Json.Int met); ("of", Json.Int total); ("floor", Json.Float floor) ] );
      ("exact", Json.Obj o.exact);
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float (gc1.minor -. gc0.minor));
            ("promoted_words", Json.Float (gc1.promoted -. gc0.promoted));
            ("major_collections", Json.Int (gc1.majors - gc0.majors));
            ("minor_words_per_event", Json.Float (per_event (gc1.minor -. gc0.minor)));
            ("promoted_words_per_event", Json.Float (per_event (gc1.promoted -. gc0.promoted)));
          ] );
      ("layers", Json.Obj o.layers);
    ]
  end

let usage () =
  prerr_endline
    "usage: ntcubench.exe --workload (join-transit|scale-join|churn-serve) --seed N [--trace] \
     [--setup-only] [--trace-out FILE]\n       ntcubench.exe --calibrate";
  exit 2

let () =
  if Array.length Sys.argv = 2 && String.equal Sys.argv.(1) "--calibrate" then begin
    let t0 = now_ns () in
    let checksum = calibrate () in
    let t1 = now_ns () in
    print_endline
      (json_line
         (Json.Obj [ ("calibration_s", Json.Float (seconds_between t0 t1)); ("checksum", Json.Int checksum) ]));
    exit 0
  end;
  let workload = ref "" and seed = ref None and trace = ref false in
  let setup_only = ref false and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some s -> seed := Some s | None -> usage ());
      parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let run w = run_instance w ~seed ~trace:!trace ~setup_only:!setup_only ~trace_out:!trace_out in
  let fields =
    match !workload with
    | "join-transit" -> run Join_transit.workload
    | "scale-join" -> run Scale_join.workload
    | "churn-serve" -> run Churn_serve.workload
    | _ -> usage ()
  in
  print_string
    (json_line
       (Json.Obj
          (("workload", Json.String !workload) :: ("seed", Json.Int seed)
          :: ("traced", Json.Bool !trace) :: fields)));
  print_newline ()

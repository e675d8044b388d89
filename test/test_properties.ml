(* Seed-swept property tests over the subsystems the performance work
   touches: identifier suffix algebra, the wire codec, the indexed event
   queue, the lazy and clustered shortest-path modes, and end-to-end churn
   schedules. Every test draws its randomness from Ntcu_std.Rng with fixed
   seeds, so failures reproduce exactly. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Pqueue = Ntcu_std.Pqueue
module Table = Ntcu_table.Table
module Message = Ntcu_core.Message
module Codec = Ntcu_core.Codec
module Network = Ntcu_core.Network
module Graph = Ntcu_topology.Graph
module Transit_stub = Ntcu_topology.Transit_stub
module Distances = Ntcu_topology.Distances
module Experiment = Ntcu_harness.Experiment

let check = Alcotest.check
let seeds = [ 1; 2; 3; 4; 5 ]

(* ---- Id.csuf algebra ---- *)

(* Reference implementation: count matching digits from the right. *)
let naive_csuf_len x y =
  let d = Id.length x in
  let rec go i = if i < d && Id.digit x i = Id.digit y i then go (i + 1) else i in
  go 0

let csuf_properties () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      List.iter
        (fun (b, d) ->
          let p = Params.make ~b ~d in
          for _ = 1 to 100 do
            let x = Id.random rng p and y = Id.random rng p and z = Id.random rng p in
            let cxy = Id.csuf_len x y in
            check Alcotest.int "agrees with digit scan" (naive_csuf_len x y) cxy;
            check Alcotest.int "symmetric" (Id.csuf_len y x) cxy;
            check Alcotest.int "reflexive = d" d (Id.csuf_len x x);
            check Alcotest.bool "= d iff equal" (Id.equal x y) (cxy = d);
            (* Suffix matching is an ultrametric: the two smallest of the
               three pairwise values are equal, i.e. csuf(x,z) >= min of the
               other two. *)
            let cyz = Id.csuf_len y z and cxz = Id.csuf_len x z in
            check Alcotest.bool "ultrametric" true (cxz >= min cxy cyz);
            (* csuf is exactly what has_suffix/suffix promise. *)
            check Alcotest.bool "shares its csuf" true (Id.has_suffix x (Id.suffix y cxy));
            if cxy < d then
              check Alcotest.bool "csuf is maximal" false
                (Id.has_suffix x (Id.suffix y (cxy + 1)))
          done)
        [ (4, 4); (16, 8); (5, 7) ])
    seeds

(* ---- Codec: roundtrip, truncation, bit flips ---- *)

let codec_params = Params.make ~b:16 ~d:8

let sample_table rng ~cells =
  let p = codec_params in
  let owner = Id.random rng p in
  let t = Table.create p ~owner in
  Table.fill_self t S;
  let placed = ref 0 in
  let attempts = ref 0 in
  while !placed < cells && !attempts < 1000 do
    incr attempts;
    let level = Rng.int rng p.Params.d in
    let digit = Rng.int rng p.Params.b in
    if Table.neighbor t ~level ~digit = None then begin
      let suffix = Table.required_suffix t ~level ~digit in
      let node = Id.random_with_suffix rng p suffix in
      if not (Id.equal node owner) then begin
        Table.set t ~level ~digit node (if Rng.bool rng then T else S);
        incr placed
      end
    end
  done;
  t

let sample_messages rng =
  let p = codec_params in
  let snap cells = Table.Snapshot.of_table (sample_table rng ~cells) in
  let id () = Id.random rng p in
  [
    Message.Cp_rst { level = Rng.int rng p.Params.d };
    Cp_rly { table = snap (Rng.int rng 12) };
    Join_wait;
    Join_wait_rly { sign = Positive; occupant = id (); table = snap 3 };
    Join_noti { table = snap 5; noti_level = Rng.int rng p.Params.d; filled = None };
    Join_noti_rly { sign = Negative; table = snap 2; flag = Rng.bool rng };
    In_sys_noti;
    Spe_noti { origin = id (); subject = id () };
    Rv_ngh_noti { level = Rng.int rng p.Params.d; digit = Rng.int rng p.Params.b; recorded = T };
  ]

let context_roundtrip () =
  let ctx = Codec.context codec_params in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      List.iter
        (fun m ->
          let enc = Codec.encode_ctx ctx m in
          check Alcotest.int "ctx size" (String.length enc) (Codec.encoded_size_ctx ctx m);
          check Alcotest.string "ctx encode = plain encode" (Codec.encode codec_params m) enc;
          match Codec.decode_ctx ctx enc with
          | Error e -> Alcotest.failf "ctx roundtrip failed for %a: %s" Message.pp m e
          | Ok m' ->
            check Alcotest.string "reencode identical" enc (Codec.encode_ctx ctx m'))
        (sample_messages rng))
    seeds

(* Every proper prefix of a valid encoding must be rejected: no message kind
   may decode successfully from truncated input. *)
let truncation_rejected () =
  let ctx = Codec.context codec_params in
  let rng = Rng.create 42 in
  List.iter
    (fun m ->
      let enc = Codec.encode_ctx ctx m in
      for len = 0 to String.length enc - 1 do
        match Codec.decode_ctx ctx (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok m' ->
          Alcotest.failf "prefix %d/%d of %a decoded as %a" len (String.length enc)
            Message.pp m Message.pp m'
      done)
    (sample_messages rng)

(* Flipping any single bit must never crash the decoder, and anything that
   still decodes must be canonical: re-encoding it reproduces a stable byte
   string. (Some flips decode fine — e.g. flips in padding bits or into
   another valid value — so rejection is not required, totality is.) *)
let bit_flips_total () =
  let ctx = Codec.context codec_params in
  let rng = Rng.create 43 in
  List.iter
    (fun m ->
      let enc = Codec.encode_ctx ctx m in
      for bit = 0 to (8 * String.length enc) - 1 do
        let b = Bytes.of_string enc in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        match Codec.decode_ctx ctx (Bytes.to_string b) with
        | Error _ -> ()
        | Ok m' -> (
          let enc' = Codec.encode_ctx ctx m' in
          match Codec.decode_ctx ctx enc' with
          | Error e -> Alcotest.failf "re-decode of flipped %a failed: %s" Message.pp m' e
          | Ok m'' ->
            check Alcotest.string "canonical after flip" enc' (Codec.encode_ctx ctx m''))
      done)
    (sample_messages rng)

(* ---- Pqueue vs a sorted-list model ---- *)

(* The queue's contract: pop order is the total order on (key, insertion
   sequence), unaffected by removals and decrease_key of other elements.
   Model every element as (key, seq, id) and replay random interleavings of
   push / pop / remove / decrease_key / clear against the model. *)
let pqueue_model seed =
  let rng = Rng.create seed in
  let q = Pqueue.create () in
  let model : (float * int * int) list ref = ref [] in
  let handles : (int, int Pqueue.handle) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let next_seq = ref 0 in
  let model_min () =
    List.fold_left
      (fun acc e ->
        match acc with
        | None -> Some e
        | Some best -> if e < best then Some e else Some best)
      None !model
  in
  let pop_and_compare () =
    match (Pqueue.pop q, model_min ()) with
    | None, None -> ()
    | Some (k, v), Some ((mk, _, mid) as m) ->
      check (Alcotest.float 0.) "pop key" mk k;
      check Alcotest.int "pop value" mid v;
      model := List.filter (fun e -> e <> m) !model
    | Some (k, v), None -> Alcotest.failf "queue popped (%f, %d), model empty" k v
    | None, Some (mk, _, _) -> Alcotest.failf "queue empty, model has %f" mk
  in
  for _ = 1 to 400 do
    check Alcotest.int "length" (List.length !model) (Pqueue.length q);
    let roll = Rng.int rng 100 in
    if roll < 45 then begin
      (* Coarse keys force frequent ties; the seq component must break them. *)
      let key = float_of_int (Rng.int rng 10) in
      let id = !next_id and seq = !next_seq in
      incr next_id;
      incr next_seq;
      Hashtbl.replace handles id (Pqueue.push_handle q key id);
      model := (key, seq, id) :: !model
    end
    else if roll < 65 then pop_and_compare ()
    else if roll < 80 then begin
      (* Remove a random id, possibly one that already left the queue. *)
      if !next_id > 0 then begin
        let id = Rng.int rng !next_id in
        match Hashtbl.find_opt handles id with
        | None -> ()
        | Some h ->
          let in_model = List.exists (fun (_, _, i) -> i = id) !model in
          check Alcotest.bool "mem agrees" in_model (Pqueue.mem q h);
          check Alcotest.bool "remove result" in_model (Pqueue.remove q h);
          check Alcotest.bool "stale after remove" false (Pqueue.mem q h);
          model := List.filter (fun (_, _, i) -> i <> id) !model
      end
    end
    else if roll < 93 then begin
      if !next_id > 0 then begin
        let id = Rng.int rng !next_id in
        match Hashtbl.find_opt handles id with
        | None -> ()
        | Some h -> (
          match List.find_opt (fun (_, _, i) -> i = id) !model with
          | Some ((k, seq, _) as e) ->
            let k' = k -. float_of_int (Rng.int rng 5) in
            Pqueue.decrease_key q h k';
            check (Alcotest.float 0.) "handle key" k' (Pqueue.key h);
            model := (k', seq, id) :: List.filter (fun x -> x <> e) !model
          | None ->
            (* Stale handle: decrease_key must raise, not corrupt. *)
            check Alcotest.bool "stale raises" true
              (try
                 Pqueue.decrease_key q h 0.;
                 false
               with Invalid_argument _ -> true))
      end
    end
    else begin
      Pqueue.clear q;
      (* membership check per handle; visit order cannot affect the verdict *)
      (Hashtbl.iter [@ntcu.allow "D002"])
        (fun _ h -> check Alcotest.bool "stale after clear" false (Pqueue.mem q h))
        handles;
      model := [];
      next_seq := 0
    end
  done;
  (* Drain: the survivors must come out in exact (key, seq) order. *)
  while !model <> [] || not (Pqueue.is_empty q) do
    pop_and_compare ()
  done

let pqueue_vs_model () = List.iter pqueue_model seeds

(* ---- Distances vs full Dijkstra ---- *)

(* Exactness is bitwise: answers must be floats identical to the textbook
   full-graph Dijkstra, not merely close (the simulation's determinism
   depends on it). *)
let distances_exact () =
  List.iter
    (fun seed ->
      let topo = Transit_stub.generate ~seed Transit_stub.default_config in
      let g = Transit_stub.graph topo in
      let nv = Graph.n_vertices g in
      let clustered = Transit_stub.distances topo in
      let rng = Rng.create (seed * 7 + 1) in
      for _ = 1 to 40 do
        let src = Rng.int rng nv in
        (* Queries are symmetric and internally run from the smaller index,
           so the bitwise reference is Dijkstra from that same source. *)
        let reference = Graph.dijkstra g src in
        for _ = 1 to 15 do
          let v = src + Rng.int rng (nv - src) in
          let expected = reference.(v) in
          (* float 0. is exact equality in Alcotest. *)
          check (Alcotest.float 0.) "clustered = dijkstra" expected
            (Distances.distance clustered src v);
          check (Alcotest.float 0.) "clustered symmetric" expected
            (Distances.distance clustered v src)
        done
      done)
    seeds

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every pair [(src, v)] with [src <= v] of full Dijkstra rows, asked in both
   argument orders, must match the row bit for bit. [after] sees each pair
   with the pop count from before its two queries. *)
let check_rows ?(after = fun _ _ _ -> ()) g d sources =
  let nv = Graph.n_vertices g in
  List.iter
    (fun src ->
      let reference = Graph.dijkstra g src in
      for v = src to nv - 1 do
        let pops = (Distances.stats d).Distances.pops in
        let got = Distances.distance d src v and got' = Distances.distance d v src in
        if not (same_bits reference.(v) got && same_bits reference.(v) got') then
          Alcotest.failf "distance %d %d = %h, %h; Dijkstra %h" src v got got'
            reference.(v);
        after src v pops
      done)
    sources

(* At paper scale (8 320 routers; seed 112 is the topology fig15b builds for
   its seed 102) clustered answers are bit-identical to full Dijkstra, and a
   query that leaves its cluster is answered by tree folds alone. *)
let distances_paper_scale () =
  let topo = Transit_stub.generate ~seed:112 Transit_stub.paper_config in
  let g = Transit_stub.graph topo in
  let cluster = Transit_stub.cluster_assignment topo in
  let d = Transit_stub.distances topo in
  check_rows g d
    [ 0; 9; 31; 32; 33; 700; 1801; 3650; 5120; 7777 ]
    ~after:(fun src v pops ->
      if cluster.(src) < 0 || cluster.(src) <> cluster.(v) then
        check Alcotest.int "cross-cluster query added no pops" pops
          (Distances.stats d).Distances.pops)

(* A real-valued tie folds differently in floats: from the gateway the tree
   takes g-v (0.3 < 0.1 +. 0.2), but from T0, 10.0 away, the shortest fold
   goes through a. The same tie sits in the core between T0 and T1. The
   robustness check must reject both trees so every answer stays exact.
   Vertices: T0 0, X 1, T1 2; cluster {g 3, a 4, v 5} under T0 and
   cluster {h 6, k 7} under T1. *)
let distances_fragile_tree () =
  let g = Graph.create 8 in
  List.iter
    (fun (u, v, w) -> Graph.add_edge g u v w)
    [
      (0, 1, 0.1); (1, 2, 0.2); (0, 2, 0.3); (0, 3, 10.0); (3, 4, 0.1); (4, 5, 0.2);
      (3, 5, 0.3); (2, 6, 1.0); (6, 7, 1.0);
    ];
  check Alcotest.bool "cluster tie folds differently" false
    (same_bits ((10.0 +. 0.1) +. 0.2) (10.0 +. 0.3));
  check Alcotest.bool "tree takes the direct edge" true (0.3 < 0.1 +. 0.2);
  check Alcotest.bool "core tie folds differently" false
    (same_bits (((10.0 +. 0.1) +. 0.2) +. 1.0) ((10.0 +. 0.3) +. 1.0));
  check (Alcotest.float 0.) "T0 to v goes through a"
    ((10.0 +. 0.1) +. 0.2)
    (Graph.dijkstra g 0).(5);
  let d = Distances.create_clustered g ~cluster:[| -1; -1; -1; 0; 0; 0; 1; 1 |] in
  check_rows g d (List.init 8 Fun.id)

(* ---- Check.violations early exit vs the unlimited scan ---- *)

(* The [~limit] fast path (PR 3) must agree with the full scan on the only
   question its callers ask — "is the network consistent?" — over tables
   damaged in both directions: cleared entries (false negatives) and
   suffix-correct occupants that are not network nodes (dangling). *)
let limit_agrees_with_full_scan =
  let p = Params.make ~b:4 ~d:4 in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"Check.violations ~limit:1 agrees on is-empty"
       QCheck.(pair (int_range 0 10_000) (int_range 0 12))
       (fun (seed, damage) ->
         let rng = Rng.create seed in
         let net =
           Network.create ~latency:(Ntcu_sim.Latency.constant 1.) p
         in
         Network.seed_consistent net ~seed:(seed + 1)
           (Ntcu_harness.Workload.distinct_ids rng p ~n:15);
         let tables = Array.of_list (Network.tables net) in
         let owners = Array.map Table.owner tables in
         for _ = 1 to damage do
           let t = tables.(Rng.int rng (Array.length tables)) in
           let level = Rng.int rng 4 and digit = Rng.int rng 4 in
           if Rng.bool rng then Table.clear t ~level ~digit
           else begin
             (* A suffix-correct stranger: dangling unless it happens to
                collide with a real node (then it is a repair, also fine —
                the property only compares the two scans). *)
             let suffix = Table.required_suffix t ~level ~digit in
             let stranger = Id.random_with_suffix rng p suffix in
             if not (Array.exists (Id.equal stranger) owners) || Rng.bool rng then
               Table.set t ~level ~digit stranger T
           end
         done;
         let tables = Array.to_list tables in
         let fast = Ntcu_table.Check.violations ~limit:1 tables in
         let full = Ntcu_table.Check.violations ~limit:max_int tables in
         (fast = []) = (full = [])
         && List.length fast <= 1
         && (full = [] || List.mem (List.hd fast) full)))

(* ---- Churn oracle: random join/fail and join/leave schedules ---- *)

let churn_params = Params.make ~b:4 ~d:4

(* Random staggered joins under loss, with non-gateway seeds crashing inside
   the join window; the reliability transport plus online repair must end in
   a consistent, fully-joined network. *)
let churn_join_fail seed =
  let p = churn_params in
  let n = 40 and m = 10 in
  let rng = Rng.create seed in
  let seeds_ids = Ntcu_harness.Workload.distinct_ids rng p ~n in
  let joiners =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds_ids) rng p ~n:m
  in
  let net =
    Network.create
      ~latency:(Ntcu_sim.Latency.uniform ~seed:(seed + 1) ~lo:1. ~hi:100.)
      ~loss:(Rng.float rng 0.04, seed + 2)
      ~reliability:{ Network.default_reliability with rto = 250.; seed = seed + 3 }
      p
  in
  let repair = Ntcu_extensions.Online_repair.attach net in
  Network.seed_consistent net ~seed:(seed + 4) seeds_ids;
  let gateways = Array.of_list seeds_ids in
  let used = ref Id.Set.empty in
  List.iter
    (fun id ->
      let gw = Rng.pick rng gateways in
      used := Id.Set.add gw !used;
      Network.start_join net ~at:(Rng.float rng 50.) ~id ~gateway:gw ())
    joiners;
  (* A joiner whose gateway dies before answering has no live contact at all,
     which no protocol can survive, so victims avoid used gateways. *)
  let victims =
    List.filter (fun id -> not (Id.Set.mem id !used)) seeds_ids
    |> List.filteri (fun i _ -> i < 2)
  in
  List.iter
    (fun id ->
      Ntcu_sim.Engine.schedule_at (Network.engine net) ~time:(50. +. Rng.float rng 150.)
        (fun () -> Network.fail net id))
    victims;
  Network.run net;
  Experiment.detect_failures net ~crashed:victims;
  check Alcotest.int "no stuck joiners" 0 (List.length (Network.stuck_joiners net));
  check Alcotest.bool "all in system" true (Network.all_in_system net);
  check Alcotest.int "zero violations" 0 (List.length (Network.check_consistent net));
  ignore (Ntcu_extensions.Online_repair.report repair);
  (* Quiescence: a recovery sweep over the survivors finds nothing dangling
     left behind by the crashes (repair is idempotent, so run it twice and
     require the second pass to be a no-op). *)
  ignore (Ntcu_extensions.Recovery.repair net);
  let second = Ntcu_extensions.Recovery.repair net in
  check Alcotest.int "recovery quiescent" 0 second.Ntcu_extensions.Recovery.scrubbed;
  check Alcotest.int "still zero violations" 0 (List.length (Network.check_consistent net))

(* Random staggered joins followed by epoch-separated voluntary leaves (the
   theorems' churn regime): consistency must hold after every epoch. *)
let churn_join_leave seed =
  let p = churn_params in
  let n = 40 and m = 10 in
  let rng = Rng.create (seed + 100) in
  let seeds_ids = Ntcu_harness.Workload.distinct_ids rng p ~n in
  let joiners =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds_ids) rng p ~n:m
  in
  let net =
    Network.create ~latency:(Ntcu_sim.Latency.uniform ~seed:(seed + 1) ~lo:1. ~hi:100.) p
  in
  Network.seed_consistent net ~seed:(seed + 2) seeds_ids;
  let gateways = Array.of_list seeds_ids in
  List.iter
    (fun id ->
      Network.start_join net ~at:(Rng.float rng 50.) ~id ~gateway:(Rng.pick rng gateways) ())
    joiners;
  Network.run net;
  check Alcotest.bool "joins consistent" true (Network.check_consistent net = []);
  let lp = Ntcu_extensions.Leave_protocol.create net in
  let victims = Array.of_list (Network.ids net) in
  Rng.shuffle rng victims;
  Array.iteri
    (fun i id -> if i < 6 then Ntcu_extensions.Leave_protocol.request_leave lp id)
    victims;
  Ntcu_extensions.Leave_protocol.run lp;
  check Alcotest.bool "leaves consistent" true
    (Ntcu_table.Check.violations (Network.tables net) = []);
  let second = Ntcu_extensions.Recovery.repair net in
  check Alcotest.int "nothing to repair" 0 second.Ntcu_extensions.Recovery.scrubbed

let churn_oracle () =
  List.iter
    (fun seed ->
      churn_join_fail seed;
      churn_join_leave seed)
    [ 1; 2; 3 ]

let suites =
  [
    ( "properties",
      [
        Alcotest.test_case "id csuf algebra" `Quick csuf_properties;
        Alcotest.test_case "codec context roundtrip" `Quick context_roundtrip;
        Alcotest.test_case "codec rejects truncation" `Quick truncation_rejected;
        Alcotest.test_case "codec total under bit flips" `Quick bit_flips_total;
        Alcotest.test_case "pqueue matches model" `Quick pqueue_vs_model;
        Alcotest.test_case "distances exact" `Quick distances_exact;
        Alcotest.test_case "distances paper scale" `Quick distances_paper_scale;
        Alcotest.test_case "distances fragile tree" `Quick distances_fragile_tree;
        limit_agrees_with_full_scan;
        Alcotest.test_case "churn oracle" `Quick churn_oracle;
      ] );
  ]

(* Property suite for the object-location directory (lib/routing/directory):
   P1 root agreement, publish/locate/unpublish exactness, maintain as a
   restorative operation after membership changes, incremental-vs-full
   maintenance equivalence, and the LRU hop-pointer cache. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Directory = Ntcu_routing.Directory
module Experiment = Ntcu_harness.Experiment
module Workload = Ntcu_harness.Workload
module Leave_protocol = Ntcu_extensions.Leave_protocol
module Recovery = Ntcu_extensions.Recovery

let check = Alcotest.check

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let p = Params.make ~b:4 ~d:6

(* Graceful departures through the message-level protocol, one at a time. *)
let leave net ids =
  List.iter
    (fun id ->
      let lp = Leave_protocol.create net in
      Leave_protocol.request_leave lp id;
      Leave_protocol.run lp;
      check Alcotest.int "departed" 1 (Leave_protocol.report lp).departed)
    ids

let make_net ~seed ~n ~m =
  let run = Experiment.concurrent_joins p ~seed ~n ~m () in
  Alcotest.(check int) "consistent" 0 (List.length (Lazy.force run.violations));
  run

(* Liveness-aware lookup, as the serving layer uses: departed and crashed
   hosts are invisible to the directory. *)
let live_lookup net id =
  if Network.is_failed net id then None
  else
    match Network.node net id with
    | Some node when Node.status_equal (Node.status node) Node.In_system ->
      Some (Node.table node)
    | Some _ | None -> None

let fresh_objects ?(k = 5) ~seed net =
  let rng = Rng.create seed in
  Workload.distinct_ids ~avoid:(Id.Set.of_list (Network.ids net)) rng p ~n:k

let arb_seed = QCheck.int_range 1 5_000

(* ---- P1: all members agree on every object's root ---- *)

let p1_root_agreement =
  qtest "P1: members agree on the root of every object" arb_seed (fun seed ->
      let run = make_net ~seed ~n:12 ~m:8 in
      let dir = Directory.create ~lookup:(live_lookup run.net) () in
      let ids = Network.ids run.net in
      List.for_all
        (fun obj ->
          match List.map (fun from -> Directory.root_of dir ~from obj) ids with
          | Ok first :: rest ->
            List.for_all (function Ok r -> Id.equal r first | Error _ -> false) rest
          | [] -> true
          | Error _ :: _ -> false)
        (fresh_objects ~seed:(seed + 1) run.net))

(* ---- publish-then-locate finds every storer, from every client ---- *)

let sorted_ids l = List.sort Id.compare l

let publish_or_fail dir ~storer obj =
  match Directory.publish dir ~storer obj with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "publish: %a" Ntcu_routing.Route.pp_error e

let locate_finds_all_storers =
  qtest "locate returns the complete storer set from any client" arb_seed
    (fun seed ->
      let run = make_net ~seed ~n:14 ~m:8 in
      let dir = Directory.create ~lookup:(live_lookup run.net) () in
      let ids = Array.of_list (Network.ids run.net) in
      let rng = Rng.create (seed + 2) in
      let obj = List.hd (fresh_objects ~k:1 ~seed:(seed + 3) run.net) in
      let storers =
        Rng.sample_without_replacement rng 3 (Array.length ids)
        |> Array.to_list
        |> List.map (fun i -> ids.(i))
        |> sorted_ids
      in
      List.iter (fun storer -> publish_or_fail dir ~storer obj) storers;
      check (Alcotest.list Alcotest.string) "storers view"
        (List.map Id.to_string storers)
        (List.map Id.to_string (Directory.storers dir obj));
      Array.for_all
        (fun client ->
          match Directory.locate dir ~client obj with
          | Ok r ->
            List.equal Id.equal storers (sorted_ids r.Directory.all_storers)
          | Error _ -> false)
        ids)

(* ---- unpublish removes exactly that storer's pointers ---- *)

let unpublish_is_exact =
  qtest "unpublish removes exactly the one storer's pointers" arb_seed
    (fun seed ->
      let run = make_net ~seed ~n:12 ~m:8 in
      let dir = Directory.create ~lookup:(live_lookup run.net) () in
      let ids = Array.of_list (Network.ids run.net) in
      let obj = List.hd (fresh_objects ~k:1 ~seed:(seed + 3) run.net) in
      let s1 = ids.(0) and s2 = ids.(Array.length ids - 1) in
      publish_or_fail dir ~storer:s1 obj;
      publish_or_fail dir ~storer:s2 obj;
      Directory.unpublish dir ~storer:s1 obj;
      (* Idempotent. *)
      Directory.unpublish dir ~storer:s1 obj;
      let no_pointer_to_s1 =
        Array.for_all
          (fun node ->
            List.for_all
              (fun (_, storers) -> not (List.exists (Id.equal s1) storers))
              (Directory.pointers_at dir node))
          ids
      in
      no_pointer_to_s1
      && List.equal Id.equal [ s2 ] (Directory.storers dir obj)
      && Array.for_all
           (fun client ->
             match Directory.locate dir ~client obj with
             | Ok r -> List.equal Id.equal [ s2 ] (sorted_ids r.Directory.all_storers)
             | Error _ -> false)
           ids)

(* ---- maintain restores service after leaves and crashes ---- *)

let maintain_restores_p1 () =
  List.iter
    (fun seed ->
      let run = make_net ~seed ~n:18 ~m:10 in
      let net = run.Experiment.net in
      let dir = Directory.create ~lookup:(live_lookup net) () in
      let ids = Array.of_list (Network.ids net) in
      let objs = fresh_objects ~k:6 ~seed:(seed + 1) net in
      let rng = Rng.create (seed + 2) in
      List.iter
        (fun obj -> publish_or_fail dir ~storer:(Rng.pick rng ids) obj)
        objs;
      (* A batch of graceful leaves, then a batch of crashes, then repair. *)
      let doomed =
        Rng.sample_without_replacement rng 2 (Array.length ids)
        |> Array.to_list
        |> List.map (fun i -> ids.(i))
      in
      leave net doomed;
      let crashed = Recovery.fail_random net ~seed:(seed + 3) ~fraction:0.15 in
      let (_ : Recovery.report) = Recovery.repair net in
      let st = Directory.maintain dir in
      check Alcotest.int "no maintain errors" 0 st.Directory.errors;
      let gone = doomed @ crashed in
      let live =
        Array.to_list ids
        |> List.filter (fun id -> not (List.exists (Id.equal id) gone))
      in
      List.iter
        (fun obj ->
          let survivors = sorted_ids (Directory.storers dir obj) in
          (* P1 restored: every live member resolves the object to the same
             root and finds every surviving storer. *)
          List.iter
            (fun client ->
              match Directory.locate dir ~client obj with
              | Ok r ->
                check (Alcotest.list Alcotest.string)
                  (Fmt.str "client %a finds survivors of %a" Id.pp client Id.pp obj)
                  (List.map Id.to_string survivors)
                  (List.map Id.to_string (sorted_ids r.Directory.all_storers))
              | Error e ->
                Alcotest.failf "locate %a from %a: %a" Id.pp obj Id.pp client
                  Ntcu_routing.Route.pp_error e)
            live)
        objs)
    [ 11; 23 ]

(* ---- incremental maintain agrees with a full rebuild ---- *)

(* Canonical dump of every installed pointer as node/object/storer triples;
   two directories over the same membership must agree exactly. *)
let dump dir ids =
  List.concat_map
    (fun node ->
      List.concat_map
        (fun (obj, storers) ->
          List.map
            (fun s -> Fmt.str "%a/%a/%a" Id.pp node Id.pp obj Id.pp s)
            storers)
        (Directory.pointers_at dir node))
    ids
  |> List.sort String.compare

let incremental_agrees_with_full =
  qtest "incremental maintain = full rebuild on the same delta" arb_seed
    (fun seed ->
      let run = make_net ~seed ~n:16 ~m:8 in
      let net = run.Experiment.net in
      let dir_full = Directory.create ~lookup:(live_lookup net) () in
      let dir_inc = Directory.create ~lookup:(live_lookup net) () in
      let ids = Array.of_list (Network.ids net) in
      let objs = fresh_objects ~k:6 ~seed:(seed + 1) net in
      let rng = Rng.create (seed + 2) in
      List.iter
        (fun obj ->
          let storer = Rng.pick rng ids in
          publish_or_fail dir_full ~storer obj;
          publish_or_fail dir_inc ~storer obj)
        objs;
      (* One shared membership delta: a graceful leave plus a crash. *)
      let idx = Rng.sample_without_replacement rng 2 (Array.length ids) in
      leave net [ ids.(idx.(0)) ];
      Network.fail net ids.(idx.(1));
      let (_ : Recovery.report) = Recovery.repair net in
      let full = Directory.maintain_full dir_full in
      let inc = Directory.maintain dir_inc in
      check Alcotest.int "error counts agree" full.Directory.errors
        inc.Directory.errors;
      let all = Array.to_list ids in
      dump dir_full all = dump dir_inc all
      && List.for_all
           (fun obj ->
             List.equal Id.equal
               (Directory.storers dir_full obj)
               (Directory.storers dir_inc obj))
           objs)

let incremental_cheaper_on_single_leave () =
  let seed = 42 in
  let run = make_net ~seed ~n:18 ~m:10 in
  let net = run.Experiment.net in
  let dir_full = Directory.create ~lookup:(live_lookup net) () in
  let dir_inc = Directory.create ~lookup:(live_lookup net) () in
  let ids = Array.of_list (Network.ids net) in
  let objs = fresh_objects ~k:10 ~seed:(seed + 1) net in
  let rng = Rng.create (seed + 2) in
  (* Storers all survive the leave, so the full rebuild republishes every
     publication while the incremental pass touches only invalidated trails. *)
  let survivors = Array.of_list (List.filteri (fun i _ -> i <> 3) (Array.to_list ids)) in
  List.iter
    (fun obj ->
      let storer = Rng.pick rng survivors in
      publish_or_fail dir_full ~storer obj;
      publish_or_fail dir_inc ~storer obj)
    objs;
  leave net [ ids.(3) ];
  let full = Directory.maintain_full dir_full in
  let inc = Directory.maintain dir_inc in
  check Alcotest.int "full republishes everything" 10 full.Directory.republished;
  check Alcotest.bool "incremental republishes strictly less" true
    (inc.Directory.republished < full.Directory.republished);
  check Alcotest.bool "incremental drops strictly fewer pointers" true
    (inc.Directory.dropped < full.Directory.dropped);
  check Alcotest.bool "incremental spends no more publish hops" true
    (inc.Directory.publish_hops <= full.Directory.publish_hops);
  check Alcotest.bool "untouched trails were revalidated, not rebuilt" true
    (inc.Directory.revalidated > 0);
  check Alcotest.int "neither run errored" 0
    (full.Directory.errors + inc.Directory.errors)

let incremental_noop_on_unchanged_network () =
  let run = make_net ~seed:9 ~n:14 ~m:8 in
  let dir = Directory.create ~lookup:(live_lookup run.net) () in
  let ids = Array.of_list (Network.ids run.net) in
  let objs = fresh_objects ~k:7 ~seed:10 run.net in
  let rng = Rng.create 11 in
  List.iter (fun obj -> publish_or_fail dir ~storer:(Rng.pick rng ids) obj) objs;
  let st = Directory.maintain dir in
  check Alcotest.int "every trail revalidated" 7 st.Directory.revalidated;
  check Alcotest.int "nothing republished" 0 st.Directory.republished;
  check Alcotest.int "nothing dropped" 0 st.Directory.dropped;
  check Alcotest.int "no hops spent" 0 st.Directory.publish_hops;
  check Alcotest.int "no errors" 0 st.Directory.errors

(* ---- LRU hop-pointer cache ---- *)

let locate_or_fail dir ~client obj =
  match Directory.locate dir ~client obj with
  | Ok r -> r
  | Error e -> Alcotest.failf "locate: %a" Ntcu_routing.Route.pp_error e

let cache_serves_identical_results () =
  let run = make_net ~seed:13 ~n:14 ~m:8 in
  let dir = Directory.create ~cache:8 ~lookup:(live_lookup run.net) () in
  let ids = Array.of_list (Network.ids run.net) in
  let obj = List.hd (fresh_objects ~k:1 ~seed:14 run.net) in
  publish_or_fail dir ~storer:ids.(0) obj;
  publish_or_fail dir ~storer:ids.(1) obj;
  let cold = locate_or_fail dir ~client:ids.(2) obj in
  check Alcotest.bool "first locate misses" false cold.Directory.cached;
  let warm = locate_or_fail dir ~client:ids.(3) obj in
  check Alcotest.bool "second locate hits" true warm.Directory.cached;
  check Alcotest.int "cache hit is depth 0" 0 warm.Directory.first_depth;
  check (Alcotest.list Alcotest.string) "hit returns the same storer set"
    (List.map Id.to_string (sorted_ids cold.Directory.all_storers))
    (List.map Id.to_string (sorted_ids warm.Directory.all_storers));
  let st = Directory.cache_stats dir in
  check Alcotest.int "one hit" 1 st.Directory.hits;
  check Alcotest.int "one miss" 1 st.Directory.misses

let cache_evicts_at_capacity () =
  let run = make_net ~seed:15 ~n:14 ~m:8 in
  let dir = Directory.create ~cache:2 ~lookup:(live_lookup run.net) () in
  let ids = Array.of_list (Network.ids run.net) in
  let objs = fresh_objects ~k:5 ~seed:16 run.net in
  List.iter (fun obj -> publish_or_fail dir ~storer:ids.(0) obj) objs;
  List.iter (fun obj -> ignore (locate_or_fail dir ~client:ids.(1) obj)) objs;
  let st = Directory.cache_stats dir in
  check Alcotest.int "entries bounded by capacity" 2 st.Directory.entries;
  check Alcotest.bool "evictions happened" true (st.Directory.evictions > 0);
  check Alcotest.int "all cold locates missed" 5 st.Directory.misses

let cache_invalidated_by_publish () =
  let run = make_net ~seed:17 ~n:14 ~m:8 in
  let dir = Directory.create ~cache:8 ~lookup:(live_lookup run.net) () in
  let ids = Array.of_list (Network.ids run.net) in
  let obj = List.hd (fresh_objects ~k:1 ~seed:18 run.net) in
  publish_or_fail dir ~storer:ids.(0) obj;
  ignore (locate_or_fail dir ~client:ids.(1) obj);
  ignore (locate_or_fail dir ~client:ids.(2) obj);
  (* A new replica must be visible immediately — no stale cache line. *)
  publish_or_fail dir ~storer:ids.(4) obj;
  let r = locate_or_fail dir ~client:ids.(3) obj in
  check Alcotest.bool "post-publish locate is uncached" false r.Directory.cached;
  check Alcotest.bool "new storer visible" true
    (List.exists (Id.equal ids.(4)) r.Directory.all_storers);
  let st = Directory.cache_stats dir in
  check Alcotest.bool "invalidation counted" true (st.Directory.invalidations > 0)

let create_rejects_negative_capacity () =
  Alcotest.check_raises "negative cache"
    (Invalid_argument "Directory.create: cache capacity must be >= 0")
    (fun () ->
      ignore (Directory.create ~cache:(-1) ~lookup:(fun _ -> None) ()))

let suites =
  [
    ( "directory",
      [
        p1_root_agreement;
        locate_finds_all_storers;
        unpublish_is_exact;
        Alcotest.test_case "maintain restores P1 after leaves+crashes" `Quick
          maintain_restores_p1;
        incremental_agrees_with_full;
        Alcotest.test_case "incremental cheaper on single leave" `Quick
          incremental_cheaper_on_single_leave;
        Alcotest.test_case "incremental no-op on unchanged network" `Quick
          incremental_noop_on_unchanged_network;
        Alcotest.test_case "cache serves identical results" `Quick
          cache_serves_identical_results;
        Alcotest.test_case "cache evicts at capacity" `Quick cache_evicts_at_capacity;
        Alcotest.test_case "cache invalidated by publish" `Quick
          cache_invalidated_by_publish;
        Alcotest.test_case "create rejects negative capacity" `Quick
          create_rejects_negative_capacity;
      ] );
  ]

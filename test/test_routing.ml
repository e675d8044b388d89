module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Route = Ntcu_routing.Route
module Directory = Ntcu_routing.Directory
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Experiment = Ntcu_harness.Experiment
module Rng = Ntcu_std.Rng

let check = Alcotest.check

let make_net ~seed ~n ~m =
  let run = Experiment.concurrent_joins (Params.make ~b:4 ~d:6) ~seed ~n ~m () in
  Alcotest.(check int) "consistent" 0 (List.length (Lazy.force run.violations));
  run

let lookup_of run x = Option.map Node.table (Network.node run.Experiment.net x)

let routes_reach_everyone () =
  let run = make_net ~seed:5 ~n:20 ~m:20 in
  let lookup = lookup_of run in
  let ids = Network.ids run.net in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          match Route.route ~lookup ~src ~dst with
          | Ok path ->
            (match path with
            | first :: _ -> check Alcotest.bool "starts at src" true (Id.equal first src)
            | [] -> Alcotest.fail "empty path");
            let last = List.nth path (List.length path - 1) in
            check Alcotest.bool "ends at dst" true (Id.equal last dst)
          | Error e -> Alcotest.failf "route %a -> %a: %a" Id.pp src Id.pp dst Route.pp_error e)
        ids)
    (match ids with a :: b :: c :: _ -> [ a; b; c ] | l -> l)

let hops_bounded_and_monotone () =
  let run = make_net ~seed:6 ~n:30 ~m:20 in
  let lookup = lookup_of run in
  let ids = Array.of_list (Network.ids run.net) in
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let src = Rng.pick rng ids and dst = Rng.pick rng ids in
    match Route.route ~lookup ~src ~dst with
    | Ok path ->
      check Alcotest.bool "hop bound d" true (Route.hop_count path <= 6);
      (* Each hop strictly extends the common suffix with the target. *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
          Id.csuf_len b dst > Id.csuf_len a dst && monotone rest
        | [ _ ] | [] -> true
      in
      check Alcotest.bool "suffix grows per hop" true (monotone path)
    | Error e -> Alcotest.failf "route failed: %a" Route.pp_error e
  done

let self_route_is_trivial () =
  let run = make_net ~seed:7 ~n:5 ~m:5 in
  let lookup = lookup_of run in
  let x = List.hd (Network.ids run.net) in
  match Route.route ~lookup ~src:x ~dst:x with
  | Ok [ only ] -> check Alcotest.bool "self" true (Id.equal only x)
  | Ok _ -> Alcotest.fail "expected singleton path"
  | Error e -> Alcotest.failf "self route: %a" Route.pp_error e

let dead_end_detected () =
  let p = Params.make ~b:4 ~d:4 in
  let a = Id.of_string p "0000" and b = Id.of_string p "1111" in
  let ta = Ntcu_table.Table.create p ~owner:a in
  Ntcu_table.Table.fill_self ta S;
  let tables = [ (a, ta) ] in
  let lookup x = List.assoc_opt x (List.map (fun (i, t) -> (i, t)) tables) in
  match Route.route ~lookup ~src:a ~dst:b with
  | Error (Route.Dead_end _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Route.pp_error e
  | Ok _ -> Alcotest.fail "route through missing node"

let path_cost_sums () =
  let p = Params.make ~b:4 ~d:4 in
  let ids = List.map (Id.of_string p) [ "0000"; "0001"; "0011" ] in
  let dist _ _ = 2.5 in
  match ids with
  | [ a; b; c ] ->
    check (Alcotest.float 1e-9) "two hops" 5. (Route.path_cost ~dist [ a; b; c ]);
    check (Alcotest.float 1e-9) "no hop" 0. (Route.path_cost ~dist [ a ])
  | _ -> assert false

(* --- directory / object location --- *)

let directory_root_unique () =
  let run = make_net ~seed:8 ~n:25 ~m:15 in
  let lookup = lookup_of run in
  let dir = Directory.create ~lookup () in
  let ids = Array.of_list (Network.ids run.net) in
  let rng = Rng.create 11 in
  let p = Network.params run.net in
  for _ = 1 to 30 do
    let obj = Id.random rng p in
    let roots =
      List.map
        (fun from ->
          match Directory.root_of dir ~from obj with
          | Ok root -> Id.to_string root
          | Error e -> Alcotest.failf "root_of failed: %a" Route.pp_error e)
        (Array.to_list (Array.sub ids 0 8))
    in
    check Alcotest.int "all starts agree on the root (P1)" 1
      (List.length (List.sort_uniq compare roots))
  done

let publish_then_lookup () =
  let run = make_net ~seed:9 ~n:20 ~m:10 in
  let lookup = lookup_of run in
  let dir = Directory.create ~lookup () in
  let ids = Array.of_list (Network.ids run.net) in
  let rng = Rng.create 13 in
  let p = Network.params run.net in
  for _ = 1 to 20 do
    let obj = Id.random rng p in
    let storer = Rng.pick rng ids in
    (match Directory.publish dir ~storer obj with
    | Ok hops -> check Alcotest.bool "hop bound" true (hops <= 6)
    | Error e -> Alcotest.failf "publish: %a" Route.pp_error e);
    let client = Rng.pick rng ids in
    match Directory.locate dir ~client obj with
    | Ok { first_storers = storers; _ } ->
      check Alcotest.bool "storer found (P1)" true
        (List.exists (Id.equal storer) storers)
    | Error e -> Alcotest.failf "lookup: %a" Route.pp_error e
  done

let lookup_from_storer_is_local () =
  let run = make_net ~seed:10 ~n:20 ~m:10 in
  let lookup = lookup_of run in
  let dir = Directory.create ~lookup () in
  let p = Network.params run.net in
  let storer = List.hd (Network.ids run.net) in
  let obj = Id.random (Rng.create 1) p in
  (match Directory.publish dir ~storer obj with Ok _ -> () | Error _ -> Alcotest.fail "publish");
  match Directory.locate dir ~client:storer obj with
  | Ok { first_depth; _ } -> check Alcotest.int "pointer at the first node" 0 first_depth
  | Error e -> Alcotest.failf "lookup: %a" Route.pp_error e

let unpublished_reports_no_storers () =
  let run = make_net ~seed:12 ~n:10 ~m:5 in
  let lookup = lookup_of run in
  let dir = Directory.create ~lookup () in
  let p = Network.params run.net in
  let obj = Id.random (Rng.create 2) p in
  match Directory.locate dir ~client:(List.hd (Network.ids run.net)) obj with
  | Ok { first_storers; _ } ->
    check Alcotest.(list string) "none" [] (List.map Id.to_string first_storers)
  | Error e -> Alcotest.failf "lookup: %a" Route.pp_error e

let unpublish_removes () =
  let run = make_net ~seed:13 ~n:15 ~m:5 in
  let lookup = lookup_of run in
  let dir = Directory.create ~lookup () in
  let p = Network.params run.net in
  let ids = Network.ids run.net in
  let storer = List.hd ids and client = List.nth ids 3 in
  let obj = Id.random (Rng.create 3) p in
  (match Directory.publish dir ~storer obj with Ok _ -> () | Error _ -> Alcotest.fail "publish");
  Directory.unpublish dir ~storer obj;
  match Directory.locate dir ~client obj with
  | Ok { first_storers = storers; _ } -> check Alcotest.int "gone" 0 (List.length storers)
  | Error e -> Alcotest.failf "lookup: %a" Route.pp_error e

let multiple_replicas_found () =
  let run = make_net ~seed:14 ~n:25 ~m:10 in
  let lookup = lookup_of run in
  let dir = Directory.create ~lookup () in
  let p = Network.params run.net in
  let ids = Array.of_list (Network.ids run.net) in
  let obj = Id.random (Rng.create 4) p in
  let s1 = ids.(0) and s2 = ids.(1) in
  (match Directory.publish dir ~storer:s1 obj with Ok _ -> () | Error _ -> Alcotest.fail "p1");
  (match Directory.publish dir ~storer:s2 obj with Ok _ -> () | Error _ -> Alcotest.fail "p2");
  (* The root holds pointers to both replicas. *)
  match Directory.root_of dir ~from:ids.(2) obj with
  | Ok root ->
    let at_root = Directory.pointers_at dir root in
    (match List.find_opt (fun (o, _) -> Id.equal o obj) at_root with
    | Some (_, storers) -> check Alcotest.int "both replicas at root" 2 (List.length storers)
    | None -> Alcotest.fail "no pointer at root")
  | Error e -> Alcotest.failf "root: %a" Route.pp_error e

let suites =
  [
    ( "routing.route",
      [
        Alcotest.test_case "reaches everyone" `Quick routes_reach_everyone;
        Alcotest.test_case "hops bounded, suffix monotone" `Quick hops_bounded_and_monotone;
        Alcotest.test_case "self route" `Quick self_route_is_trivial;
        Alcotest.test_case "dead end" `Quick dead_end_detected;
        Alcotest.test_case "path cost" `Quick path_cost_sums;
      ] );
    ( "routing.directory",
      [
        Alcotest.test_case "root unique (P1)" `Quick directory_root_unique;
        Alcotest.test_case "publish/lookup (P1)" `Quick publish_then_lookup;
        Alcotest.test_case "local lookup short (P2)" `Quick lookup_from_storer_is_local;
        Alcotest.test_case "unpublished object" `Quick unpublished_reports_no_storers;
        Alcotest.test_case "unpublish" `Quick unpublish_removes;
        Alcotest.test_case "replicas" `Quick multiple_replicas_found;
      ] );
  ]

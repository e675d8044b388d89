module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Workload = Ntcu_harness.Workload
module Experiment = Ntcu_harness.Experiment
module Report = Ntcu_harness.Report
module Rng = Ntcu_std.Rng

let check = Alcotest.check
let p = Params.make ~b:4 ~d:5

let distinct_ids_distinct () =
  let rng = Rng.create 1 in
  let ids = Workload.distinct_ids rng p ~n:200 in
  check Alcotest.int "count" 200 (List.length ids);
  check Alcotest.int "distinct" 200
    (List.length (List.sort_uniq Id.compare ids))

let distinct_ids_avoid () =
  let rng = Rng.create 2 in
  let first = Workload.distinct_ids rng p ~n:100 in
  let second = Workload.distinct_ids ~avoid:(Id.Set.of_list first) rng p ~n:100 in
  let overlap =
    List.filter (fun id -> List.exists (Id.equal id) first) second
  in
  check Alcotest.int "no overlap" 0 (List.length overlap)

let distinct_ids_suffix () =
  let rng = Rng.create 3 in
  let ids = Workload.distinct_ids ~suffix:[| 2; 1 |] rng p ~n:30 in
  List.iter
    (fun id -> check Alcotest.bool "suffix kept" true (Id.has_suffix id [| 2; 1 |]))
    ids

let distinct_ids_space_guard () =
  let rng = Rng.create 4 in
  let tiny = Params.make ~b:2 ~d:3 in
  try
    ignore (Workload.distinct_ids rng tiny ~n:20);
    Alcotest.fail "overfull population accepted"
  with Invalid_argument _ -> ()

let split_cases () =
  check
    (Alcotest.pair (Alcotest.list Alcotest.int) (Alcotest.list Alcotest.int))
    "basic" ([ 1; 2 ], [ 3 ]) (Workload.split 2 [ 1; 2; 3 ]);
  check
    (Alcotest.pair (Alcotest.list Alcotest.int) (Alcotest.list Alcotest.int))
    "short" ([ 1 ], []) (Workload.split 5 [ 1 ])

let parse_suffix_cases () =
  let parsed = Alcotest.(result (array int) string) in
  check parsed "empty" (Ok [||]) (Workload.parse_suffix ~b:16 "");
  (* Least significant last: index 0 holds the rightmost character. *)
  check parsed "digit order" (Ok [| 10; 3 |]) (Workload.parse_suffix ~b:16 "3a");
  let rejected name r = check Alcotest.bool name true (Result.is_error r) in
  rejected "bad character" (Workload.parse_suffix ~b:16 "3-");
  rejected "digit >= b" (Workload.parse_suffix ~b:4 "9");
  rejected "letter >= b" (Workload.parse_suffix ~b:16 "zz");
  (* The parsed suffix is the textual one: generated ids end with "3a". *)
  match Workload.parse_suffix ~b:16 "3a" with
  | Error e -> Alcotest.fail e
  | Ok suffix ->
    let ids = Workload.distinct_ids ~suffix (Rng.create 5) (Params.make ~b:16 ~d:4) ~n:5 in
    List.iter
      (fun id ->
        let s = Id.to_string id in
        check Alcotest.string "textual suffix" "3a" (String.sub s (String.length s - 2) 2))
      ids

let cdf_points_cumulative () =
  let pts = Experiment.cdf_points [| 3; 1; 1; 2 |] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "cdf" [ (1, 0.5); (2, 0.75); (3, 1.0) ] pts

let join_run_reports () =
  let render () =
    Fmt.str "%a" Report.pp_join_run (Experiment.concurrent_joins p ~seed:5 ~n:10 ~m:5 ())
  in
  let s = render () in
  check Alcotest.bool "mentions consistency" true (String.length s > 40);
  (* The report carries no host timing, so a second run of the seed renders
     the same text. *)
  check Alcotest.string "rerun renders identically" s (render ())

let fig15b_small_setup () =
  (* A miniature Figure 15(b): tiny topology, tiny network, full pipeline. *)
  let setup = { Experiment.d = 8; n = 60; m = 30 } in
  let run =
    Experiment.fig15b ~routers:Ntcu_topology.Transit_stub.default_config ~seed:6 setup
  in
  check Alcotest.bool "in system" true run.all_in_system;
  check Alcotest.int "consistent" 0 (List.length (Lazy.force run.violations));
  check Alcotest.int "measured all joiners" 30 (Array.length run.join_noti)

let paper_setups_shape () =
  check Alcotest.int "four curves" 4 (List.length Experiment.paper_setups);
  List.iter
    (fun s ->
      check Alcotest.bool "paper sizes" true
        (s.Experiment.m = 1000 && (s.n = 3096 || s.n = 7192) && (s.d = 8 || s.d = 40)))
    Experiment.paper_setups

(* Regression for the bench/validate exit-status fix: [Experiment.ok] is the
   full healthy-run predicate, and it must go false on a run that is
   individually "consistent-looking" but left joiners wedged — exactly the
   runs the bench previously reported with exit 0. *)
let ok_predicate () =
  let healthy = Experiment.concurrent_joins p ~seed:7 ~n:20 ~m:10 () in
  check Alcotest.bool "healthy run is ok" true (Experiment.ok healthy);
  check Alcotest.bool "ok implies consistent" true (Experiment.consistent healthy);
  (* 20% loss with the reliable transport disabled wedges joiners: the run
     must not count as ok even though completed nodes' tables may check out. *)
  let wedged =
    Experiment.fault_injection ~reliable:false ~loss:0.2 ~crash_fraction:0.
      (Params.make ~b:4 ~d:5) ~seed:8 ~n:30 ~m:15 ()
  in
  check Alcotest.bool "some joiners wedged" true (wedged.Experiment.stuck > 0);
  check Alcotest.bool "wedged run is not ok" false (Experiment.ok wedged.Experiment.run)

let report_table_renders () =
  let s =
    Fmt.str "%a" (Report.table ~header:[ "a"; "b" ]) [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check Alcotest.bool "contains rows" true (String.length s > 10)

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "distinct ids" `Quick distinct_ids_distinct;
        Alcotest.test_case "avoid set" `Quick distinct_ids_avoid;
        Alcotest.test_case "suffix constraint" `Quick distinct_ids_suffix;
        Alcotest.test_case "space guard" `Quick distinct_ids_space_guard;
        Alcotest.test_case "split" `Quick split_cases;
        Alcotest.test_case "parse suffix" `Quick parse_suffix_cases;
        Alcotest.test_case "cdf points" `Quick cdf_points_cumulative;
        Alcotest.test_case "join-run report" `Quick join_run_reports;
        Alcotest.test_case "fig15b miniature" `Slow fig15b_small_setup;
        Alcotest.test_case "paper setups" `Quick paper_setups_shape;
        Alcotest.test_case "ok predicate" `Quick ok_predicate;
        Alcotest.test_case "report table" `Quick report_table_renders;
      ] );
  ]

module Graph = Ntcu_topology.Graph
module Transit_stub = Ntcu_topology.Transit_stub
module Distances = Ntcu_topology.Distances
module Endhosts = Ntcu_topology.Endhosts

let check = Alcotest.check

let graph_basics () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.;
  Graph.add_edge g 1 2 2.;
  check Alcotest.int "vertices" 4 (Graph.n_vertices g);
  check Alcotest.int "edges" 2 (Graph.n_edges g);
  check Alcotest.int "degree" 2 (Graph.degree g 1);
  check Alcotest.bool "disconnected (vertex 3)" false (Graph.is_connected g);
  Graph.add_edge g 2 3 1.;
  check Alcotest.bool "connected" true (Graph.is_connected g)

let graph_validation () =
  let g = Graph.create 3 in
  (try
     Graph.add_edge g 0 0 1.;
     Alcotest.fail "self-loop accepted"
   with Invalid_argument _ -> ());
  (try
     Graph.add_edge g 0 5 1.;
     Alcotest.fail "bad endpoint accepted"
   with Invalid_argument _ -> ());
  try
    Graph.add_edge g 0 1 0.;
    Alcotest.fail "zero weight accepted"
  with Invalid_argument _ -> ()

let dijkstra_line () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.;
  Graph.add_edge g 1 2 2.;
  Graph.add_edge g 2 3 3.;
  Graph.add_edge g 0 3 10.;
  let d = Graph.dijkstra g 0 in
  check (Alcotest.float 1e-9) "d(0,0)" 0. d.(0);
  check (Alcotest.float 1e-9) "d(0,2)" 3. d.(2);
  check (Alcotest.float 1e-9) "shortcut beats direct" 6. d.(3)

let dijkstra_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.;
  let d = Graph.dijkstra g 0 in
  check Alcotest.bool "unreachable is infinite" true (d.(2) = infinity)

let transit_stub_shape () =
  let c = Transit_stub.default_config in
  let t = Transit_stub.generate ~seed:3 c in
  let g = Transit_stub.graph t in
  check Alcotest.int "router count" (Transit_stub.router_count c) (Graph.n_vertices g);
  check Alcotest.bool "connected" true (Graph.is_connected g);
  check Alcotest.int "transit routers"
    (c.transit_domains * c.transit_routers_per_domain)
    (Array.length (Transit_stub.transit_routers t));
  Array.iter
    (fun r -> check Alcotest.bool "flagged transit" true (Transit_stub.is_transit t r))
    (Transit_stub.transit_routers t);
  Array.iter
    (fun r -> check Alcotest.bool "flagged stub" false (Transit_stub.is_transit t r))
    (Transit_stub.stub_routers t)

let transit_stub_deterministic () =
  let c = Transit_stub.default_config in
  let a = Transit_stub.generate ~seed:9 c and b = Transit_stub.generate ~seed:9 c in
  let da = Graph.dijkstra (Transit_stub.graph a) 0 in
  let db = Graph.dijkstra (Transit_stub.graph b) 0 in
  check (Alcotest.array (Alcotest.float 1e-12)) "same distances" da db

let scaled_config_size () =
  check Alcotest.int "scaled router count" 2048
    (Transit_stub.router_count Transit_stub.scaled_config);
  check Alcotest.int "paper router count" 8320
    (Transit_stub.router_count Transit_stub.paper_config)

let distances_symmetric () =
  let t = Transit_stub.generate ~seed:4 Transit_stub.default_config in
  let d = Transit_stub.distances t in
  let pairs = [ (0, 17); (3, 44); (12, 80) ] in
  List.iter
    (fun (u, v) ->
      check (Alcotest.float 1e-9) "symmetric" (Distances.distance d u v)
        (Distances.distance d v u))
    pairs;
  check (Alcotest.float 1e-9) "self distance" 0. (Distances.distance d 5 5)

let endhosts_distances () =
  let t = Transit_stub.generate ~seed:4 Transit_stub.default_config in
  let hosts = Endhosts.attach ~seed:7 t ~n:20 in
  check Alcotest.int "host count" 20 (Endhosts.count hosts);
  for a = 0 to 4 do
    for b = 0 to 4 do
      let dab = Endhosts.distance hosts a b and dba = Endhosts.distance hosts b a in
      check (Alcotest.float 1e-9) "symmetric" dab dba;
      if a = b then check (Alcotest.float 1e-9) "self" 0. dab
      else check Alcotest.bool "positive" true (dab > 0.)
    done
  done

let endhosts_attach_to_stubs () =
  let t = Transit_stub.generate ~seed:4 Transit_stub.default_config in
  let hosts = Endhosts.attach ~seed:7 t ~n:50 in
  for h = 0 to 49 do
    check Alcotest.bool "attached to stub router" false
      (Transit_stub.is_transit t (Endhosts.router_of hosts h))
  done

let endhosts_latency_positive () =
  let t = Transit_stub.generate ~seed:4 Transit_stub.default_config in
  let hosts = Endhosts.attach ~seed:7 t ~n:10 in
  let l = Endhosts.latency ~jitter:0.1 ~seed:2 hosts in
  for _ = 1 to 50 do
    check Alcotest.bool "positive latency" true
      (Ntcu_sim.Latency.sample l ~src:1 ~dst:7 > 0.)
  done

let triangle_inequality_sampled () =
  let t = Transit_stub.generate ~seed:12 Transit_stub.default_config in
  let d = Transit_stub.distances t in
  let rng = Ntcu_std.Rng.create 3 in
  let n = Graph.n_vertices (Transit_stub.graph t) in
  for _ = 1 to 100 do
    let a = Ntcu_std.Rng.int rng n
    and b = Ntcu_std.Rng.int rng n
    and c = Ntcu_std.Rng.int rng n in
    let ab = Distances.distance d a b
    and bc = Distances.distance d b c
    and ac = Distances.distance d a c in
    if ac > ab +. bc +. 1e-6 then
      Alcotest.failf "triangle violated: d(%d,%d)=%f > %f" a c ac (ab +. bc)
  done

let suites =
  [
    ( "topology",
      [
        Alcotest.test_case "graph basics" `Quick graph_basics;
        Alcotest.test_case "graph validation" `Quick graph_validation;
        Alcotest.test_case "dijkstra" `Quick dijkstra_line;
        Alcotest.test_case "dijkstra unreachable" `Quick dijkstra_unreachable;
        Alcotest.test_case "transit-stub shape" `Quick transit_stub_shape;
        Alcotest.test_case "generator determinism" `Quick transit_stub_deterministic;
        Alcotest.test_case "config sizes" `Quick scaled_config_size;
        Alcotest.test_case "distances" `Quick distances_symmetric;
        Alcotest.test_case "endhost distances" `Quick endhosts_distances;
        Alcotest.test_case "endhosts on stubs" `Quick endhosts_attach_to_stubs;
        Alcotest.test_case "latency model" `Quick endhosts_latency_positive;
        Alcotest.test_case "triangle inequality" `Quick triangle_inequality_sampled;
      ] );
  ]

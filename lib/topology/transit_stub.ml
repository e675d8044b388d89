module Rng = Ntcu_std.Rng

type config = {
  transit_domains : int;
  transit_routers_per_domain : int;
  stubs_per_transit_router : int;
  routers_per_stub : int;
  extra_edge_prob_transit : float;
  extra_edge_prob_stub : float;
  extra_interdomain_edges : int;
}

let default_config =
  {
    transit_domains = 2;
    transit_routers_per_domain = 4;
    stubs_per_transit_router = 2;
    routers_per_stub = 5;
    extra_edge_prob_transit = 0.3;
    extra_edge_prob_stub = 0.2;
    extra_interdomain_edges = 1;
  }

let paper_config =
  {
    transit_domains = 4;
    transit_routers_per_domain = 8;
    stubs_per_transit_router = 7;
    routers_per_stub = 37;
    extra_edge_prob_transit = 0.3;
    extra_edge_prob_stub = 0.05;
    extra_interdomain_edges = 4;
  }

let scaled_config =
  {
    transit_domains = 4;
    transit_routers_per_domain = 8;
    stubs_per_transit_router = 7;
    routers_per_stub = 9;
    extra_edge_prob_transit = 0.3;
    extra_edge_prob_stub = 0.1;
    extra_interdomain_edges = 4;
  }

let router_count c =
  let transit = c.transit_domains * c.transit_routers_per_domain in
  transit + (transit * c.stubs_per_transit_router * c.routers_per_stub)

type t = {
  graph : Graph.t;
  transit_routers : int array;
  stub_routers : int array;
  transit_flags : bool array;
  cluster_of : int array; (* stub-cluster id per router; -1 for transit *)
}

(* Latency ranges (milliseconds) per link class, in the spirit of GT-ITM
   weight assignment: local links fast, wide-area links slow. *)
let intra_stub_weight rng = 1. +. Rng.float rng 4.
let stub_transit_weight rng = 10. +. Rng.float rng 10.
let intra_transit_weight rng = 20. +. Rng.float rng 30.
let inter_domain_weight rng = 50. +. Rng.float rng 50.

(* Wire up [vertices] as a random connected subgraph: random spanning tree
   (each vertex links to a uniformly chosen predecessor) plus extra random
   edges with probability [extra_prob] per unordered pair. *)
let connect_random rng graph vertices ~extra_prob ~weight =
  let k = Array.length vertices in
  for i = 1 to k - 1 do
    let j = Rng.int rng i in
    Graph.add_edge graph vertices.(i) vertices.(j) (weight rng)
  done;
  if extra_prob > 0. then
    for i = 0 to k - 1 do
      for j = i + 2 to k - 1 do
        (* i+2: pairs (i, i+1) may already be tree edges; skipping them merely
           biases which extra edges appear, never correctness. *)
        if Rng.float rng 1. < extra_prob then
          Graph.add_edge graph vertices.(i) vertices.(j) (weight rng)
      done
    done

let generate ~seed config =
  let rng = Rng.create seed in
  let c = config in
  if c.transit_domains < 1 || c.transit_routers_per_domain < 1 then
    invalid_arg "Transit_stub.generate: need at least one transit router";
  if c.stubs_per_transit_router < 0 || c.routers_per_stub < 1 then
    invalid_arg "Transit_stub.generate: bad stub shape";
  let total = router_count c in
  let graph = Graph.create total in
  let transit_flags = Array.make total false in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  (* Transit routers come first, then stub routers. *)
  let domains =
    Array.init c.transit_domains (fun _ ->
        Array.init c.transit_routers_per_domain (fun _ ->
            let v = fresh () in
            transit_flags.(v) <- true;
            v))
  in
  Array.iter
    (fun domain ->
      connect_random rng graph domain ~extra_prob:c.extra_edge_prob_transit
        ~weight:intra_transit_weight)
    domains;
  (* Spanning tree over domains, then extra inter-domain edges. *)
  for i = 1 to c.transit_domains - 1 do
    let j = Rng.int rng i in
    Graph.add_edge graph (Rng.pick rng domains.(i)) (Rng.pick rng domains.(j))
      (inter_domain_weight rng)
  done;
  for _ = 1 to c.extra_interdomain_edges do
    if c.transit_domains > 1 then begin
      let i = Rng.int rng c.transit_domains in
      let j = Rng.int rng c.transit_domains in
      if i <> j then
        Graph.add_edge graph (Rng.pick rng domains.(i)) (Rng.pick rng domains.(j))
          (inter_domain_weight rng)
    end
  done;
  (* Stub domains: a connected cluster per (transit router, stub index), tied
     to its transit router by one gateway edge. Each cluster gets a distinct
     id in [cluster_of] (transit routers keep -1), which is exactly the
     single-gateway clustering that [Distances.create_clustered] exploits. *)
  let stub_routers = ref [] in
  let cluster_of = Array.make total (-1) in
  let next_cluster = ref 0 in
  Array.iter
    (fun domain ->
      Array.iter
        (fun transit_router ->
          for _ = 1 to c.stubs_per_transit_router do
            let cid = !next_cluster in
            incr next_cluster;
            let stub =
              Array.init c.routers_per_stub (fun _ ->
                  let v = fresh () in
                  stub_routers := v :: !stub_routers;
                  cluster_of.(v) <- cid;
                  v)
            in
            connect_random rng graph stub ~extra_prob:c.extra_edge_prob_stub
              ~weight:intra_stub_weight;
            Graph.add_edge graph (Rng.pick rng stub) transit_router
              (stub_transit_weight rng)
          done)
        domain)
    domains;
  assert (!next = total);
  let t =
    {
      graph;
      transit_routers = Array.concat (Array.to_list domains);
      stub_routers = Array.of_list (List.rev !stub_routers);
      transit_flags;
      cluster_of;
    }
  in
  assert (Graph.is_connected graph);
  t

let graph t = t.graph

let transit_routers t = t.transit_routers

let stub_routers t = t.stub_routers

let is_transit t v = t.transit_flags.(v)

let cluster_assignment t = t.cluster_of

let distances t = Distances.create_clustered t.graph ~cluster:t.cluster_of

let pp_summary ppf t =
  Fmt.pf ppf "transit-stub topology: %d routers (%d transit, %d stub), %d links"
    (Graph.n_vertices t.graph)
    (Array.length t.transit_routers)
    (Array.length t.stub_routers)
    (Graph.n_edges t.graph)

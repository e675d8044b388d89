(** GT-ITM-style transit-stub topology generator.

    The paper's simulations use the GT-ITM package (Calvert, Doar, Zegura) to
    generate router topologies with 8320 routers, to which end-hosts are
    attached. GT-ITM is not available here, so this module generates graphs
    with the same three-level structure: transit domains of transit routers,
    with stub domains hanging off each transit router. Edge weights model
    one-way link latencies in milliseconds, with intra-stub links fastest and
    inter-domain links slowest. *)

type config = {
  transit_domains : int;
  transit_routers_per_domain : int;
  stubs_per_transit_router : int;
  routers_per_stub : int;
  extra_edge_prob_transit : float;
      (** Probability of each extra intra-transit-domain edge beyond the
          spanning tree. *)
  extra_edge_prob_stub : float;
  extra_interdomain_edges : int;
      (** Additional random transit-transit edges across domains, beyond the
          spanning tree over domains. *)
}

val default_config : config
(** A small topology (88 routers) for tests and examples. *)

val paper_config : config
(** 8320 routers, matching the paper's simulations: 4 transit domains x 8
    transit routers, 7 stubs per transit router x 37 routers. *)

val scaled_config : config
(** 2048 routers with the same shape, a quarter of the paper's; the
    default for benchmarks. *)

val router_count : config -> int

type t

val generate : seed:int -> config -> t
(** Deterministic in [seed]. The result is always connected. *)

val graph : t -> Graph.t

val transit_routers : t -> int array

val stub_routers : t -> int array
(** End-hosts attach to these. *)

val is_transit : t -> int -> bool

val cluster_assignment : t -> int array
(** Stub-cluster id per router ([-1] for transit routers). Each cluster is
    internally connected and attached to the transit core by exactly one
    gateway edge. Do not mutate. *)

val distances : t -> Distances.t
(** A {!Distances.t} over this topology's graph and clustering: its
    queries fold along shortest-path trees built once over the core and
    each cluster. *)

val pp_summary : t Fmt.t

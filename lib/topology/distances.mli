(** Shortest-path distances between routers of a transit-stub topology,
    bit-identical to [Graph.dijkstra].

    There is one mode, for topologies where every stub cluster hangs off the
    transit core by one gateway edge. A shortest path then crosses at most three
    segments: the source's cluster up to its gateway, the core, and the
    target's cluster down from its gateway. {!create_clustered} builds,
    once, a shortest-path tree over the core rooted at each core router and
    one per cluster rooted at its gateway, each kept as parent and
    parent-edge-weight arrays. A query folds [+.] from [0.] along at most
    three tree paths plus the two gateway edges, with no heap, hashtable or
    per-source state, so the three per-source counters of {!stats}
    ([state_hits], [state_misses], [evictions]) always read [0]. Memory is
    quadratic in the core routers and linear in the rest.

    All answers are {e bit-identical} to a full-graph [Graph.dijkstra] from
    [min u v], so simulation traces cannot shift by even one ulp.
    Dijkstra's computed distance is the minimum over paths of the
    left-folded [+.] sum, because [+.] of a positive weight is monotone and
    never decreases. Early termination only stops after that minimum is
    final. A path that detours through a foreign cluster enters and leaves
    it by the same gateway edge, so it is dominated and the segment
    decomposition never changes the minimum. Since the fold is monotone in
    its start value, the minimum over whole paths is the minimum within
    each segment in turn, each started from the previous segment's result.

    A tree answers for its segment only if it is robust: every non-tree
    edge [(q -> v)] of the segment has [D(q) +. w >= D(v) +. margin], where
    [D] is the tree's root distance and [margin = n * W * 2^-48] ([n]
    routers, [W] total edge weight). A fold over at most [n] edges with
    partial sums below [W] rounds by at most [n * W * 2^-53], and the
    margin exceeds, more than six times over, the four such errors of the
    two root distances the check reads and the two folds it separates. So
    every other path of the segment is longer than the tree path by more
    than any fold can round, and the tree path's fold is the strict
    minimum for every start value, in either direction. Pairs in the
    same cluster, and segments whose tree fails the check (real-valued ties
    such as [0.1 +. 0.2] against [0.3] do), run a small Dijkstra over that
    one cluster or the core, seeded with the fold's current value, which is
    exact by the same monotonicity argument.

    A [t] carries single-domain mutable counters: {!distance} raises
    [Invalid_argument] when called from a domain other than the one that
    created the [t]. Parallel experiment harnesses ({!Ntcu_std.Parallel})
    must construct a per-run [t]; {!stats} stays callable from anywhere. *)

type t

val create_clustered : Graph.t -> cluster:int array -> t
(** [create_clustered graph ~cluster] uses the transit-stub decomposition.
    [cluster.(v)] is [v]'s stub-cluster id, or [-1] for transit (core)
    routers. Requires — and verifies — that no edge joins two distinct
    clusters and that each cluster is attached to the core by exactly one
    edge; otherwise the decomposition would be wrong and
    [Invalid_argument] is raised. *)

val distance : t -> int -> int -> float
(** Shortest-path distance between two routers; [infinity] if disconnected.
    Symmetry is exploited by always working from the smaller endpoint.
    @raise Invalid_argument when called from a domain other than the
    creator's (the counters are single-domain mutable state). *)

type stats = {
  queries : int;  (** [distance] calls with [u <> v]. *)
  settled_hits : int;  (** Queries answered by tree folds alone. *)
  state_hits : int;
  state_misses : int;
  evictions : int;
      (** [state_hits], [state_misses] and [evictions] would count a
          per-source cache, which this module does not keep: they are always
          [0]. They stay because the benchmark's reports read them. *)
  pops : int;
      (** Heap pops of the Dijkstra work done by queries (cost proxy): the
          same-cluster and fragile-segment Dijkstras (building the trees is
          not counted). *)
}

val stats : t -> stats

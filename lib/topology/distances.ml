module Pq = Ntcu_std.Pqueue

type stats = {
  queries : int;
  settled_hits : int;
  state_hits : int;
  state_misses : int;
  evictions : int;
  pops : int;
}

(* ---- shortest-path trees over the segments ----

   Every stub cluster hangs off the transit core by exactly one gateway edge
   and clusters never touch each other, so a shortest path crosses at most
   three segments: its source's cluster up to the gateway, the core, and
   the target's cluster down from its gateway. Each segment keeps its own
   vertex indexing: core slots for the core, local indices for a cluster. *)

(* A shortest-path tree over one segment. Vertices the root does not reach
   hang off it by an infinite edge, so every fold through them gives
   [infinity]. *)
type tree = {
  parent : int array; (* next vertex toward the root; the root is its own *)
  weight : float array; (* weight of the edge to [parent] *)
}

type t = {
  cluster : int array; (* cluster id per vertex; -1 = core (transit) *)
  index : int array; (* vertex -> core slot, or index within its cluster *)
  core_adj : (int * float) list array; (* core slot -> core-slot edges *)
  cadj : (int * float) list array array; (* cluster -> local -> intra edges *)
  gw_slot : int array; (* cluster -> core slot of its transit router *)
  gw_local : int array; (* cluster -> local index of its gateway vertex *)
  gw_weight : float array; (* cluster -> gateway edge weight *)
  core_trees : tree option array; (* core slot r -> tree rooted at r *)
  cluster_trees : tree option array; (* cluster -> tree rooted at its gateway *)
  owner : Domain.id; (* creating domain; queries from any other raise *)
  mutable queries : int;
  mutable settled_hits : int;
  mutable pops : int;
}

(* Dijkstra over one segment's adjacency from [src] started at [x0], stopped
   once [target] is settled ([-1] runs to exhaustion). Besides the distances
   it returns the tree of last improving edges, in which
   [dist.(v) = dist.(parent.(v)) +. weight.(v)] for every reached [v], and
   its number of heap pops. *)
let sweep adj src x0 ~target =
  let n = Array.length adj in
  let dist = Array.make n infinity in
  let tree = { parent = Array.make n src; weight = Array.make n infinity } in
  let queue = Pq.create () in
  dist.(src) <- x0;
  Pq.push queue x0 src;
  let pops = ref 0 and continue = ref true in
  while !continue do
    match Pq.pop queue with
    | None -> continue := false
    | Some (du, u) ->
      incr pops;
      if u = target then continue := false
      else if du <= dist.(u) then
        List.iter
          (fun (v, w) ->
            let alt = du +. w in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              tree.parent.(v) <- u;
              tree.weight.(v) <- w;
              Pq.push queue alt v
            end)
          adj.(u)
  done;
  (dist, tree, !pops)

(* The tree of the segment [adj] rooted at [root], kept only if it is
   robust: every non-tree edge [q -> v] has [D(q) +. w >= D(v) +. margin].
   Its paths are then shorter than every other path by more than the
   rounding of any fold, so a fold along one, from any start value and in
   either direction, is the minimum over all paths of the segment. *)
let robust_tree adj root margin =
  let dist, tree, _ = sweep adj root 0. ~target:(-1) in
  let on_tree q v w =
    (tree.parent.(v) = q && tree.weight.(v) = w)
    || (tree.parent.(q) = v && tree.weight.(q) = w)
  in
  let robust = ref true in
  Array.iteri
    (fun q edges ->
      List.iter
        (fun (v, w) ->
          if (not (on_tree q v w)) && dist.(q) +. w < dist.(v) +. margin then
            robust := false)
        edges)
    adj;
  if !robust then Some tree else None

(* Verify the transit-stub invariant — the decomposition is silently wrong
   without it — index every vertex within its segment in the same pass, and
   build the trees. *)
let create_clustered graph ~cluster =
  let n = Graph.n_vertices graph in
  if Array.length cluster <> n then
    invalid_arg "Distances.create_clustered: cluster array size mismatch";
  let n_clusters = Array.fold_left (fun acc c -> max acc (c + 1)) 0 cluster in
  (* Segment [c + 1] is cluster [c]; segment 0 is the core. *)
  let size = Array.make (n_clusters + 1) 0 in
  let index =
    Array.map
      (fun c ->
        let i = size.(c + 1) in
        size.(c + 1) <- i + 1;
        i)
      cluster
  in
  let adj = Array.map (fun k -> Array.make k []) size in
  let gw_slot = Array.make n_clusters (-1) in
  let gw_local = Array.make n_clusters (-1) in
  let gw_weight = Array.make n_clusters 0. in
  let total = ref 0. in
  for u = n - 1 downto 0 do
    let cu = cluster.(u) in
    List.iter
      (fun (v, w) ->
        let cv = cluster.(v) in
        if u < v then total := !total +. w;
        if cu = cv then
          adj.(cu + 1).(index.(u)) <- (index.(v), w) :: adj.(cu + 1).(index.(u))
        else if cu >= 0 && cv >= 0 then
          invalid_arg "Distances.create_clustered: edge between distinct clusters"
        else if cu >= 0 then begin
          (* Gateway edge, seen once from its stub endpoint. *)
          if gw_local.(cu) >= 0 then
            invalid_arg
              (Printf.sprintf
                 "Distances.create_clustered: cluster %d has several core links (need 1)"
                 cu);
          gw_slot.(cu) <- index.(v);
          gw_local.(cu) <- index.(u);
          gw_weight.(cu) <- w
        end)
      (Graph.neighbors graph u)
  done;
  Array.iteri
    (fun c gw ->
      if gw < 0 && size.(c + 1) > 0 then
        invalid_arg
          (Printf.sprintf "Distances.create_clustered: cluster %d has no core link" c))
    gw_local;
  (* [n * W * 2^-53] bounds the rounding of a fold over at most [n] edges
     whose partial sums stay below the total edge weight [W]. The check
     must cover little more than four such errors (the two root distances
     it reads, the two folds it separates); the margin is 32 of them. *)
  let margin = Float.ldexp (float_of_int n *. !total) (-48) in
  let core_adj = adj.(0) and cadj = Array.sub adj 1 n_clusters in
  {
    cluster;
    index;
    core_adj;
    cadj;
    gw_slot;
    gw_local;
    gw_weight;
    core_trees = Array.init size.(0) (fun r -> robust_tree core_adj r margin);
    cluster_trees =
      Array.mapi
        (fun c gw -> if gw < 0 then None else robust_tree cadj.(c) gw margin)
        gw_local;
    owner = Domain.self ();
    queries = 0;
    settled_hits = 0;
    pops = 0;
  }

(* [x] folded along the tree path from [v] up to the root. *)
let rec fold_up tree x v =
  let p = tree.parent.(v) in
  if p = v then x else fold_up tree (x +. tree.weight.(v)) p

(* [x] folded along the tree path from the root down to [v]. *)
let rec fold_down tree x v =
  let p = tree.parent.(v) in
  if p = v then x else fold_down tree x p +. tree.weight.(v)

(* [x] carried along the shortest path from [a] to [b] within one segment:
   folded along [tree], rooted at [a] when [down] and at [b] otherwise, if
   the tree is robust; else by a Dijkstra over the segment started at [x]. *)
let leg t adj tree x a b ~down =
  if a = b then x
  else
    match tree with
    | Some tree -> if down then fold_down tree x b else fold_up tree x a
    | None ->
      let dist, _, pops = sweep adj a x ~target:b in
      t.pops <- t.pops + pops;
      dist.(b)

(* The same [+.] sequence a full-graph Dijkstra from [src] takes: up to the
   source's gateway, across the core, down from the target's gateway. *)
let folded_distance t src dst =
  let pops = t.pops in
  let cs = t.cluster.(src) and cd = t.cluster.(dst) in
  let i = t.index.(src) and j = t.index.(dst) in
  let d =
    (* A path between two routers of one cluster never leaves it. *)
    if cs >= 0 && cs = cd then leg t t.cadj.(cs) None 0. i j ~down:false
    else begin
      let x =
        if cs < 0 then 0.
        else
          leg t t.cadj.(cs) t.cluster_trees.(cs) 0. i t.gw_local.(cs) ~down:false
          +. t.gw_weight.(cs)
      in
      let k = if cs < 0 then i else t.gw_slot.(cs) in
      let kd = if cd < 0 then j else t.gw_slot.(cd) in
      let x = leg t t.core_adj t.core_trees.(kd) x k kd ~down:false in
      if cd < 0 then x
      else
        leg t t.cadj.(cd) t.cluster_trees.(cd) (x +. t.gw_weight.(cd)) t.gw_local.(cd) j
          ~down:true
    end
  in
  if t.pops = pops then t.settled_hits <- t.settled_hits + 1;
  d

(* The counters are mutated by every query, so cross-domain use would
   corrupt them silently. Parallel harnesses must construct (or be handed) a
   per-run [t]. *)
let distance t u v =
  (* Domain.id is a private int; compare through the coercion (cf. Engine). *)
  if (Domain.self () :> int) <> (t.owner :> int) then
    invalid_arg "Distances.distance: queried from a domain other than its creator";
  if u = v then 0.
  else begin
    t.queries <- t.queries + 1;
    folded_distance t (min u v) (max u v)
  end

(* No per-source state is kept, so the state and eviction counts stay 0. *)
let stats t =
  {
    queries = t.queries;
    settled_hits = t.settled_hits;
    state_hits = 0;
    state_misses = 0;
    evictions = 0;
    pops = t.pops;
  }

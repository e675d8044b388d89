(** PRR-style replicated-object directory.

    Objects live in the same ID space as nodes. Each object has a unique
    {e root} node, found by surrogate routing: resolve the object's digits
    right-to-left; when the required entry is empty at some level, determinis-
    tically fall back to the next filled digit at that level. In a consistent
    network the digit choices depend only on which suffixes exist, so every
    start node reaches the same root (property P1).

    A node that stores a copy {e publishes} it by walking to the root and
    leaving a location pointer at every hop. A query walks towards the root
    and is redirected by the first pointer it meets — queries for nearby
    copies tend to hit a pointer early, which is how PRR bounds access cost
    (property P2). This layer reproduces the paper's background Section 2 and
    PRR's directory semantics; it is kept outside the join protocol.

    The directory's only state is the {e trail} of every (object, storer)
    publication, the path along which it left pointers. The pointers at node
    [X] for object [o] are exactly the storers whose trail for [o] passes
    through [X], so they are read off the trails; no per-node index is kept.
    Query results can be memoized in a bounded LRU hop-pointer cache (see
    {!create}). *)

type t

val create : ?cache:int -> lookup:(Ntcu_id.Id.t -> Ntcu_table.Table.t option) -> unit -> t
(** [lookup] resolves node IDs to their (consistent) neighbor tables; the
    table it returns for an ID is the one that ID owns.
    [?cache] (default [0] = disabled) bounds the LRU hop-pointer cache used
    by {!locate}: a capacity of [k] keeps the [k] most recently queried
    objects' storer sets and answers repeat queries at depth 0. Entries are
    invalidated by {!publish}/{!unpublish}/{!maintain} of the same object, so
    a hit always returns what a full walk would.
    @raise Invalid_argument if [cache < 0]. *)

val root_path : t -> from:Ntcu_id.Id.t -> Ntcu_id.Id.t -> (Ntcu_id.Id.t list, Route.error) result
(** Surrogate-routing path from a node to the object's root, both inclusive.
    The walk allocates only the path. *)

val root_of : t -> from:Ntcu_id.Id.t -> Ntcu_id.Id.t -> (Ntcu_id.Id.t, Route.error) result

val publish : t -> storer:Ntcu_id.Id.t -> Ntcu_id.Id.t -> (int, Route.error) result
(** [publish t ~storer obj] records that [storer] holds a copy of [obj] and
    installs location pointers along the path to the root, retracting any
    previous trail this storer had for the object first. Returns the number
    of pointer-installation hops. *)

val unpublish : t -> storer:Ntcu_id.Id.t -> Ntcu_id.Id.t -> unit
(** Remove exactly the storer's pointers for the object — the trail recorded
    by its last {!publish} (object deletion, PRR directory maintenance). *)

val storers : t -> Ntcu_id.Id.t -> Ntcu_id.Id.t list
(** Storers with a live trail for the object, ascending Id order. *)

type locate_result = {
  all_storers : Ntcu_id.Id.t list;
      (** Union of every pointer met on the full walk to the root, ascending
          Id order. The root carries every trail, so on a maintained
          directory this is the complete surviving replica set. *)
  first_storers : Ntcu_id.Id.t list;
      (** Copies listed at the first pointer hit, ascending Id order (equals
          [all_storers] on a cache hit; [[]] if the object is
          unpublished). *)
  first_node : Ntcu_id.Id.t;
      (** First pointer node ([client] on a cache hit; the root if no
          pointer was found). *)
  first_depth : int;  (** Hops from the client to [first_node]; 0 on a hit. *)
  path : Ntcu_id.Id.t list;  (** Full walked path ([[client]] on a hit). *)
  cached : bool;
}

val locate : t -> client:Ntcu_id.Id.t -> Ntcu_id.Id.t -> (locate_result, Route.error) result
(** The query path: walk the whole surrogate path to the root, recording
    the first pointer hit (P2 depth) {e and} the union of all storers seen
    (completeness). Without a cache, the [first_*] fields and the first
    [first_depth + 1] nodes of [path] are PRR's first-hit answer. When the
    directory was created with a cache, a hit short-circuits the walk at
    depth 0; misses populate the cache (objects with no storers are not
    cached). *)

val pointers : t -> (Ntcu_id.Id.t * Ntcu_id.Id.t list) list Ntcu_id.Id.Map.t
(** Every node's [(object, storers)] pointers, built in one pass over the
    trails, objects and storers in ascending Id order (directory load; P3).
    Nodes holding no pointer are absent. *)

val published_objects : t -> Ntcu_id.Id.t list
(** Objects with at least one trail, ascending Id order. *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;  (** Currently cached objects. *)
  capacity : int;  (** 0 when the cache is disabled. *)
}

val cache_stats : t -> cache_stats
(** Counters of the hop-pointer cache (all zero when disabled). *)

type maintain_stats = {
  objects : int;  (** Objects tracked when maintenance began. *)
  republished : int;  (** Objects with at least one trail rebuilt. *)
  dropped : int;  (** Pointer entries removed (a trail's distinct nodes). *)
  publish_hops : int;  (** Pointer-installation hops walked republishing. *)
  revalidated : int;
      (** Trails found intact and left in place (0 for {!maintain_full}). *)
  errors : int;  (** (object, storer) republications that failed. *)
  first_error : Route.error option;
}

val maintain : t -> maintain_stats
(** Directory maintenance after membership changes (PRR maintains its
    directory dynamically as nodes and objects come and go): object roots may
    have moved, old pointer trails may no longer lie on current query paths,
    and storers or pointer hosts may have departed.

    Each recorded trail is revalidated: trails of departed storers are
    retracted, trails whose surrogate path is unchanged are kept untouched
    ([revalidated]), and only invalidated trails are retracted and
    republished over the current tables.

    Queries issued after [maintain] find every surviving replica again (P1
    restored). Republication failures on still-inconsistent tables are
    counted in [errors] (first one kept in [first_error]); the rest of the
    pass still runs. *)

val maintain_full : t -> maintain_stats
(** The reference {!maintain} is checked against: drop every pointer and
    republish every object from its surviving storers. It reaches the same
    directory (asserted by the property suite) with strictly more work when
    most of it is unaffected by the membership delta; [revalidated] is
    always 0. *)

(** Workload generation: node populations for experiments. *)

val distinct_ids :
  ?suffix:int array ->
  ?avoid:Ntcu_id.Id.Set.t ->
  Ntcu_std.Rng.t ->
  Ntcu_id.Params.t ->
  n:int ->
  Ntcu_id.Id.t list
(** [n] distinct random identifiers, optionally all ending with [suffix]
    (adversarial dependent-join workloads) and avoiding a given set.
    @raise Invalid_argument if the constrained ID space is too small. *)

val non_gateways :
  seed:int -> Ntcu_id.Id.t list -> gateways:Ntcu_id.Id.t list -> int -> Ntcu_id.Id.t list
(** [non_gateways ~seed seeds ~gateways k]: the first [k] (at most all) of
    the seeds no joiner uses as gateway, shuffled by [Rng.create (seed + 5)].
    A workload's crash victims and leavers: a gateway gone before its
    joiner's first reply violates the paper's assumption (ii). *)

val host_distance :
  Ntcu_topology.Endhosts.t -> Ntcu_id.Id.t list -> Ntcu_id.Id.t -> Ntcu_id.Id.t -> float
(** [host_distance hosts ids a b]: the end-host distance between [a] and [b],
    the [i]-th of [ids] sitting on host [i] (registration order). The index
    is built once per [host_distance hosts ids]. *)

val parse_suffix : b:int -> string -> (int array, string) result
(** Parse a digit string such as ["3a"]: digits [0-9a-z] (values 0-35), each
    below [b], least significant last. Index 0 of the result is the least
    significant digit, as [distinct_ids ~suffix] expects; [""] is the empty
    suffix. [Error] names the offending character. *)

val split : int -> 'a list -> 'a list * 'a list
(** [split k l] is [(first k elements, rest)]. *)

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

val parse_suffix : b:int -> string -> (int array, string) result
(** Parse a digit string such as ["3a"]: digits [0-9a-z] (values 0-35), each
    below [b], least significant last. Index 0 of the result is the least
    significant digit, as [distinct_ids ~suffix] expects; [""] is the empty
    suffix. [Error] names the offending character. *)

val split : int -> 'a list -> 'a list * 'a list
(** [split k l] is [(first k elements, rest)]. *)

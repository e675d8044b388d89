(** Consistency checking (paper, Definition 3.8) and reachability
    (Definition 3.7, Lemma 3.1).

    A network [<V, N(V)>] is consistent iff every table entry is (a) filled
    whenever some node carries the entry's required suffix — false-negative
    freedom — and (b) empty whenever no such node exists — false-positive
    freedom. *)

type violation =
  | False_negative of {
      node : Ntcu_id.Id.t;
      level : int;
      digit : int;
      witness : Ntcu_id.Id.t;
          (** A network node carrying the required suffix while the entry is
              empty. *)
    }
  | Dangling of {
      node : Ntcu_id.Id.t;
      level : int;
      digit : int;
      stored : Ntcu_id.Id.t;  (** Entry occupant that is not a network node. *)
    }
  | Wrong_suffix of {
      node : Ntcu_id.Id.t;
      level : int;
      digit : int;
      stored : Ntcu_id.Id.t;
    }

val pp_violation : violation Fmt.t

val violations : ?limit:int -> Table.t list -> violation list
(** All violations over the network formed by the given tables (their owners
    are the node set [V]), up to [limit] (default 100), in table order, then
    level, then digit. Empty iff the network is consistent. One scan, for any
    [d], over a {!Suffix_index} of the owners: a false negative's witness is
    the first table in list order whose owner carries the required suffix. *)

val is_consistent : Table.t list -> bool

val next_hop_path :
  lookup:(Ntcu_id.Id.t -> Table.t option) ->
  Ntcu_id.Id.t ->
  Ntcu_id.Id.t ->
  Ntcu_id.Id.t list option
(** [next_hop_path ~lookup x y] follows primary neighbors per Definition 3.7:
    hop [i] moves to the current node's [(i, y\[i\])]-neighbor. Returns the
    node sequence from [x] to [y] inclusive, or [None] if a needed entry is
    empty or a table is missing. The sequence has at most [d + 1] nodes. *)

val all_pairs_reachable : Table.t list -> bool
(** True iff every ordered pair of owners is connected by a next-hop path.
    Quadratic — intended for tests on small networks. *)

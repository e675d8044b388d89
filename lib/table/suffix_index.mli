(** Index of every suffix carried by a set of identifiers: the paper's suffix
    sets [V_{omega}].

    One immutable trie of suffix groups, built eagerly by {!of_ids}. The
    root group holds every identifier in input order; a group holding two or
    more is split stably by its next digit (digit 0, then 1, ...), so every
    group lists its carriers in input order. A group of one identifier is a
    leaf that stands for each longer suffix the identifier carries. Nothing
    is hashed, and any [d] works. Consistent seeding ({!fill_consistent}) and
    the Definition 3.8 scan ({!Check.violations}) both walk it. *)

type t

val of_ids : Ntcu_id.Id.t list -> t
(** Build the index, in time proportional to the total depth of the trie.
    Duplicates are kept (both copies carry every suffix).
    @raise Invalid_argument if the identifiers differ in length. *)

val mem : t -> int array -> bool
(** Does any indexed identifier end with the suffix? (The empty suffix is in
    every nonempty index.) *)

val witness : t -> int array -> Ntcu_id.Id.t option
(** The head of {!members}: the carrier indexed last. *)

val members : t -> int array -> Ntcu_id.Id.t list
(** All identifiers ending with the suffix, in reverse input order. For the
    empty suffix this is every indexed identifier; a suffix longer than the
    identifiers, or with a digit outside their range, has none. *)

val count : t -> int array -> int

val mem_id : t -> Ntcu_id.Id.t -> bool
(** Is the identifier itself indexed? *)

(** {1 Walking the groups} *)

type group
(** The carriers of one suffix, in input order (possibly none). *)

val root : t -> group
(** Every indexed identifier: the empty suffix's group. *)

val child : t -> group -> level:int -> int -> group
(** [child t g ~level j], for [g] the group of a suffix of length [level], is
    the group of that suffix extended by digit [j] on the left. *)

val first : t -> group -> Ntcu_id.Id.t option
(** The carrier indexed first, if any. *)

(** {1 Consistent seeding} *)

val fill_consistent : rng:Ntcu_std.Rng.t -> reverse:bool -> Table.t list -> unit
(** Complete the tables into a consistent network over their owners. Owners
    are visited in list order and each one's entries by level, then digit;
    every entry off the owner's own digits whose required suffix some owner
    carries gets one [Rng.int rng k] draw, indexing its [k] carriers in
    reverse list order. The walk down an owner's groups stops at the first
    level where the owner is alone. With [~reverse:true] the storer of each
    filled entry is registered as a reverse neighbour of the chosen node (at
    the chosen node's own digit of that level), once per (chosen node,
    level). Owners must be distinct. *)

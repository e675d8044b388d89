(** Neighbor tables (paper, Section 2.1).

    A table has [d] levels of [b] entries. The [(i, j)]-entry of node [x]'s
    table holds a node whose ID shares a common suffix of [i] digits with
    [x.ID] and whose [i]th digit is [j]. Only primary neighbors are stored
    (the paper relaxes optimality and keeps one neighbor per entry). Each
    entry also carries the neighbor's believed status: [S] ("in system") or
    [T] (still joining); and the table tracks reverse neighbors — the nodes
    known to store the owner in their own tables.

    One suffix rule bounds every position an ID can take. Node [y] can sit
    in [x]'s table only at [(i, y\[i\])] with [i <= |csuf(x, y)|]: {!set}
    checks it for primaries and {!add_backup} for backups. Seen from [y],
    [x] can store it only at levels [i <= |csuf(x, y)|], always in the
    [(i, y\[i\])]-entry, so [y] keeps one reverse set per level rather than
    one per entry, and {!add_reverse} checks the same rule. The removals
    ({!remove_backup}, {!remove_reverse}) and {!fold_holding} therefore
    visit at most [d] positions, never all [d * b]. *)

type nstate = T | S

val nstate_equal : nstate -> nstate -> bool
val pp_nstate : nstate Fmt.t

type t

val create : Ntcu_id.Params.t -> owner:Ntcu_id.Id.t -> t
(** An empty table. No self-entries are filled; see {!fill_self}. *)

val params : t -> Ntcu_id.Params.t
val owner : t -> Ntcu_id.Id.t

val get : t -> level:int -> digit:int -> (Ntcu_id.Id.t * nstate) option
(** The [(level, digit)]-entry, or [None] when empty.
    @raise Invalid_argument if out of range. *)

val neighbor : t -> level:int -> digit:int -> Ntcu_id.Id.t option

val set : t -> level:int -> digit:int -> Ntcu_id.Id.t -> nstate -> unit
(** Unconditional write (the protocol layer decides when writes are legal).
    @raise Invalid_argument if the node's ID does not have the suffix required
    by the entry, which would corrupt routing. *)

val clear : t -> level:int -> digit:int -> unit
(** Empty the entry (used by the leave protocol). *)

val set_state : t -> level:int -> digit:int -> nstate -> unit
(** Update the state of a filled entry.
    @raise Invalid_argument if the entry is empty. *)

val fill_self : t -> nstate -> unit
(** Set entry [(i, owner[i])] to the owner at every level [i], with the given
    state — the paper's convention that a node is its own primary
    [(i, x\[i\])]-neighbor. *)

val required_suffix : t -> level:int -> digit:int -> int array
(** The suffix (length [level + 1], index 0 = rightmost) that any occupant of
    the entry must have: [digit . owner[level-1 .. 0]]. *)

val admits : t -> level:int -> digit:int -> Ntcu_id.Id.t -> bool
(** Does the node's ID end with the entry's {!required_suffix}? Compares
    digits in place, building no suffix.
    @raise Invalid_argument if out of range. *)

val iter : t -> (level:int -> digit:int -> Ntcu_id.Id.t -> nstate -> unit) -> unit
(** Visit every filled entry, by increasing level then digit. *)

val fold : t -> init:'a -> f:('a -> level:int -> digit:int -> Ntcu_id.Id.t -> nstate -> 'a) -> 'a

val fold_holding :
  t -> Ntcu_id.Id.t -> init:'a -> f:('a -> level:int -> digit:int -> 'a) -> 'a
(** [fold_holding t id ~init ~f] folds [f] over the entries whose primary is
    [id], by increasing level: the positions a {!fold} filtered on
    [Id.equal id] visits, in the same order. By the suffix rule {!set}
    enforces, [id] can sit only at [(i, id\[i\])] for
    [i <= |csuf(owner, id)|], so the fold reads at most [d] entries rather
    than [d * b]. Each entry is read when the fold reaches it, so [f] may
    rewrite the entry it is given. *)

val filled_count : t -> int

val known_nodes : t -> Ntcu_id.Id.Set.t
(** All distinct nodes appearing in the table (including the owner if
    self-filled). *)

(** {1 Backup neighbors}

    The paper stores one primary neighbor per entry but notes (Section 2.1)
    that "a subset of these nodes … may be stored in the entry", the extras
    serving object location or fault-tolerant routing. Backups are additional
    nodes with the entry's required suffix, harvested opportunistically; they
    are invisible to the consistency checker (which judges primaries) and are
    used by resilient routing when the primary is unreachable. *)

val backup_capacity : t -> int

val add_backup : t -> level:int -> digit:int -> Ntcu_id.Id.t -> bool
(** Record an extra holder of the entry's suffix. No-ops (returning [false])
    when the node is the owner, the current primary, already a backup, lacks
    the suffix, or the entry is at capacity. *)

val backups : t -> level:int -> digit:int -> Ntcu_id.Id.t list
(** Most recently added first. *)

val remove_backup : t -> Ntcu_id.Id.t -> unit
(** Drop a node from every backup list (departures). By the suffix rule it
    can be a backup only at [(i, id\[i\])] for [i <= |csuf(owner, id)|], so
    only those at most [d] lists are visited. *)

val filter_backups : t -> f:(Ntcu_id.Id.t -> bool) -> unit
(** Keep only backups satisfying [f] (bulk scrubbing after failures). *)

val promote_backup : t -> level:int -> digit:int -> Ntcu_id.Id.t option
(** Pop the first backup into the primary slot (with state [S]) and return
    it; [None] when there is no backup. Used to heal an entry whose primary
    died. *)

(** {1 Reverse neighbors}

    The nodes that store the owner, kept as one set per level: the storers
    that hold the owner at [(level, owner\[level\])] of their own tables. *)

val add_reverse : t -> level:int -> Ntcu_id.Id.t -> unit
(** [add_reverse t ~level s] records that [s] stores the owner at [level].
    @raise Invalid_argument if [level] is out of range, or if [s] does not
    end with the owner's [level] low digits: {!set} would not let [s] store
    the owner there, so the registration is a protocol bug. *)

val add_reverses : t -> level:int -> Ntcu_id.Id.t list -> unit
(** {!add_reverse} of every listed node, as one set union. *)

val remove_reverse : t -> Ntcu_id.Id.t -> unit
(** Remove the node from every reverse set. It can be registered only at
    levels [i <= |csuf(owner, id)|], so only those at most [d] sets are
    visited. *)

val reverse_at : t -> level:int -> Ntcu_id.Id.Set.t
(** The storers registered at [level].
    @raise Invalid_argument if [level] is out of range. *)

val all_reverse : t -> Ntcu_id.Id.Set.t

(** {1 Snapshots}

    Immutable sparse copies of a table, embedded in protocol messages (the
    paper's [x.table] message fields). *)

module Snapshot : sig
  type table := t

  type cell = { level : int; digit : int; node : Ntcu_id.Id.t; state : nstate }

  type t = private { owner : Ntcu_id.Id.t; cells : cell list; count : int }
  (** [cells] lists the filled entries, by increasing level then digit;
      [count] caches its length so wire-size accounting is O(1). *)

  val of_table : table -> t

  val of_table_levels : table -> lo:int -> hi:int -> t
  (** Only levels in [\[lo, hi\]] — the Section 6.2 level-range reduction. *)

  val of_cells : owner:Ntcu_id.Id.t -> cell list -> t
  (** Rebuild a snapshot from its parts (wire decoding). The cell list is
      taken as is. *)

  val cell_count : t -> int

  val iter : t -> (cell -> unit) -> unit

  val find : t -> level:int -> digit:int -> cell option
  (** The cell at a position, if present. *)

  val filter : t -> f:(cell -> bool) -> t
  (** Keep only cells satisfying [f] (used by the Section 6.2 bit-vector
      reply reduction). *)
end

val pp : t Fmt.t
(** Figure-1-style grid: one row per digit, one column per level (highest
    level leftmost), each cell showing the primary neighbor (suffixed [*] when
    its state is [T]) or blank. *)

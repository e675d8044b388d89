(** Struct-of-arrays arena for node hot state.

    Replaces the record-based per-node layout ([Node.t] + [Table.t] +
    [Id.Tbl] lookups) with flat columns over slot indices: packed ids, one
    status byte per node, one int per table cell (occupant packed id, [-1]
    empty) plus one believed-state bit, and a shared int pool carrying the
    two per-node linked lists: reverse pointers (the storers only) and the
    JoinWaits deferred while the node was notifying. One run of
    10^5–10^6 nodes then costs ~[d*b] words per node instead of a heap of
    boxed records, and lookups are int-keyed.

    Only packable parameter spaces ({!Ntcu_id.Packed.packable}) are
    supported. Slots are reused through a free stack ({!remove}/{!add}), so
    the arena sustains churn without growing. *)

type t

val create : ?cap:int -> Ntcu_id.Params.t -> t
(** @raise Invalid_argument if the space is not packable. *)

val live : t -> int
(** Number of live nodes. *)

val high_slot : t -> int
(** Exclusive upper bound on slot indices ever handed out — the scan bound
    for whole-arena iteration (freed slots in the range have status
    {!status_free}). *)

(** {1 Statuses} *)

val status_free : int
val status_copying : int
val status_waiting : int
val status_notifying : int
val status_in_system : int

(** {1 Cell states (believed T/S of an occupant)} *)

val state_t : int
val state_s : int

(** {1 Slots} *)

val add : t -> Ntcu_id.Packed.t -> int
(** Allocate a slot (reusing a freed one if any) for the id, with status
    [status_copying] and an empty table. Returns the slot.
    @raise Invalid_argument if the id is already present. *)

val remove : t -> Ntcu_id.Packed.t -> unit
(** Free the node's slot and release its lists. Other nodes' cells that
    reference the departed id are {e not} scrubbed (same contract as
    [Network.remove]); the checker reports them as dangling.
    @raise Invalid_argument if unknown. *)

val find : t -> Ntcu_id.Packed.t -> int
(** The id's slot, [-1] if absent — the per-delivery lookup allocates
    nothing. *)

val mem : t -> Ntcu_id.Packed.t -> bool
val id_of : t -> int -> Ntcu_id.Packed.t
val status : t -> int -> int
val set_status : t -> int -> int -> unit

(** {1 Table cells}

    Reads take the entry's table position [pos = level * b + digit], the
    index frames carry; writes take [(level, digit)]. [cell] returns the
    occupant as a raw packed value, [-1] when empty — the hot read path
    avoids option boxing. *)

val cell : t -> int -> int -> int
(** [cell t slot pos]. @raise Invalid_argument if [pos] is out of range. *)

val state : t -> int -> int -> int
(** [state t slot pos]. @raise Invalid_argument if the entry is empty or out
    of range. *)

val push_rows : t -> int -> lo:int -> hi:int -> Intbuf.t -> unit
(** [push_rows t slot ~lo ~hi buf] appends the filled entries of rows
    [lo .. hi] to [buf]: their count, then one [(pos * 2 + state, occupant)]
    pair per entry in position order.
    @raise Invalid_argument unless [0 <= lo <= hi < d]. *)

val set : t -> int -> level:int -> digit:int -> Ntcu_id.Packed.t -> int -> unit
(** Fill (or overwrite) an entry, as [Table.set].
    @raise Invalid_argument if the id lacks the entry's required suffix. *)

val clear_cell : t -> int -> level:int -> digit:int -> unit

val set_state : t -> int -> level:int -> digit:int -> int -> unit
(** @raise Invalid_argument if the entry is empty. *)

val filled_count : t -> int -> int

val fill_self : t -> int -> int -> unit
(** [fill_self t slot st] sets entry [(i, owner[i])] to the owner at every
    level, as [Table.fill_self]. *)

(** {1 Reverse neighbors} *)

val add_reverse : t -> int -> storer:Ntcu_id.Packed.t -> unit
(** [add_reverse t slot ~storer] records that [storer] stores the node. The
    position it stores the node at is not kept. *)

val iter_reverse : t -> int -> (Ntcu_id.Packed.t -> unit) -> unit
(** Newest registration first. *)

val remove_reverse : t -> int -> Ntcu_id.Packed.t -> unit
(** Drop every registration by the given storer. *)

(** {1 Deferred JoinWaits}

    The joiners whose JoinWait reached the node while it was notifying, to
    be answered once it is in the system. *)

val defer_wait : t -> int -> int -> unit
(** [defer_wait t slot x] queues joiner [x] (a raw packed id). *)

val take_waits : t -> int -> int list
(** The queued joiners, oldest first; the queue is left empty. *)

(** {1 Accounting} *)

val words : t -> int
(** Deterministic structural memory size in words: exact for all columns,
    hashtable bindings estimated at 4 words each. *)

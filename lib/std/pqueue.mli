(** Minimum priority queue on float keys with an insertion-order tie-break.

    Used as the event queue of the discrete-event simulator: events scheduled
    at the same virtual time are delivered in scheduling order, which makes
    simulation runs deterministic. The tie-break is total (every element gets
    a distinct sequence number), so the pop order is a pure function of the
    push sequence — it does not depend on the internal heap layout, nor on
    removals of other elements in between.

    Implemented as an indexed 4-ary heap: {!push_handle} returns a handle
    through which the element can later be {!remove}d in logarithmic time,
    with no tombstones left behind. A queue that {!pop} or {!remove} has
    emptied keeps no reference to the elements that left it. *)

type 'a t

type 'a handle
(** Names one pushed element. Becomes stale once the element leaves the
    queue (by {!pop}, {!remove} or {!clear}); operations on a stale handle
    are safe — {!remove} and {!mem} return [false]. A handle is tied to the
    queue that created it: {!mem} answers [false] for another queue's
    handle, while {!remove} raises [Invalid_argument] rather than corrupt
    either queue. *)

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q key v] inserts [v] with priority [key]. *)

val push_handle : 'a t -> float -> 'a -> 'a handle
(** Like {!push}, but returns a handle for a later {!remove}. *)

val of_list : (float * 'a) list -> 'a t
(** [of_list items] builds a queue holding every [(key, value)] pair in O(n)
    (bottom-up heapify) instead of the O(n log n) of repeated pushes.
    Sequence numbers follow list order, so the result pops exactly like a
    fresh queue into which the pairs were {!push}ed left to right. *)

val add_list : 'a t -> (float * 'a) list -> unit
(** [add_list q items] inserts all pairs at once, heapifying in
    O(length q + n). Equivalent to {!push}ing them left to right — same pop
    order, and handles of already-queued elements stay valid. Preferable to
    repeated pushes when seeding a large event population. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest key; among equal keys, the
    one pushed first. [None] when empty. *)

val peek : 'a t -> (float * 'a) option

val remove : 'a t -> 'a handle -> bool
(** [remove q h] deletes the element named by [h] from the queue in
    O(log n). Returns [false] (and does nothing) if the element already left
    the queue. The relative order of all other elements is unaffected.
    @raise Invalid_argument if [h] was created by a different queue. *)

val mem : 'a t -> 'a handle -> bool
(** Whether the element named by the handle is still queued. *)

val clear : 'a t -> unit

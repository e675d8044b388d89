(** Baseline comparator: a multicast-based join in the style of Tapestry /
    Hildrum et al. (paper, Section 1 and [5]).

    The joining node copies its table along a walk to its {e surrogate} (the
    node sharing the longest suffix), which then announces the joiner by a
    multicast over the notification set: each intermediate node forwards the
    announcement to the nodes extending the current suffix by one digit,
    keeps the joiner in a {e pending list} until all downstream
    acknowledgements arrive, and only then acknowledges upstream.

    This reproduces the design the paper argues against: "this approach has
    the disadvantage of requiring many existing nodes to store and process
    extra states as well as send and receive messages on behalf of joining
    nodes". The simplified baseline is correct for sequential joins; under
    concurrent {e dependent} joins it can and does produce inconsistent
    tables (no mutual discovery), which is exactly the failure mode the
    paper's protocol exists to prevent — the comparison bench measures both
    the state footprint and this inconsistency rate. *)

type t

type message_counts = {
  copies : int;  (** Table-copy requests and replies. *)
  announces : int;
  acks : int;
  infos : int;  (** Contacted node -> joiner notifications. *)
}

val create : ?latency:Ntcu_sim.Latency.t -> ?record_trace:bool -> Ntcu_id.Params.t -> t
(** A baseline network on its own {!Ntcu_sim.Transport.t}. Default latency:
    constant 1.0 ms. With [record_trace] every delivery is a trace line. *)

val trace : t -> Ntcu_sim.Trace.t option

val set_delay_hook : t -> Ntcu_sim.Transport.hook option -> unit
(** Install (or clear) the wire's delay hook. The join announcements, the
    joiner's multicast request and the contacted nodes' replies to the
    joiner are the ordering-critical frames: they decide who learns of whom
    first. The table-copy walk and the acknowledgement wave are not. *)

val seed_consistent : t -> seed:int -> Ntcu_id.Id.t list -> unit
(** The seeding of [Ntcu_core.Network.seed_consistent]: same visit order,
    same carrier order, one [Rng.int] draw per filled entry, so the same ids
    and [seed] give the same primary entries. The baseline registers no
    reverse neighbors.
    @raise Invalid_argument on duplicate IDs or an empty list. *)

val start_join : t -> ?at:float -> id:Ntcu_id.Id.t -> gateway:Ntcu_id.Id.t -> unit -> unit

val run : ?max_events:int -> t -> unit

val tables : t -> Ntcu_table.Table.t list
val check_consistent : t -> Ntcu_table.Check.violation list
val all_done : t -> bool
(** Every joiner has completed (received its join-done signal). *)

val table : t -> Ntcu_id.Id.t -> Ntcu_table.Table.t option
(** The neighbor table of one node, for state-walk routing over the final
    network ([None] for unknown ids). *)

val members : t -> Ntcu_id.Id.t list
(** Seeds plus completed joiners, in registration order — the baseline's
    notion of in-system membership (it has no failure model). *)

val engine : t -> Ntcu_sim.Engine.t

val message_counts : t -> message_counts

val peak_pending_at_existing : t -> int
(** Maximum number of simultaneously pending joiner entries held by any
    pre-existing node — the extra join state the paper's protocol avoids. *)

val total_pending_slots : t -> int
(** Total pending-list insertions at existing nodes over the run. *)

(** A simulated hypercube-routing network: the paper's join protocol on the
    simulated wire, and experiment entry points.

    Nodes are {!Node.t} state machines registered on a
    {!Ntcu_sim.Transport.t}, which owns the engine, host indices, latency
    model, delay hook and delivery trace. This module layers on it what is
    the protocol's own: the loss model, the optional ack/retransmit
    transport, per-node and global {!Stats}, and crash bookkeeping. *)

type t

type reliability = {
  rto : float;  (** initial retransmission timeout (virtual time) *)
  backoff : float;  (** multiplier applied per retry; >= 1 *)
  jitter : float;  (** timeout is scaled by [1 + jitter * u], [u ~ U(0,1)] *)
  max_retries : int;  (** retransmissions before the peer is suspected *)
  seed : int;  (** seed for the jitter RNG *)
}

val default_reliability : reliability
(** [rto = 10.] (10x the default round trip), doubling backoff, 50% jitter,
    8 retries. At 5% loss the probability that a live peer exhausts the
    budget is [(1 - 0.95^2)^9 < 1e-9], so suspicion is effectively crash
    detection. *)

val create :
  ?latency:Ntcu_sim.Latency.t ->
  ?size_mode:Message.size_mode ->
  ?record_trace:bool ->
  ?loss:float * int ->
  ?reliability:reliability ->
  Ntcu_id.Params.t ->
  t
(** Default latency: constant 1.0 ms. Default size mode: [Full].

    [loss] is [(probability, seed)]: each message is independently dropped in
    transit with the given probability — deliberately violating the paper's
    reliable-delivery assumption (iii) so its necessity can be measured
    (joins then wedge short of [in_system]). Default: no loss.

    [reliability] enables the ack/retransmit transport: every protocol
    message is sequence-numbered; the receiver acks each copy (acks are
    transport frames, themselves subject to [loss] but never retransmitted)
    and suppresses duplicates; the sender retransmits with exponential
    backoff until acked, and after [max_retries] unanswered copies suspects
    the peer ({!Node.on_suspect} + the {!set_suspicion_handler} hook).
    Default: messages are fire-and-forget as in the paper. *)

val params : t -> Ntcu_id.Params.t
val engine : t -> Ntcu_sim.Engine.t
val trace : t -> Ntcu_sim.Trace.t option

(** {1 Building the initial network} *)

val add_seed_node : t -> Ntcu_id.Id.t -> unit
(** Add a single S-node with only self-entries filled — the Section 6.1
    starting point. Consistent on its own, or alongside other seed nodes iff
    tables are completed by {!seed_consistent}. *)

val seed_consistent : t -> seed:int -> Ntcu_id.Id.t list -> unit
(** Install the given nodes as a consistent network [<V, N(V)>], standing in
    for a network built by prior joins, as in the paper's simulation setup.
    Each node is registered in list order with its self-entries; then
    {!Ntcu_table.Suffix_index.fill_consistent} visits the nodes in list
    order, each by level then digit, and fills every entry whose required
    suffix some member carries with one of those carriers: one
    [Rng.int] draw (from [Rng.create seed]) per filled entry, over the
    carriers in reverse list order. Each storer is registered as a reverse
    neighbor of the node it chose, as the protocol's RvNghNotiMsg traffic
    would have done.
    @raise Invalid_argument on duplicate IDs or an empty list. *)

(** {1 Joins} *)

val start_join : t -> ?at:float -> id:Ntcu_id.Id.t -> gateway:Ntcu_id.Id.t -> unit -> unit
(** Schedule a join to begin at time [at] (default: now). The gateway must be
    a registered node (assumption (ii) of the paper).
    @raise Invalid_argument if [id] is already registered. *)

val start_joins : t -> (float * Ntcu_id.Id.t * Ntcu_id.Id.t) list -> unit
(** [start_joins t [(at, id, gateway); ...]] behaves exactly like calling
    {!start_join} on each triple left to right — same registration order,
    same event tie-break order — but seeds the event queue in O(n)
    ({!Ntcu_sim.Engine.schedule_batch}) instead of n heap pushes. Preferred
    for large concurrent-join populations; {!start_join} is its one-element
    case. *)

val run : ?max_events:int -> t -> unit
(** Run the simulation to quiescence. *)

val remove : t -> Ntcu_id.Id.t -> unit
(** Unregister a node (used by the leave-protocol extensions). The caller is
    responsible for having repaired other nodes' tables first;
    {!check_consistent} will report dangling entries otherwise. Messages
    still in flight towards the removed node are silently dropped (and
    counted by {!messages_dropped}).
    @raise Invalid_argument if unknown. *)

val fail : t -> Ntcu_id.Id.t -> unit
(** Crash a node: it stays registered (so its identity and host index
    survive) but never processes another message; deliveries to it are
    dropped and not counted by {!messages_delivered}. Models fail-stop
    failures for the recovery extension.
    @raise Invalid_argument if unknown or already failed. *)

val is_failed : t -> Ntcu_id.Id.t -> bool

val live_ids : t -> Ntcu_id.Id.t list
(** Registration-ordered ids excluding failed nodes. *)

val failed_ids : t -> Ntcu_id.Id.t list
(** Registration-ordered ids of crashed nodes still registered — the
    not-yet-reaped population a steady-state maintenance loop probes. *)

val live_count : t -> int
(** Registered nodes minus failed ones: the length of {!live_ids}, without
    building the list. *)

val messages_dropped : t -> int
(** Deliveries to failed or removed nodes. *)

val messages_lost : t -> int
(** Protocol-message copies (first sends and retransmissions alike) dropped
    in transit by the loss model. Lost acks are counted by {!acks_lost}
    instead, so this stays comparable with the unreliable transport. *)

(** {1 Reliability} *)

val reliable : t -> bool
(** Whether the ack/retransmit transport is enabled. *)

val inject : t -> src:Ntcu_id.Id.t -> Node.action list -> unit
(** Send protocol messages on behalf of [src], exactly as if its [handle]
    had returned them. Used by extensions (online repair, leave protocol) to
    participate in the network without bypassing stats, loss, or the
    reliable transport. *)

val set_suspicion_handler :
  t -> (reporter:Ntcu_id.Id.t -> suspect:Ntcu_id.Id.t -> unit) -> unit
(** Called once per newly-suspected peer, after the reporting sender's own
    {!Node.on_suspect} failover actions have been sent. The online-repair
    extension registers here to disseminate the suspicion. *)

val is_suspected : t -> Ntcu_id.Id.t -> bool
(** Whether any sender has exhausted its retry budget against this peer. *)

val acks_sent : t -> int
val acks_lost : t -> int

(** {1 Adversarial scheduling} *)

val set_delay_hook : t -> Ntcu_sim.Transport.hook option -> unit
(** Install (or clear) the {!Ntcu_sim.Transport.hook} that rewrites the
    sampled latency of every frame actually scheduled on the wire: each copy
    of a protocol message (first sends and, in reliable mode,
    retransmissions) with [critical = Message.ordering_critical msg], and
    each transport ack with [critical = false]. Frames the loss model drops
    are never shown to the hook, and [seq] numbers hook calls from 0, so the
    same seeds yield the same sequence. Adversarial schedulers (random
    permuters, PCT-style priority schedulers, targeted reorderers) are built
    on this single hook. Leave-protocol traffic is not on the wire
    ([Ntcu_extensions.Leave_protocol]). *)

val stuck_joiners : t -> Node.t list
(** Joiners that never reached [in_system] (possible only when an assumption
    of the paper — reliable delivery, no deletion during joins — was
    deliberately violated). *)

(** {1 Inspection} *)

val size : t -> int
val mem : t -> Ntcu_id.Id.t -> bool
val node : t -> Ntcu_id.Id.t -> Node.t option
val node_exn : t -> Ntcu_id.Id.t -> Node.t
val nodes : t -> Node.t list
val ids : t -> Ntcu_id.Id.t list
val tables : t -> Ntcu_table.Table.t list

val all_in_system : t -> bool
(** Theorem 2's liveness condition: every node reached status [in_system]. *)

val is_quiescent : t -> bool
(** No events pending. *)

val check_consistent : ?limit:int -> t -> Ntcu_table.Check.violation list
(** Definition 3.8 over the whole network; empty iff consistent. [limit]
    (default 100) caps the number of violations collected — and aborts the
    scan once reached, so [~limit:1] is the cheap yes/no probe. *)

val global_stats : t -> Stats.t
(** Totals across all nodes (each message counted once as sent, once as
    received). *)

val messages_delivered : t -> int
(** Messages handed to a live receiver (duplicates suppressed by the
    reliable transport excluded); with [record_trace] each one is a trace
    line. *)

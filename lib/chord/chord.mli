(** Chord ring maintenance as a deterministic discrete-event simulation.

    Nodes keep a successor list, a predecessor pointer and a finger table
    over the ring of integer keys [0 .. b^d - 1] (an identifier's key is the
    numeric value of its digits, so key order coincides with [Id.compare]).
    Periodic {e stabilization} rounds implement Zave's corrected protocol
    (arXiv:1502.06461): a node asks its first {e live} successor for its
    predecessor and successor list, adopts an in-interval predecessor only
    after a liveness check, refreshes its successor list through the live
    head, and notifies the head, whose {e rectify} replaces a dead or
    out-of-interval predecessor. Liveness checks consult the simulation's
    membership oracle — the model of the paper's perfect failure detector
    assumption.

    With [naive = true] the same machinery reproduces the classic incorrect
    stabilize of the original protocol, per Zave's analysis: successor lists
    degenerate to a single pointer, stabilize adopts the successor's
    predecessor {e without} a liveness check, notify never evicts a dead
    predecessor, and routing does not route around dead nodes. Under crash
    timing that only an adversarial schedule produces, the poison spreads and
    the ring invariant breaks permanently — the differential signal the
    explore layer hunts for.

    Maintenance is bounded ([rounds] stabilization rounds per node), so every
    run quiesces; all timers and message delays are deterministic in the
    config and latency model. *)

module Protocol := Ntcu_protocol.Protocol

type config = {
  params : Ntcu_id.Params.t;
  naive : bool;  (** Classic incorrect stabilize (see above). *)
  succ_len : int;  (** Successor-list length; forced to 1 by [naive]. *)
  stabilize_every : float;  (** Round period, virtual ms. *)
  rounds : int;  (** Stabilization rounds per node before it goes quiet. *)
  fingers_per_round : int;  (** Finger entries refreshed per round. *)
  join_retries : int;  (** Join-lookup retries before a joiner gives up. *)
}

val default_config : Ntcu_id.Params.t -> config
(** Correct mode, [succ_len = 4], 500 ms rounds, 16 of them, 2 fingers per
    round, 3 retries. *)

type t

val create : ?latency:Ntcu_sim.Latency.t -> ?record_trace:bool -> config -> t
(** @raise Invalid_argument if [b^d] does not fit an [int]. *)

val engine : t -> Ntcu_sim.Engine.t
val trace : t -> Ntcu_sim.Trace.t option

val set_delay_hook : t -> Protocol.delay_hook option -> unit
(** Install (or clear) the wire's delay hook ({!Ntcu_sim.Transport.hook}).
    Join lookups, their answers and notifies are the ordering-critical
    frames. *)

val seed_ring : t -> Ntcu_id.Id.t list -> unit
(** Install the initial members with exact successor lists, predecessors and
    fingers, as a long-stable ring would have them. Registration order (and
    hence latency-model host indices) follows the list. *)

val start_join : t -> ?at:float -> id:Ntcu_id.Id.t -> gateway:Ntcu_id.Id.t -> unit -> unit
val leave : t -> ?at:float -> Ntcu_id.Id.t -> unit
(** Graceful departure with handoff (correct mode); in naive mode the node
    simply stops — the original protocol has no leave handshake. *)

val crash : t -> Ntcu_id.Id.t -> unit
(** Immediate fail-stop, no messages. *)

val run : ?max_events:int -> t -> unit

val members : t -> Ntcu_id.Id.t list
(** Live fully-joined members, sorted by [Id.compare]. *)

val is_member : t -> Ntcu_id.Id.t -> bool

val ring_consistent : t -> bool
(** Cheap probe: every live member's first live successor is the next live
    member in key order. *)

val check : t -> Protocol.violation list
(** Ring-specific invariant sweep, one violation per category:
    ["chord-liveness"] (every live joiner became a member),
    ["chord-ring"] (valid first live successor),
    ["chord-succlist"] (successor lists live, duplicate-free and in ring
    order), ["chord-appendage"] (successor chains from every live node reach
    the one ring cycle, which covers all members — Zave's appendage-ring
    structure), ["chord-pred"] (predecessors live and exact). *)

val lookup : t -> src:Ntcu_id.Id.t -> target:Ntcu_id.Id.t -> Ntcu_id.Id.t list option
(** Greedy closest-preceding-finger walk over the final state; the path ends
    at [target] iff the lookup is correct. *)

val messages_delivered : t -> int
(** Frames that reached their receiver, crashed receivers included. *)

val traffic : t -> Protocol.traffic

val protocol : ?naive:bool -> unit -> (module Protocol.S)
(** The {!Protocol.S} view the arena drives. [Protocol.config]'s
    [maintain_every]/[rounds] map to the stabilization knobs. *)

(** The pluggable-protocol interface the arena and explore layers drive.

    A protocol is a deterministic discrete-event simulation of an overlay
    maintenance algorithm: the paper's neighbor-table protocol
    ({!Paper}), Chord ring maintenance ([Ntcu_chord.Chord.protocol]), or the
    multicast-join baseline ({!Baseline}). All implementations share one
    driving contract — seed a consistent network, inject joins and graceful
    leaves at virtual times, drain the engine, then answer structural
    queries (membership, invariant checks, state-walk lookups, traffic
    accounting) — so a comparator can run two protocols on identical
    topologies, churn schedules and seeds and diff the results.

    Implementations must be deterministic: same config, latency model and
    call sequence, byte-identical behaviour — that is what makes arena
    artifacts reproducible at any [--jobs] width. *)

type config = {
  params : Ntcu_id.Params.t;  (** Identifier-space parameters. *)
  seed : int;  (** All protocol-internal randomness derives from this. *)
  maintain_every : float;
      (** Period of one maintenance round (virtual ms). Protocols that are
          reactive rather than periodic (the paper's join protocol) ignore
          it. *)
  rounds : int;
      (** Bounded number of maintenance rounds after the last workload
          event; periodic protocols quiesce once they are spent. *)
}

type violation = { name : string; detail : string }
(** An invariant breach: [name] is a stable category (protocols prefix
    theirs, e.g. ["chord-ring"]), [detail] the first offence. The explore
    layer's monitors report the same record
    ([Ntcu_explore.Invariants.violation]). *)

val pp_violation : violation Fmt.t

type traffic = { join : int; maintain : int; total : int }
(** Message counts by class. [join] is traffic attributable to join
    handshakes, [maintain] everything else (stabilization, repair, finger
    fixing, leave handoff). [total >= join + maintain] — classes a protocol
    cannot attribute stay in [total] only. *)

type delay_hook = Ntcu_sim.Transport.hook
(** Adversarial delay rewriting, protocol-agnostic: the one hook type of
    the simulated wire ({!Ntcu_sim.Transport.hook}). Each protocol
    classifies its own ordering-critical frames; [seq] numbers the hook's
    calls from 0. *)

module type S = sig
  val name : string
  (** Stable protocol identifier (["paper"], ["chord"], ["chord-naive"],
      ["baseline"]). *)

  val supports_leave : bool
  (** Whether {!leave} is implemented. Drivers must not schedule leaves
      against a protocol that does not support them. *)

  type t

  val create : ?latency:Ntcu_sim.Latency.t -> ?record_trace:bool -> config -> t

  val engine : t -> Ntcu_sim.Engine.t
  (** The protocol's event engine; drivers use it for [run_until]-style
      sampling between workload events. *)

  val trace : t -> Ntcu_sim.Trace.t option
  (** Delivery trace when created with [~record_trace:true] — digest it for
      replay identity. *)

  val set_delay_hook : t -> delay_hook option -> unit

  val seed_network : t -> seed:int -> Ntcu_id.Id.t list -> unit
  (** Install the initial members with mutually consistent state, as if they
      had joined long ago. *)

  val start_join : t -> at:float -> id:Ntcu_id.Id.t -> gateway:Ntcu_id.Id.t -> unit

  val leave : t -> at:float -> Ntcu_id.Id.t -> unit
  (** Schedule a graceful departure.
      @raise Invalid_argument when [not supports_leave]. *)

  val run : ?max_events:int -> t -> unit
  (** Drain the engine (bounded maintenance guarantees termination). *)

  val members : t -> Ntcu_id.Id.t list
  (** Live, fully-joined members, sorted by [Id.compare]. *)

  val in_system : t -> Ntcu_id.Id.t -> bool

  val consistent : t -> bool
  (** Cheap invariant probe for consistency-window sampling: [true] iff a
      first scan finds no violation. *)

  val check : t -> violation list
  (** Full invariant sweep at quiescence; at most one violation per
      category, most fundamental first. *)

  val lookup : t -> src:Ntcu_id.Id.t -> target:Ntcu_id.Id.t -> Ntcu_id.Id.t list option
  (** Route [src -> target] over the protocol's final state (a synchronous
      state walk, not messages): the full node path, both endpoints
      inclusive, or [None] on a dead end. Success means the path ends at
      [target]. *)

  val traffic : t -> traffic
end

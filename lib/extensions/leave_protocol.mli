(** Message-passing leave protocol with support for concurrent leaves.

    The paper defers leaves to future work; this module runs departures
    through the discrete-event engine. The leaving node [x] sends a LeaveMsg
    carrying a per-level replacement vector to each of its reverse neighbors
    (the nodes that store it), waits for their acknowledgements, and only
    then departs. If [v] stores [x] at its [(i, x\[i\])]-entry, any node
    sharing at least [i + 1] digits with [x] may replace it, so [x] offers
    the non-self occupant of its own table that shares the most digits.
    Multiple nodes may be leaving at once.

    Races are resolved by two rules, both enforced at single events of the
    simulation (modeling a confirmation handshake with the candidate):

    + a leaver never lists a node that is itself leaving (or dead) as a
      replacement;
    + a repairing node installs a received replacement only if it is still
      present and not leaving; otherwise it falls back to
      {!Repair.refill}.

    Together with reverse-neighbor registration at install time, this
    guarantees that when a replacement later leaves, the nodes now pointing
    at it are among its reverse neighbors and get repaired in turn — so any
    set of concurrent leaves ends in a consistent surviving network.

    On departure [x] is also removed from the reverse set of every node its
    table stores, so no live reverse set names a departed node. This is
    local bookkeeping at the moment of departure, like {!Recovery}'s scrub
    of dead members; it sends no message and adds nothing to [messages]. *)

type report = {
  departed : int;
  messages : int;  (** LeaveMsg + acknowledgements. *)
  installed : int;  (** Entries repaired with the leaver's replacement. *)
  fallback_local : int;  (** Entries repaired via 1–2-hop search. *)
  fallback_flood : int;  (** Entries repaired via the suffix flood. *)
  emptied : int;  (** Entries with no live holder left. *)
}

val pp_report : report Fmt.t

type t

val create : ?latency:Ntcu_sim.Latency.t -> Ntcu_core.Network.t -> t
(** The latency model is sampled with abstract endpoints (use constant or
    uniform models here). Default: uniform 1–10 ms, seed 0. LeaveMsg and
    its acknowledgements are scheduled on the network's engine directly,
    not sent through its {!Ntcu_sim.Transport.t}: the delay hook never sees
    them, the delivery trace does not record them and
    [Network.messages_delivered] does not count them. *)

val request_leave : t -> ?at:float -> Ntcu_id.Id.t -> unit
(** Schedule a departure. The node must exist and be [in_system] when the
    request fires (otherwise the request is dropped). *)

val run : t -> unit
(** Drive the engine to quiescence and return once all requested departures
    completed. *)

val report : t -> report

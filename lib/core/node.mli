(** Join-protocol node state machine (paper, Section 4, Figures 3–14).

    Each node owns a neighbor table and a status. A joining node progresses
    through [Copying] (building its table level by level from copies),
    [Waiting] (asking a node to store it), [Notifying] (announcing itself to
    its notification set), and finally [In_system] (an S-node). Only nodes in
    the join process hold extra state — the burden of a join is on the joining
    node, which is the design point the paper argues against Tapestry's
    multicast join.

    Handlers are pure with respect to the network: they mutate only the node
    and return the messages to send, which makes the protocol testable without
    a simulator and keeps the simulator trivial. *)

type status = Copying | Waiting | Notifying | In_system

val status_equal : status -> status -> bool

type config = { params : Ntcu_id.Params.t; size_mode : Message.size_mode }

type action = { dst : Ntcu_id.Id.t; msg : Message.t }

type t

val create_seed : config -> Ntcu_id.Id.t -> t
(** A node of the initial consistent network: status [In_system], self-entries
    filled with state [S] (Section 6.1). Other entries are filled by the
    network seeding code. *)

val create_joiner : config -> Ntcu_id.Id.t -> t
(** A node about to join: status [Copying], empty table. *)

val id : t -> Ntcu_id.Id.t
val status : t -> status
val table : t -> Ntcu_table.Table.t
val stats : t -> Stats.t

val noti_level : t -> int
(** Meaningful once the node has reached [Notifying]. *)

val is_joiner : t -> bool
(** True if the node was created with {!create_joiner}. *)

val t_begin : t -> float option
(** Time the join began (the paper's [t^b_x]); [None] for seed nodes. *)

val t_end : t -> float option
(** Time the node became an S-node (the paper's [t^e_x]); [None] while still
    joining and for seed nodes. *)

val pending_replies : t -> int
(** [|Q_r| + |Q_sr|] — outstanding replies. [0] once [In_system]. *)

val queued_join_waits : t -> int
(** [|Q_j|] — deferred [JoinWaitMsg] senders. *)

val begin_join : t -> now:float -> gateway:Ntcu_id.Id.t -> action list
(** Start the join given a known node of the network (assumption (ii)).
    The node must be in status [Copying] and not have started yet. *)

val handle : t -> now:float -> src:Ntcu_id.Id.t -> Message.t -> action list
(** Process one delivered message. *)

(** {1 Failure suspicion}

    The paper assumes no failures during joins (assumption (iv)). The
    reliable transport reports a peer as suspect once its retry budget is
    exhausted; the node then scrubs the peer from its table (promoting
    backups into the holes), queues, and reverse sets, and — if the suspect
    was load-bearing for its own join — fails over: a [Copying] node resumes
    the copy walk at its best remaining contact, a [Waiting] node re-sends
    [JoinWaitMsg] to one, and a [Notifying] node re-routes in-flight
    [SpeNotiMsg]s. Suspects are remembered so stale snapshots cannot
    re-introduce them. *)

(** {1 Fault injection (tests only)}

    The schedule-exploration harness needs a known, schedule-dependent
    protocol bug to prove it can find one. Each [fault] removes one piece of
    bookkeeping the protocol needs only under particular interleavings, so
    an episode with the fault enabled is correct on most schedules and
    violates consistency or liveness on the rest. Never set outside tests. *)

type fault =
  | Drop_queued_join_waits
      (** [Switch_To_S_Node] discards the deferred [JoinWaitMsg] queue [Q_j]
          instead of answering it — only wrong when a [JoinWaitMsg] arrived
          during the sender's own join window. *)
  | Forget_negative_forward
      (** A negative [JoinWaitRlyMsg] does not re-target the named occupant —
          only wrong when two dependent joiners race for the same entry. *)

val set_fault : t -> fault option -> unit

val on_suspect :
  t -> now:float -> peer:Ntcu_id.Id.t -> failed:Message.t option -> action list
(** [on_suspect t ~now ~peer ~failed] reports [peer] as crashed. [failed] is
    the message whose delivery gave up, if the report comes from the
    transport ([None] when relayed by the online-repair dissemination).
    Idempotent per peer apart from per-message re-drives. *)

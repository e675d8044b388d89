(** Join-protocol messages (paper, Figure 4).

    Three message types carry a copy of the sender's neighbor table and are
    the "big" messages analyzed in Section 5.2: [Cp_rly], [Join_wait_rly] and
    [Join_noti] (plus [Join_noti_rly]); the rest are small. Section 6.2's
    message-size reductions are selected by {!size_mode} and accounted for by
    {!size_bytes}. *)

type sign = Negative | Positive

val sign_equal : sign -> sign -> bool

type t =
  | Cp_rst of { level : int }
      (** Request a copy of the receiver's table. [level] is the level the
          joining node is about to copy (used by reduced reply modes). *)
  | Cp_rly of { table : Ntcu_table.Table.Snapshot.t }
  | Join_wait
      (** Sent by a node in status [waiting] to ask to be stored. *)
  | Join_wait_rly of {
      sign : sign;
      occupant : Ntcu_id.Id.t;
          (** On [Negative], the node already occupying the entry; on
              [Positive], the joining node itself. *)
      table : Ntcu_table.Table.Snapshot.t;
    }
  | Join_noti of {
      table : Ntcu_table.Table.Snapshot.t;
      noti_level : int;
      filled : string option;
          (** In bit-vector mode, the sender's [d*b]-bit vector: one flag
              per position of its table, at index [level * b + digit], ['1']
              where the entry is filled and ['0'] where it is empty. It is
              counted as [d*b] bits on the wire. *)
    }
  | Join_noti_rly of {
      sign : sign;
      table : Ntcu_table.Table.Snapshot.t;
      flag : bool;  (** The paper's [f]: triggers a [Spe_noti]. *)
    }
  | In_sys_noti
  | Spe_noti of { origin : Ntcu_id.Id.t; subject : Ntcu_id.Id.t }
      (** Forwarded along neighbor pointers to tell some node about
          [subject]; [origin] receives the final reply. *)
  | Spe_noti_rly of { origin : Ntcu_id.Id.t; subject : Ntcu_id.Id.t }
  | Rv_ngh_noti of { level : int; digit : int; recorded : Ntcu_table.Table.nstate }
      (** "I stored you in my (level, digit)-entry with this state." *)
  | Rv_ngh_noti_rly of { level : int; digit : int; state : Ntcu_table.Table.nstate }
      (** Correction sent back when the recorded state disagrees with the
          receiver's actual status. *)

type kind =
  | K_cp_rst
  | K_cp_rly
  | K_join_wait
  | K_join_wait_rly
  | K_join_noti
  | K_join_noti_rly
  | K_in_sys_noti
  | K_spe_noti
  | K_spe_noti_rly
  | K_rv_ngh_noti
  | K_rv_ngh_noti_rly

val kind : t -> kind
val kind_count : int

val ordering_critical : t -> bool
(** Protocol-critical for delivery ordering: [JoinWait]/[JoinNoti] traffic
    and their replies, [SpeNoti] forwarding, [InSysNoti] status flips and
    [RvNghNoti] repair/reverse-neighbor notifications. The copy-phase
    request/reply pair ([CpRst]/[CpRly]) is a joiner-private sequential
    chain and is excluded. Targeted adversarial schedulers reorder only the
    critical messages. *)

val kind_index : kind -> int
val kind_name : kind -> string
val pp : t Fmt.t

(** {1 Size accounting} *)

type size_mode =
  | Full  (** Whole tables in every table-carrying message. *)
  | Level_range
      (** Section 6.2, first reduction: [Join_noti] carries only levels
          [noti_level .. csuf]; [Cp_rly] carries only the requested level. *)
  | Bit_vector
      (** Section 6.2, second reduction: [Level_range] plus a bit vector in
          [Join_noti] letting the replier omit entries the sender already
          has. *)

val id_bytes : Ntcu_id.Params.t -> int
(** Wire size of one identifier, [ceil(d log2 b / 8)] bytes of packed digits.
    {!Codec}'s frames write identifiers in this width too. *)

val cell_bytes : Ntcu_id.Params.t -> int
(** Wire size of one table cell (identifier + address + position + state). *)

val size_bytes : Ntcu_id.Params.t -> t -> int
(** Modeled wire size of a message: fixed header plus payload. The embedded
    snapshots are assumed already reduced by the sender according to the size
    mode, so this function just measures what is present. *)

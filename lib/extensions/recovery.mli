(** Failure recovery: re-establish consistency after fail-stop crashes.

    The paper assumes no node deletion during joins and defers failure
    recovery to future work; this module provides the natural recovery
    protocol over the same foundation. Each surviving node periodically
    probes its neighbors (modeled: one probe + one reply or timeout per
    filled entry); entries whose occupants are dead are scrubbed and then
    refilled through {!Repair.refill} — local rings first, a scoped
    suffix flood as last resort. Reverse-neighbor sets are scrubbed too.

    Guarantees: after [repair], the surviving network satisfies
    Definition 3.8 — every suffix still carried by a survivor is reachable
    again, and no entry points at a dead node. (Unlike joins, this cannot be
    done with purely local information in the worst case, which is why the
    flood tier exists; the report shows how rarely it fires.) *)

type report = {
  survivors : int;
  probes : int;  (** Probe messages sent (one per filled entry). *)
  scrubbed : int;  (** Entries that pointed at dead nodes. *)
  repaired_backup : int;  (** Holes healed by promoting a live backup. *)
  repaired_local : int;  (** Holes refilled from 1–2-hop information. *)
  repaired_flood : int;  (** Holes refilled by the suffix-flood fallback. *)
  emptied : int;  (** Holes with no live holder (legitimately empty now). *)
  tables_consulted : int;
}

val pp_report : report Fmt.t

val repair : Ntcu_core.Network.t -> report
(** Run one full recovery round over every live node. The network must be
    quiescent. Idempotent: a second round finds nothing to do. *)

val fail_random :
  Ntcu_core.Network.t -> seed:int -> fraction:float -> Ntcu_id.Id.t list
(** Crash a random [fraction] of the live nodes (helper for experiments);
    returns the failed ids. *)

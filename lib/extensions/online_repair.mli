(** Online, per-suspicion table repair.

    {!Recovery.repair} is an offline pass: it requires a quiescent network
    and fixes everything at once. This module performs the same scrub/refill
    work {e while the simulation runs}, driven by the reliable transport's
    failure suspicion ({!Ntcu_core.Network.set_suspicion_handler}): the first
    time any sender exhausts its retry budget against a peer, the suspicion
    is disseminated to every live node — each scrubs the suspect and fails
    over via {!Ntcu_core.Node.on_suspect} — and entries the suspect occupied
    are refilled through backup promotion or {!Repair.refill}.

    Refills register reverse neighbors with an injected [RvNghNotiMsg]
    rather than by direct table writes, so refilling with a node that is
    itself dead (but not yet suspected) self-heals through a fresh suspicion
    cycle. *)

type t

val attach : Ntcu_core.Network.t -> t
(** Register the repair hook on the network's suspicion handler. The network
    should have been created with [~reliability]; without it no suspicion
    ever fires and the hook stays dormant. *)

type report = {
  suspicions : int;  (** distinct suspects processed *)
  scrubbed : int;  (** table entries that held a suspect *)
  promoted : int;  (** holes covered by backup promotion *)
  refilled_local : int;  (** holes refilled from 1–2-hop candidate search *)
  refilled_flood : int;  (** holes refilled by the suffix-flood last resort *)
  emptied : int;  (** holes no live node could fill *)
  tables_consulted : int;  (** candidate-search cost *)
}

val report : t -> report
val pp_report : report Fmt.t

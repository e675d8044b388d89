(** Protocol arena: head-to-head comparison of neighbor-table protocols on an
    identical workload.

    Every enabled {!arm} runs the same seeded transit-stub topology, the same
    staggered join schedule, the same graceful departures (where the protocol
    supports them) and the same lookup pairs, behind the
    {!Ntcu_protocol.Protocol.S} interface. The paired report records join and
    maintenance traffic, the consistency window (last virtual-time sample at
    which the arm's own consistency predicate was false), lookup success and
    mean latency stretch, and each protocol's own invariant verdicts.

    Arms are independent deterministic simulations (each builds its own
    topology instance from the shared seeds), so the report — and the JSON
    artifact — is byte-identical for any [jobs] value, and an arm's numbers
    do not change when the opposing arms are added or removed. *)

type arm =
  | Paper  (** The paper's join/leave/maintenance protocol. *)
  | Chord  (** Corrected Chord stabilization ({!Ntcu_chord.Chord}). *)
  | Chord_naive  (** Classic incorrect Chord stabilize. *)
  | Baseline  (** Multicast-join baseline (join-only). *)

val arm_name : arm -> string
(** ["paper"], ["chord"], ["chord-naive"] or ["baseline"]. *)

val arm_of_name : string -> arm option

type config = {
  b : int;
  d : int;
  n : int;  (** Initial members. *)
  m : int;  (** Joiners (staggered 50 ms apart). *)
  leavers : int;  (** Graceful departures among non-gateway seeds. *)
  lookups : int;  (** Lookup pairs evaluated after quiescence. *)
  seed : int;
  maintain_every : float;  (** Maintenance round period, virtual ms. *)
  rounds : int;  (** Bounded maintenance rounds per node. *)
  arms : arm list;
}

val default : config
(** n = 32, m = 12, 4 leavers, 64 lookups, b = 4, d = 6, seed 1, 500 ms
    maintenance, 16 rounds, arms [paper; chord] — the two protocols that
    claim correctness under this workload. The differential arms are opt-in:
    [chord-naive] breaks its ring under departures by design, and [baseline]
    (multicast join) races under concurrent joins at default scale — its
    documented weakness, already claimed by the bench [baseline] section. *)

val smoke : config
(** CI-sized: n = 16, m = 6, 2 leavers, 32 lookups. *)

type workload = {
  params : Ntcu_id.Params.t;
  seeds : Ntcu_id.Id.t list;
  joins : (float * Ntcu_id.Id.t * Ntcu_id.Id.t) list;  (** [(time, joiner, gateway)] *)
  leaves : (float * Ntcu_id.Id.t) list;  (** [(time, leaver)]: {!Workload.non_gateways} *)
  pairs : (Ntcu_id.Id.t * Ntcu_id.Id.t) list;  (** Lookup [(source, target)]. *)
}

val workload : config -> workload
(** The seeded workload every arm runs, computed once and shared read-only. *)

type arm_result = {
  arm : arm;
  protocol : string;  (** The protocol module's own [name]. *)
  members : int;  (** Members at quiescence. *)
  violations : Ntcu_protocol.Protocol.violation list;
  traffic : Ntcu_protocol.Protocol.traffic;
  consistency_window : float;
      (** Last sample time (ms, 250 ms grid) at which the arm was
          inconsistent by its own predicate; [0.] if never. *)
  leaves_applied : int;  (** [0] for join-only protocols. *)
  lookups_attempted : int;  (** Pairs with both endpoints in-system. *)
  lookups_ok : int;
  mean_stretch : float;
      (** Mean (path cost / direct host distance) over successful lookups;
          [nan] when none succeeded. *)
}

val arm_ok : arm_result -> bool
(** No invariant violations. *)

type report = { config : config; results : arm_result list }

val ok : report -> bool
(** Every arm passed its own invariants. *)

val run : ?jobs:int -> config -> report
(** Execute all arms (fanned over a {!Ntcu_std.Parallel} pool); the report is
    independent of [jobs]. *)

val violation_json : Ntcu_protocol.Protocol.violation -> Report.Json.t
(** [{"name": …, "detail": …}] — the one JSON form of a violation, shared
    by arena artifacts and explore reports. *)

val to_json : report -> Report.Json.t
(** Schema ["ntcu-bench-arena/1"]; contains no timing or host-dependent
    fields. *)

val write : path:string -> report -> unit

val pp_report : report Fmt.t
(** Plain-text paired table plus any invariant violations. *)

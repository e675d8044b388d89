(** Invariant monitors for exploration episodes.

    Two families: {!quiescent} checks run after the simulation drains and
    judge the end state against everything the paper proves (Theorem 2
    liveness, Definition 3.8 consistency, the Section 3.3 C-set tree
    conditions) plus repo-level bookkeeping (reverse-neighbor registration,
    reliable-transport accounting); {!midflight} checks are the subset that
    must hold at {e every} instant of a run — anything they catch is a bug
    even while joins are still in flight. *)

type violation = Ntcu_protocol.Protocol.violation = { name : string; detail : string }
(** The protocols' violation record ({!Ntcu_protocol.Protocol.pp_violation}
    prints it). [name] is a stable category: here ["liveness"],
    ["consistency"], ["cset"], ["reverse"], ["reliability"] or ["budget"],
    and the ["chord-"] ones of {!Ntcu_chord.Chord.check}. Delta debugging
    considers a probe a reproduction when it yields a violation with the
    same name. [detail] gives the specifics of the first offence. *)

val signature : violation -> string
(** ["name: detail"] — the exact-match identity used by repro replay. *)

val quiescent :
  ?expect_budget:bool ->
  ?expect_consistency:bool ->
  net:Ntcu_core.Network.t ->
  seeds:Ntcu_id.Id.t list ->
  joiners:Ntcu_id.Id.t list ->
  unit ->
  violation list
(** All end-state checks, most fundamental first:

    - ["liveness"]: every joiner reached [in_system] (Theorem 2).
    - ["consistency"]: [Check.violations] over the live tables is empty
      (Definition 3.8).
    - ["cset"]: for every notification-suffix group of joiners with a
      nonempty [V_root], the realized C-set tree satisfies conditions (1–3)
      of Section 3.3.
    - ["reverse"]: every filled entry [(l, j) -> y] of a live node [x] is
      mirrored by [x] in [y]'s reverse-neighbor set at [(l, j)] — the
      RvNghNotiMsg bookkeeping the repair layers depend on.
    - ["reliability"]: with the ack/retransmit transport on, every delivered
      or duplicate-suppressed copy was acked:
      [acks_sent = delivered + duplicates].
    - ["budget"]: per joiner, [CpRstMsg + JoinWaitMsg <= d + 1] (Theorem 3).

    [expect_budget] (default [true]) gates the budget check: failovers
    legally re-send [JoinWaitMsg] in lossy/crash episodes.
    [expect_consistency] (default [true]) gates the consistency and cset
    checks: when crashes overlap in-flight joins, the online-repair stack is
    best-effort — a refill can find only mid-join candidates and leave a
    hole (the bench's fault grid reports exactly this) — so crash episodes
    assert the defended claims (liveness, reverse bookkeeping, transport
    accounting) instead. *)

val midflight :
  ?stride:int ->
  ?expect_budget:bool ->
  net:Ntcu_core.Network.t ->
  joiners:Ntcu_id.Id.t list ->
  unit ->
  unit ->
  violation option
(** [midflight ~net ~joiners ()] is an engine observer body: call it after
    every delivered event ({!Ntcu_sim.Engine.set_observer}); every [stride]
    (default 64) events it checks the always-invariants — the Theorem 3
    budget (when [expect_budget]) and that no [in_system] node still holds
    pending replies — and returns the first violation found, after which it
    goes quiet. *)

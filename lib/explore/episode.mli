(** One exploration episode: a seeded workload run under an adversarial
    scheduler, judged by the invariant monitors.

    Everything an episode does is a deterministic function of its {!config}
    — workload, latencies, crash set, scheduler decisions and checks all
    derive from the config's seeds — so an episode that violates an
    invariant can be re-run bit-identically from the config alone, which is
    what shrinking and repro replay rely on. *)

type scenario =
  | Concurrent
      (** [m] independent joins into an [n]-node network, all at t=0:
          {!Ntcu_harness.Experiment.concurrent_joins}' workload. *)
  | Dependent
      (** The same, with every joiner ID ending in digit 2 — a maximally
          dependent C-set workload, the hardest case of the Section 5
          proof. *)
  | Fault
      (** {!Ntcu_harness.Experiment.fault_injection}'s workload at its
          defaults ({!Ntcu_harness.Experiment.Faults}): message loss and
          mid-join crashes under the reliable transport and online repair.
          Checks that the defended protocol still converges; at seed 196,
          b = 4, d = 6, n = 24, m = 10 under [Nop] it is the
          {!Ntcu_harness.Experiment.residual_hole} run. *)
  | Churn
      (** A seconds-scale continuous-churn steady state ({!Ntcu_churn.Churn})
          under the adversarial scheduler: Poisson arrivals, graceful leaves
          and crashes all overlap while the scheduler perturbs delivery. [m]
          is ignored; the quiescent checks assert the defended claims only
          (liveness, reverse bookkeeping, transport accounting), since
          Definition 3.8 consistency is a measurement under crash churn. *)
  | Chord
      (** [m] joins into an [n]-member Chord ring ({!Ntcu_chord.Chord}), each
          through its key-predecessor seed (a two-frame join lookup), with
          half the joiners crashing at 45 ms — before any unperturbed join
          can complete (latency floor 25 ms per frame). Only a schedule that
          rushes critical join frames puts a victim into the ring before it
          dies; [chord_naive] then exhibits the classic stabilize bugs
          (ring-specific monitors from {!Ntcu_chord.Chord.check}), while
          corrected stabilization repairs the same schedule. *)

val scenario_name : scenario -> string
val scenario_of_name : string -> scenario option

val fault_name : Ntcu_core.Node.fault -> string
val fault_of_name : string -> Ntcu_core.Node.fault option

type config = {
  scenario : scenario;
  b : int;  (** Digit base of the ID space. *)
  d : int;  (** Number of digits. *)
  n : int;  (** Initial network size. *)
  m : int;  (** Joiners. *)
  seed : int;  (** Workload seed (population, latencies, gateways, crashes). *)
  sched_seed : int;  (** Scheduler seed. *)
  scheduler : Scheduler.kind;
  fault : Ntcu_core.Node.fault option;
      (** Test-only injected protocol bug ({!Ntcu_core.Node.fault}). *)
  chord_naive : bool;
      (** {!Chord} scenario only: run the classic incorrect stabilize instead
          of the corrected protocol. Ignored by the other scenarios. *)
  midflight : bool;
      (** Also run the mid-flight monitors during the run (join scenarios
          and {!Churn}; the {!Chord} monitors are quiescent-only). *)
}

val pp_config : config Fmt.t

type outcome = {
  config : config;
  violations : Invariants.violation list;
      (** Empty iff the episode passed. A mid-flight catch aborts the run
          and is the sole entry. *)
  interventions : Scheduler.intervention list;
      (** The schedule perturbations actually applied, in frame order. *)
  frames : int;  (** Wire frames scheduled (delay-hook consultations). *)
  events : int;  (** Messages delivered. *)
  digest : string;  (** {!Ntcu_sim.Trace.digest} of the delivery trace. *)
}

val run : config -> outcome
(** Execute the episode. Never raises on an invariant violation — failures
    are reported in [violations]. *)

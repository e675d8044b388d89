(** Adversarial schedulers for the exploration harness.

    The simulator delivers messages in sampled-latency order, so "schedule"
    here means the multiset of per-frame delays. A scheduler perturbs the
    sampled delay of selected frames by a multiplicative factor, through the
    simulated wire's delay hook ({!Ntcu_sim.Transport.hook}), which the
    paper's network, Chord and the multicast baseline all send through;
    because the hook numbers frames deterministically ([seq]), every
    perturbation is an {!intervention} [(seq, factor)] that can be recorded,
    minimized by delta debugging, and replayed exactly with {!Fixed}. *)

type intervention = { seq : int; factor : float }

type kind =
  | Nop  (** No perturbation — the baseline schedule. *)
  | Random_delay of { scale : float }
      (** Every frame's delay is multiplied by a log-uniform factor in
          [\[1/scale, scale\]] — a blunt permuter of delivery order. *)
  | Pct of { bands : int; invert : float }
      (** PCT-style priority scheduler: each frame is assigned a random
          priority band [0 .. bands-1] and slowed by [2^band]; with
          probability [invert] a frame is instead rushed ([x1/16]) — the
          analogue of PCT's priority-change points. *)
  | Targeted of { probability : float; stretch : float }
      (** Reorders only the frames the protocol calls ordering-critical
          ({!Ntcu_core.Message.ordering_critical} for the paper's protocol):
          each such frame is, with the given probability, either delayed by
          [stretch] or rushed by [1/stretch] (fair coin). Acks and
          copy-phase traffic are left alone, so interventions stay sparse
          and shrink well. *)
  | Fixed of intervention list
      (** Replay: frame [seq] gets the recorded factor, every other frame is
          untouched. This is the scheduler delta debugging probes with and
          repro files run under. *)

val kind_name : kind -> string
(** ["nop"], ["random"], ["pct"], ["targeted"] or ["fixed"]. *)

type t

val make : seed:int -> kind -> t
(** Instantiate a scheduler. [seed] drives all its random choices; the same
    [seed] and [kind] against the same deterministic run perturb identically.
    ([Nop] and [Fixed] ignore the seed.) *)

val hook : t -> Ntcu_sim.Transport.hook
(** The delay-rewriting function to install with
    [Network.set_delay_hook net (Some (Scheduler.hook t))] (or the
    [set_delay_hook] of Chord or any {!Ntcu_protocol.Protocol.S}). *)

val recorded : t -> intervention list
(** Every intervention applied so far (factor <> 1), in [seq] order. Running
    the same episode again under [Fixed (recorded t)] reproduces the
    perturbed schedule exactly. *)

val frames_seen : t -> int
(** Number of frames the hook has been consulted for. *)

(** Experiment drivers for the paper's evaluation (Section 5.2, Figure 15)
    and for the comparison and ablation benches. *)

type join_run = {
  net : Ntcu_core.Network.t;
  seeds : Ntcu_id.Id.t list;  (** The initial consistent network [V]. *)
  joiners : Ntcu_id.Id.t list;  (** The joining set [W]. *)
  join_noti : int array;  (** Per joiner: # [JoinNotiMsg] sent ([J]). *)
  cp_wait : int array;  (** Per joiner: # [CpRstMsg + JoinWaitMsg] sent. *)
  consistent : bool;
      (** Definition 3.8 yes/no, probed with [Check.violations ~limit:1] (the
          scan aborts at the first violation). *)
  violations : Ntcu_table.Check.violation list Lazy.t;
      (** The full violation list, computed on demand: only forced by
          consumers that report details of an inconsistent network. Force it
          from one domain at a time. *)
  all_in_system : bool;
  quiescent : bool;
  events : int;  (** Messages delivered. *)
}

val consistent : join_run -> bool

(** What a run is allowed to promise. [Strict] is the paper's regime
    (assumptions (i)–(iv) hold): liveness, quiescence {e and} Def-3.8
    consistency are claimed. [Best_effort] is the fault/churn regime:
    crash-over-join repair can legitimately leave a residual hole (e.g.
    [ntcu fault -n 24 -m 10 -b 4 -d 6 --seed 196 --crash 0.05] converges
    live and quiescent with exactly one), so consistency is reported but not
    claimed — only liveness and quiescence gate the exit status. *)
type claim = Strict | Best_effort

val ok : ?claim:claim -> join_run -> bool
(** [all_in_system && quiescent && (claim = Best_effort || consistent)] — the
    healthy-run predicate (default [Strict]). Bench sections and CLI commands
    gate their exit status on this so a regression fails CI instead of just
    printing "NO"; fault and churn modes pass [~claim:Best_effort]. *)

val concurrent_joins :
  ?latency:Ntcu_sim.Latency.t ->
  ?size_mode:Ntcu_core.Message.size_mode ->
  ?suffix:int array ->
  ?stagger:float ->
  Ntcu_id.Params.t ->
  seed:int ->
  n:int ->
  m:int ->
  unit ->
  join_run
(** Build a consistent network of [n] random nodes, then start [m] joins.
    All joins start at time 0 (the paper's setup) unless [stagger > 0.], in
    which case join [i] starts at [i *. stagger]. [suffix] constrains joiner
    IDs to share a suffix — a maximally dependent C-set workload. Gateways
    are random members of [V]. Latency defaults to uniform 1–100 ms, seeded
    from [seed]. Deterministic in [seed]. *)

val sequential_joins :
  Ntcu_id.Params.t ->
  seed:int ->
  n:int ->
  m:int ->
  unit ->
  join_run
(** Same, but each join runs to quiescence before the next begins. *)

val network_init :
  Ntcu_id.Params.t ->
  seed:int ->
  n:int ->
  join_run
(** Section 6.1: start from one node and build an [n]-node network purely by
    (sequential) joins. The "seeds" list contains the single initial node. *)

(** {1 Figure 15(b): simulated join cost over a transit-stub topology} *)

type fig15b_setup = {
  d : int;
  n : int;  (** Initial consistent network size. *)
  m : int;  (** Concurrent joiners. *)
}

val paper_setups : fig15b_setup list
(** The four curves of Figure 15(b): (3096, 1000) and (7192, 1000), each with
    d = 8 and d = 40 (b = 16). *)

val fig15b :
  ?routers:Ntcu_topology.Transit_stub.config ->
  ?record_trace:bool ->
  seed:int ->
  fig15b_setup ->
  join_run
(** Run one Figure 15(b) setup: generate a transit-stub router topology
    (default {!Ntcu_topology.Transit_stub.scaled_config}), attach [n + m]
    end-hosts, use shortest-path latencies, start all joins at time 0. With
    [record_trace] (default false) every delivery is recorded; read it back
    via [Ntcu_core.Network.trace run.net] (golden-trace regression). *)

val cdf_points : int array -> (int * float) list
(** [(value, cumulative fraction <= value)] for each distinct value. *)

(** {1 Figure 15(a): the Theorem 5 bound} *)

val fig15a_series :
  b:int -> d:int -> m:int -> ns:int list -> (int * float) list
(** [(n, bound)] points for one curve. *)

(** {1 Fault injection}

    The paper assumes reliable delivery (iii) and no failures during joins
    (iv). This driver violates both — every message is subject to the loss
    model, and a fraction of non-gateway seed nodes fail-stop mid-join — and
    measures whether the reliability layer (ack/retransmit transport +
    failure suspicion + online repair) restores the Theorem 2 outcome. *)

val detect_failures : Ntcu_core.Network.t -> crashed:Ntcu_id.Id.t list -> unit
(** Eventual failure detection, standing in for a deployment's periodic
    liveness probes: while some crashed node is still referenced by a live
    table and not yet suspected, send it one probe through the reliable
    transport and run the network to quiescence — the retry budget drives
    the usual suspicion -> scrub -> online-repair path. Requires the network
    to have been created with a reliability config. *)

type fault_run = {
  run : join_run;
  crashed : Ntcu_id.Id.t list;  (** The fail-stopped nodes. *)
  stuck : int;  (** Joiners short of [in_system] at quiescence. *)
  retransmissions : int;
  timeouts : int;
  failovers : int;
  duplicates : int;  (** Duplicate copies suppressed at receivers. *)
  lost : int;  (** Protocol-message copies lost in transit. *)
  acks_lost : int;
  repair : Ntcu_extensions.Online_repair.report option;
      (** [None] when [reliable] was [false]. *)
}

val fault_injection :
  ?record_trace:bool ->
  ?reliable:bool ->
  ?loss:float ->
  ?crash_fraction:float ->
  Ntcu_id.Params.t ->
  seed:int ->
  n:int ->
  m:int ->
  unit ->
  fault_run
(** Like {!concurrent_joins} (all joins at time 0, random gateways), but with
    [loss] (default 2%) applied to every message and, when
    [crash_fraction > 0], [max 1 (crash_fraction * n)] seed nodes that no
    joiner uses as gateway fail-stopping at time 150 ms. [reliable]
    (default [true]) enables the ack/retransmit transport (initial timeout
    250 ms) and attaches {!Ntcu_extensions.Online_repair}; with
    [reliable:false] the run reproduces the undefended wedge. Deterministic
    in [seed]. *)

val residual_hole : unit -> fault_run
(** The canonical residual-hole fixture:
    [fault_injection ~loss:0.02 ~crash_fraction:0.05 (b=4, d=6) ~seed:196
    ~n:24 ~m:10] — converges live and quiescent with exactly one Def-3.8
    violation, so {!ok} rejects it under [Strict] and accepts it under
    [Best_effort]. The regression fixture behind the best-effort exit-status
    contract of [ntcu fault] and the churn engine. *)

(** {1 Baseline comparison} *)

type baseline_result = {
  base_consistent : bool;
  base_violations : int;
  base_done : bool;
  peak_pending : int;
  pending_slots : int;
  base_messages : int;
}

val baseline_run :
  Ntcu_id.Params.t ->
  seed:int ->
  n:int ->
  m:int ->
  concurrent:bool ->
  baseline_result
(** Run the multicast-join baseline on the same workload shape. *)

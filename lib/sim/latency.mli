(** Message-latency models for the simulated network.

    Endpoints are identified by dense integer indices: the host indices
    {!Transport} assigns in registration order. The consistency results do
    not depend on timing, but the latency model shapes the event
    interleavings that exercise the concurrent-join paths; the paper used
    shortest-path distances over GT-ITM transit-stub topologies. *)

type t

val min_delay : float
(** Smallest delay {!sample} will ever return ([1e-6] ms). Distance-based
    models clamp to it, so two co-located endpoints (distance [0.], no
    jitter) still exchange messages with strictly positive delay — virtual
    time always advances and same-host messages keep FIFO order via the
    engine's tie-break rather than a zero-delay shortcut. {!Transport}
    clamps a delay hook's non-positive result to it too. *)

val constant : float -> t
(** Every message takes the same time. The degenerate (most synchronous)
    interleaving. *)

val uniform : seed:int -> lo:float -> hi:float -> t
(** Independent uniform delay per message in [\[lo, hi)]. *)

val of_distance : ?jitter:float -> ?seed:int -> (src:int -> dst:int -> float) -> t
(** Delay given by a distance function (e.g. topology shortest paths), plus an
    optional multiplicative jitter: the delay is scaled by a factor uniform in
    [\[1, 1 +. jitter)]. [seed] defaults to [0]; [jitter] to [0.]. *)

val sample : t -> src:int -> dst:int -> float
(** Draw the delay for one message from [src] to [dst]. Always [> 0.] by
    construction (constant and uniform models are built positive, distances
    are clamped), so callers need no clamp of their own. Adversarial
    perturbation is not a latency model: it is {!Transport}'s delay hook. *)

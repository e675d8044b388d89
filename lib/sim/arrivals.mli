(** Recurring event sources on an {!Engine}.

    A source fires an action at stochastic intervals: after each firing it
    draws the next inter-arrival delay from its sampler and reschedules
    itself, until the sampler returns [None] or {!stop} cancels the pending
    timer. All randomness comes from the sampler's own seeded RNG, so a
    source is as deterministic as the engine it runs on.

    This is the churn driver's clockwork: Poisson join arrivals, periodic
    maintenance probes and time-series samplers are all instances. *)

type t

val start :
  Engine.t -> ?first:float -> next:(unit -> float option) -> (now:float -> unit) -> t
(** [start engine ~next action] draws the first delay from [next] and
    schedules the source. At each firing the following delay is drawn
    {e before} [action] runs, so the action's own RNG use cannot perturb the
    arrival process. [?first] overrides the delay to the first firing only.
    A [None] from [next] retires the source.
    @raise Invalid_argument if a sampled delay is negative. *)

val stop : t -> unit
(** Cancel the pending firing. Idempotent; the source never fires again. *)

val poisson : rate:float -> Ntcu_std.Rng.t -> unit -> float option
(** Exponential inter-arrival sampler for a Poisson process with [rate]
    events per unit of virtual time.
    @raise Invalid_argument if [rate <= 0.]. *)

val every : float -> unit -> float option
(** Fixed-period sampler (periodic maintenance, time-series sampling).
    @raise Invalid_argument if the period is not positive. *)

val take : int -> (unit -> float option) -> unit -> float option
(** [take k next] passes through the first [k] draws of [next], then returns
    [None] — a source armed with it retires after at most [k + 1] firings
    ([?first] plus [k] sampled delays). Bounded workload drivers (a fixed
    number of serve ticks inside a churn window) are the intended use.
    @raise Invalid_argument if [k < 0]. *)

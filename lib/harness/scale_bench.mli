(** Measurement harness for the sharded scale engine.

    Wraps {!Ntcu_scale.Scale.run} with host-side instrumentation (wall
    clock, GC peak) and a record-backed memory control, and renders the
    [BENCH_scale.json] artifact. The artifact separates the {e payload} — a
    deterministic function of the configuration, byte-identical for every
    [--jobs] value — from the {e host} section (timings, GC, per-process
    measurements), so CI can compare payloads across worker counts while
    keeping honest machine-dependent numbers alongside. *)

module Scale = Ntcu_scale.Scale

type run = {
  config : Scale.config;
  jobs : int;
  summary : Scale.summary;
  wall_s : float;  (** host-side wall-clock seconds *)
  top_heap_words : int;  (** GC peak over the run *)
}

val default_config : ?seed:int -> n:int -> unit -> Scale.config
(** The paper's simulated space ([b = 16], [d = 8]) with
    [min n 1024] seeds, 64 shards and 512 injections per epoch. *)

val smoke_config : Scale.config
(** CI-sized: 2000 nodes over 16 shards. *)

val measure : jobs:int -> Scale.config -> run

val bytes_per_node : Scale.summary -> float
(** Deterministic arena footprint: [8 * store_words / population]. *)

val events_per_s : run -> float

val control_bytes_per_node : ?n:int -> ?seed:int -> Ntcu_id.Params.t -> float
(** Live-heap bytes per node of a record-backed consistent network
    ({!Ntcu_core.Network.seed_consistent}) of [n] (default 10_000) nodes,
    measured by major-GC live-word deltas. Host-side: the comparison point
    for the arena's [bytes_per_node]. *)

val ok : run -> bool
(** Every joiner injected and completed, zero residual violations, and the
    epoch loop quiesced before the safety bound. *)

val payload_json : run -> Report.Json.t
(** The deterministic section only — identical for every [jobs]. *)

val bench_json : control_bytes_per_node:float -> run list -> Report.Json.t
(** The full [ntcu-bench-scale/1] artifact. *)

val pp_run : run Fmt.t

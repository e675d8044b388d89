(** Sharded join-and-stabilize engine for very large runs.

    One run holds the whole population in {!Node_store} arenas — one arena
    per logical shard, nodes assigned by id suffix region (low bits of the
    packed id) — and advances in integer {e epochs}. Within an epoch every
    shard processes its due message frames independently; frames addressed
    to another shard are batched through the wire codec
    ({!Ntcu_core.Codec.encode_frames}) and handed over at the epoch barrier.
    Message latency is a pure hash of (src, dst) in
    [1 .. Ntcu_core.Codec.max_latency] epochs, so the computation is a
    deterministic function of the configuration: running with [jobs = 4]
    produces the same summary, bit for bit, as [jobs = 1].

    The protocol is the paper's join in epoch form: a copy walk
    (CpRst/CpRly) up the shared-suffix levels, an attach handshake
    (JoinWait/JoinWaitRly) with deferral while the target is itself
    notifying and redirects toward longer-suffix occupants, a notify round
    (JoinNoti/JoinNotiRly) installing the joiner at its peers, an in-system
    fanout over reverse pointers, and reverse-pointer upkeep
    (RvNghNoti/RvFix). A final stabilize pass force-completes stragglers,
    fills residual holes from a serial witness index, and counts remaining
    violations (which must be zero). *)

type config = {
  params : Ntcu_id.Params.t;  (** must be packable *)
  n : int;  (** total population, seeds included *)
  seeds : int;  (** initially in-system nodes, witness-filled *)
  seed : int;  (** RNG seed for id generation *)
  shards : int;  (** logical shard count; power of two. Fixed regardless of
                     [jobs], so worker count never affects partitioning. *)
  inject_per_epoch : int;  (** joiners started per epoch *)
  max_epochs : int;  (** safety bound on the epoch loop *)
}

type summary = {
  population : int;
  seed_count : int;
  shard_count : int;
  epochs : int;  (** epochs executed before quiescence *)
  injected : int;  (** joiners started *)
  events : int;  (** message frames processed *)
  kind_counts : (string * int) list;  (** frames processed per message kind *)
  cross_batches : int;  (** nonempty shard-to-shard batches moved *)
  cross_bytes : int;  (** wire bytes of those batches *)
  redirects : int;  (** JoinWait redirects toward longer-suffix occupants *)
  deferrals : int;  (** JoinWaits queued behind a notifying target *)
  stuck : int;  (** nodes force-completed by stabilize *)
  stabilize_fills : int;  (** residual holes filled from the witness index *)
  violations : int;  (** holes with a live witness after stabilize *)
  store_words : int;  (** deterministic arena size, summed over shards *)
  shard_events : int array;  (** per-shard frame counts (load imbalance) *)
}

val run : ?jobs:int -> config -> summary
(** Execute the run. [jobs] sizes the worker pool ({!Ntcu_std.Parallel});
    it accelerates the run but never changes the summary.
    @raise Invalid_argument on an unpackable space, a non-power-of-two
    shard count, or [seeds] outside [1 .. n]. *)

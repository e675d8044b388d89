(** The simulated wire every event-driven protocol sends through: the
    paper's [Ntcu_core.Network], [Ntcu_chord.Chord] and the multicast-join
    baseline. It owns the {!Engine.t}, the node registry with host indices,
    the {!Latency.t} model, the delay hook with its frame [seq], the delivery
    count and the optional delivery trace. A protocol keeps what is its own:
    which frames are ordering-critical, how a delivery reads in the trace,
    where a delivery counts, and anything layered on top (loss, acks,
    retransmission). *)

type hook =
  critical:bool -> src:Ntcu_id.Id.t -> dst:Ntcu_id.Id.t -> seq:int -> float -> float
(** Adversarial delay rewriting: gets the sampled delay last and returns the
    delay to use. [critical] is the sender's classification of the frame;
    [seq] numbers hook calls from 0 in scheduling order, so the same seeds
    give the same sequence and a scheduler keyed on [seq] replays exactly. *)

type ('node, 'msg) t

val create :
  ?latency:Latency.t ->
  ?record_trace:bool ->
  label:(src:Ntcu_id.Id.t -> dst:Ntcu_id.Id.t -> 'msg -> string) ->
  unit ->
  ('node, 'msg) t
(** A wire over a fresh engine. Default latency: constant 1.0 ms. With
    [record_trace] (default [false]) each {!arrive} is recorded under
    [label], which is called only then. *)

val engine : (_, _) t -> Engine.t
val trace : (_, _) t -> Trace.t option

(** {1 Registry} *)

val register : ('node, _) t -> Ntcu_id.Id.t -> 'node -> unit
(** Add a node with the next host index (0, 1, 2, … in registration order),
    which keys the latency model.
    @raise Invalid_argument if the id is registered. *)

val remove : (_, _) t -> Ntcu_id.Id.t -> unit
(** Unregister a node. Its host index is never reused and stays valid, so
    frames in flight to or from it still sample latency.
    @raise Invalid_argument if the id is not registered. *)

val find : ('node, _) t -> Ntcu_id.Id.t -> 'node option
val mem : (_, _) t -> Ntcu_id.Id.t -> bool

val host : (_, _) t -> Ntcu_id.Id.t -> int
(** @raise Not_found for an id never registered. *)

val ids : (_, _) t -> Ntcu_id.Id.t list
(** Registered ids in registration order. *)

val size : (_, _) t -> int

(** {1 The wire} *)

val set_hook : (_, _) t -> hook option -> unit
(** Install (or clear) the delay hook. Frames sent without one are not
    numbered. *)

val send :
  (_, _) t ->
  critical:bool ->
  src:Ntcu_id.Id.t ->
  dst:Ntcu_id.Id.t ->
  (unit -> unit) ->
  unit
(** Put one frame on the wire: sample the latency between the two hosts,
    pass it through the hook if one is installed (clamping a non-positive
    result to {!Latency.min_delay}) and schedule the delivery thunk after
    that delay. A frame a protocol's loss model drops must not reach [send],
    so the hook never sees it. *)

val arrive : (_, 'msg) t -> src:Ntcu_id.Id.t -> dst:Ntcu_id.Id.t -> 'msg -> unit
(** Count one delivery and, with a trace, record its label at the current
    virtual time. Each protocol calls it where its deliveries count. *)

val delivered : (_, _) t -> int
(** Number of {!arrive} calls. *)

(** End-hosts attached to a router topology.

    Following the paper's setup, end-hosts (the peer-to-peer nodes) are
    attached to randomly chosen stub routers with a short last-mile link. The
    host-to-host distance — last mile + router shortest path + last mile — is
    the message latency used by the simulator. *)

type t

val attach : seed:int -> Transit_stub.t -> n:int -> t
(** Attach [n] end-hosts to uniformly random stub routers, deterministic in
    [seed]. *)

val count : t -> int

val distances : t -> Distances.t
(** The underlying router-distance oracle, in clustered mode; use
    {!Distances.stats} for its query counters. *)

val router_of : t -> int -> int
(** Attachment router of a host index. *)

val distance : t -> int -> int -> float
(** Host-to-host one-way latency (milliseconds). [0.] for a host and itself. *)

val latency : ?jitter:float -> ?seed:int -> t -> Ntcu_sim.Latency.t
(** The latency model fed to the simulator. *)

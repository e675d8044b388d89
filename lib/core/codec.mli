(** Binary wire format of the sharded engine's cross-shard frames.

    The sharded engine (Ntcu_scale.Scale) batches the frames one shard sends
    another through {!encode_frames} and hands the batch over at the epoch
    barrier, where {!decode_frames} reads it back. An identifier takes
    {!Message.id_bytes} bytes on the wire, the width the message-size model
    gives it, and every decoded field is checked against the parameter
    space: the decoder never trusts the wire beyond the buffer.

    The core engine (Ntcu_core.Network) passes {!Message.t} values in memory
    and never encodes them; it counts their bytes with {!Message.size_bytes}
    (Sections 5.2 and 6.2). *)

type context
(** What the codec derives from one parameter space: digit width,
    identifier bytes, the packed layout, and whether every digit pattern
    names a digit (power-of-two bases). It is only read once built, so one
    context serves every shard and domain of a run. *)

val context : Ntcu_id.Params.t -> context
(** @raise Invalid_argument if the space is not packable
    ({!Ntcu_id.Packed.packable}), as {!Ntcu_id.Packed.layout} does. *)

(** {1 Frames of the sharded engine}

    In memory a frame is a flat int sequence in an {!Ntcu_std.Intbuf.t}.
    An {e outbox} frame, as a shard emits it for another shard, is
    [[nargs; kind; src; dst; delta; payload...]] with
    [nargs = 1 + |payload|]. A {e ring} frame, as a shard processes it, is
    [[nargs; kind; src; dst; payload...]] with [nargs = |payload|]. [src],
    [dst] and ids in the payload are packed identifiers
    ([(x : Ntcu_id.Packed.t :> int)]); [delta] is the delivery-epoch offset,
    [1 .. max_latency].

    Payloads by kind, where [cells] is a count followed by that many
    [(pos * 2 + state, occupant)] pairs ([pos = level * b + digit]):
    - [kind_cp_rst]: [[level]]
    - [kind_cp_rly]: [[level; cells]]
    - [kind_join_wait], [kind_in_sys_noti]: empty
    - [kind_join_wait_rly]: [[sign; occupant; cells]]
    - [kind_join_noti]: [[noti_level; cells]]
    - [kind_join_noti_rly]: [[sign; cells]]
    - [kind_rv_ngh_noti]: [[level; digit; state]]
    - [kind_rv_fix]: [[level; digit]]

    On the wire every int field is an LEB128 varint, and every identifier
    takes [ceil(d log2 b / 8)] bytes ({!Message.id_bytes}): its packed value,
    little-endian. *)

val kind_cp_rst : int
val kind_cp_rly : int
val kind_join_wait : int
val kind_join_wait_rly : int
val kind_join_noti : int
val kind_join_noti_rly : int
val kind_in_sys_noti : int
val kind_rv_ngh_noti : int
val kind_rv_fix : int

val kind_count : int
(** Frame kinds are [0 .. kind_count - 1]. *)

val kind_name : int -> string
(** ["cp_rst"], ["join_noti"], ...
    @raise Invalid_argument outside [0 .. kind_count - 1]. *)

val max_latency : int
(** Largest delivery-epoch offset a frame carries. *)

exception Malformed of string
(** Raised by {!decode_frames} on truncated or invalid input. *)

val encode_frames : context -> Ntcu_std.Intbuf.t -> Buffer.t -> unit
(** [encode_frames c out w] appends the wire image of every outbox frame in
    [out] to [w].
    @raise Invalid_argument if a frame has an unknown kind. *)

val decode_frames : context -> string -> select:(delta:int -> Ntcu_std.Intbuf.t) -> int
(** [decode_frames c data ~select] appends each frame of [data], as a ring
    frame, to [select ~delta] and returns the frame count.
    @raise Malformed on truncated or invalid input: an unknown kind, a field
    out of range, or an identifier digit outside the base. *)

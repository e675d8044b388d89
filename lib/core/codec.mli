(** Binary wire format for protocol messages and for the sharded engine's
    frames.

    The simulator passes messages in memory; this codec is what a production
    deployment would put on the wire, and it grounds the byte accounting of
    {!Message.size_bytes}: identifiers are bit-packed ([ceil(d log2 b / 8)]
    bytes), table snapshots are sparse cell lists, and the Section 6.2 bit
    vector is encoded as an actual [d*b]-bit map.

    The format is self-contained given the namespace parameters: one kind
    byte, then kind-specific fields, all little-endian. Decoding validates
    every field against the parameters and never trusts lengths from the
    wire beyond the buffer.

    The sharded engine (Ntcu_scale.Scale) batches its cross-shard frames
    through {!encode_frames} and {!decode_frames}. A frame writes each
    identifier as the same bytes a message does, so the engine's traffic is
    counted in this format too. *)

type context
(** What the codec derives from one parameter space: digit width, identifier
    and bitmap byte counts, the packed layout when the space is packable,
    and whether every digit pattern names a digit (power-of-two bases). It
    also holds the scratch buffer {!encode_ctx} builds a message in, so a
    context that {!encode_ctx} uses belongs to one domain. The frame
    functions below only read the context. *)

val context : Ntcu_id.Params.t -> context

val encode_ctx : context -> Message.t -> string

val decode_ctx : context -> string -> (Message.t, string) result

val encoded_size_ctx : context -> Message.t -> int

val encode : Ntcu_id.Params.t -> Message.t -> string
(** [encode p m] is [encode_ctx (context p) m]; convenient for one-off use. *)

val decode : Ntcu_id.Params.t -> string -> (Message.t, string) result
(** Inverse of {!encode}: [decode p (encode p m)] returns [Ok m'] with [m']
    structurally equal to [m]. Malformed input yields [Error] with a
    diagnostic, never an exception. *)

val encoded_size : Ntcu_id.Params.t -> Message.t -> int
(** [String.length (encode p m)], without building the string. *)

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
    takes the [ceil(d log2 b / 8)] bytes {!encode} writes for it. Only
    packable spaces ({!Ntcu_id.Packed.packable}) have frames. *)

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
(** Raised by {!decode_frames} on truncated or invalid input (the message
    decoders return a [result] instead). *)

val encode_frames : context -> Ntcu_std.Intbuf.t -> Buffer.t -> unit
(** [encode_frames c out w] appends the wire image of every outbox frame in
    [out] to [w].
    @raise Invalid_argument if the space is not packable or a frame has an
    unknown kind. *)

val decode_frames : context -> string -> select:(delta:int -> Ntcu_std.Intbuf.t) -> int
(** [decode_frames c data ~select] appends each frame of [data], as a ring
    frame, to [select ~delta] and returns the frame count.
    @raise Malformed on truncated or invalid input: an unknown kind, a field
    out of range, or an identifier digit outside the base.
    @raise Invalid_argument if the space is not packable. *)

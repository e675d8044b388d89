module Params = Ntcu_id.Params
module Packed = Ntcu_id.Packed
module Codec = Ntcu_core.Codec

(* Cross-shard delivery batches, in the repository's wire format.

   In-memory frames are flat int sequences in {!Intbuf} buffers:

   - outbox frame  (what a shard emits for another shard):
       [nargs; kind; src; dst; delta; payload...]   nargs = 1 + |payload|
   - ring frame    (what a shard processes, local or decoded):
       [nargs; kind; src; dst; payload...]          nargs = |payload|

   [delta] is the delivery-epoch offset (1 .. {!max_latency}); decoding
   places each frame in the destination ring slot [delta] epochs after the
   batch's send epoch, so the wire carries it while ring placement encodes
   it.

   On the wire a frame is: kind uvarint, src and dst as standard identifier
   images ({!Codec.put_raw_id} — the same bytes the message codec emits),
   delta uvarint, then a kind-specific payload of uvarints and ids. Kind,
   delta, level, digit and sign fields cost one byte each (below 0x80 for
   any d, b < 128). Two fields can take two bytes: a cell's [pos*2+sbit]
   once [pos >= 64] (level >= 4 in b16/d8), and a cell count from 128 on
   (a full b16/d8 table). Byte counts are therefore honest message-size
   accounting in the same model as {!Ntcu_core.Message.size_bytes}'s id
   packing. *)

let kind_cp_rst = 0
let kind_cp_rly = 1
let kind_join_wait = 2
let kind_join_wait_rly = 3
let kind_join_noti = 4
let kind_join_noti_rly = 5
let kind_in_sys_noti = 6
let kind_rv_ngh_noti = 7
let kind_rv_fix = 8

let kind_count = 9

let kind_name = function
  | 0 -> "cp_rst"
  | 1 -> "cp_rly"
  | 2 -> "join_wait"
  | 3 -> "join_wait_rly"
  | 4 -> "join_noti"
  | 5 -> "join_noti_rly"
  | 6 -> "in_sys_noti"
  | 7 -> "rv_ngh_noti"
  | 8 -> "rv_fix"
  | _ -> invalid_arg "Wire.kind_name"

let max_latency = 3
(** Largest delivery-epoch offset the latency model assigns; ring depth is
    [max_latency + 1]. *)

type ctx = {
  codec : Codec.context;
  lay : Packed.layout;
  d : int;
  b : int;
  pow2 : bool; (* power-of-two base: every masked digit pattern is valid *)
}

let ctx (p : Params.t) =
  if not (Packed.packable p) then invalid_arg "Wire.ctx: parameter space is not packable";
  {
    codec = Codec.context p;
    lay = Packed.layout p;
    d = p.d;
    b = p.b;
    pow2 = p.b land (p.b - 1) = 0;
  }

(* ---- encoding (outbox intbuf -> bytes) ---- *)

let put_cells c (fr : int array) pos w ~count =
  Codec.put_uvarint w count;
  let p = ref pos in
  for _ = 1 to count do
    (* cell = pos*2+sbit uvarint, then the occupant id *)
    Codec.put_uvarint w fr.(!p);
    Codec.put_raw_id w c.codec fr.(!p + 1);
    p := !p + 2
  done;
  !p

let encode c (out : Intbuf.t) (w : Buffer.t) =
  let fr = out.Intbuf.a and n = Intbuf.length out in
  let pos = ref 0 in
  while !pos < n do
    let nargs = fr.(!pos) in
    let kind = fr.(!pos + 1) in
    let src = fr.(!pos + 2) in
    let dst = fr.(!pos + 3) in
    let delta = fr.(!pos + 4) in
    let a = !pos + 5 in
    Codec.put_uvarint w kind;
    Codec.put_raw_id w c.codec src;
    Codec.put_raw_id w c.codec dst;
    Codec.put_uvarint w delta;
    (if kind = kind_cp_rst then Codec.put_uvarint w fr.(a)
     else if kind = kind_cp_rly then begin
       Codec.put_uvarint w fr.(a);
       let count = fr.(a + 1) in
       ignore (put_cells c fr (a + 2) w ~count)
     end
     else if kind = kind_join_wait || kind = kind_in_sys_noti then ()
     else if kind = kind_join_wait_rly then begin
       Codec.put_uvarint w fr.(a);
       Codec.put_raw_id w c.codec fr.(a + 1);
       let count = fr.(a + 2) in
       ignore (put_cells c fr (a + 3) w ~count)
     end
     else if kind = kind_join_noti || kind = kind_join_noti_rly then begin
       Codec.put_uvarint w fr.(a);
       let count = fr.(a + 1) in
       ignore (put_cells c fr (a + 2) w ~count)
     end
     else if kind = kind_rv_ngh_noti then begin
       Codec.put_uvarint w fr.(a);
       Codec.put_uvarint w fr.(a + 1);
       Codec.put_uvarint w fr.(a + 2)
     end
     else if kind = kind_rv_fix then begin
       Codec.put_uvarint w fr.(a);
       Codec.put_uvarint w fr.(a + 1)
     end
     else invalid_arg "Wire.encode: unknown frame kind");
    pos := !pos + 5 + (nargs - 1)
  done

(* ---- decoding (bytes -> ring intbufs) ---- *)

let malformed msg = raise (Codec.Malformed msg)

let get_id c r =
  let v = Codec.get_raw_id r c.codec in
  if not c.pow2 then (
    match Packed.of_int c.lay v with
    | (_ : Packed.t) -> ()
    | exception Invalid_argument _ -> malformed "identifier digit out of range");
  v

let get_cells c r (buf : Intbuf.t) =
  let count = Codec.get_uvarint r in
  if count > c.d * c.b then malformed "cell count exceeds table size";
  Intbuf.push buf count;
  for _ = 1 to count do
    let ps = Codec.get_uvarint r in
    if ps lsr 1 >= c.d * c.b then malformed "cell position out of range";
    Intbuf.push2 buf ps (get_id c r)
  done;
  count

let decode c (data : string) ~(select : delta:int -> Intbuf.t) =
  let r = Codec.reader data in
  let frames = ref 0 in
  while not (Codec.reader_at_end r) do
    let kind = Codec.get_uvarint r in
    if kind >= kind_count then malformed "unknown frame kind";
    let src = get_id c r in
    let dst = get_id c r in
    let delta = Codec.get_uvarint r in
    if delta < 1 || delta > max_latency then malformed "delivery delta out of range";
    let buf = select ~delta in
    (* header placeholder: patch nargs once the payload length is known *)
    let hdr = Intbuf.length buf in
    Intbuf.push buf 0;
    Intbuf.push3 buf kind src dst;
    (if kind = kind_cp_rst then begin
       let level = Codec.get_uvarint r in
       if level >= c.d then malformed "level out of range";
       Intbuf.push buf level
     end
     else if kind = kind_cp_rly then begin
       let level = Codec.get_uvarint r in
       if level >= c.d then malformed "level out of range";
       Intbuf.push buf level;
       ignore (get_cells c r buf)
     end
     else if kind = kind_join_wait || kind = kind_in_sys_noti then ()
     else if kind = kind_join_wait_rly then begin
       let sign = Codec.get_uvarint r in
       if sign > 1 then malformed "bad sign";
       Intbuf.push2 buf sign (get_id c r);
       ignore (get_cells c r buf)
     end
     else if kind = kind_join_noti then begin
       let noti_level = Codec.get_uvarint r in
       if noti_level >= c.d then malformed "noti_level out of range";
       Intbuf.push buf noti_level;
       ignore (get_cells c r buf)
     end
     else if kind = kind_join_noti_rly then begin
       let sign = Codec.get_uvarint r in
       if sign > 1 then malformed "bad sign";
       Intbuf.push buf sign;
       ignore (get_cells c r buf)
     end
     else if kind = kind_rv_ngh_noti then begin
       let level = Codec.get_uvarint r in
       let digit = Codec.get_uvarint r in
       let sbit = Codec.get_uvarint r in
       if level >= c.d || digit >= c.b || sbit > 1 then malformed "bad rv_ngh_noti";
       Intbuf.push3 buf level digit sbit
     end
     else if kind = kind_rv_fix then begin
       let level = Codec.get_uvarint r in
       let digit = Codec.get_uvarint r in
       if level >= c.d || digit >= c.b then malformed "bad rv_fix";
       Intbuf.push2 buf level digit
     end
     else malformed "unknown frame kind");
    Intbuf.set buf hdr (Intbuf.length buf - hdr - 4);
    incr frames
  done;
  !frames

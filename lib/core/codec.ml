module Params = Ntcu_id.Params
module Packed = Ntcu_id.Packed

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Everything the codec derives from the namespace parameters, computed once
   per run and only read afterwards. *)
type context = {
  p : Params.t;
  bpd : int; (* bits per digit *)
  idb : int; (* bytes per identifier, the message model's [Message.id_bytes] *)
  lay : Packed.layout;
  pow2 : bool; (* power-of-two base: every masked digit pattern is valid *)
}

let context (p : Params.t) =
  let lay = Packed.layout p in
  {
    p;
    bpd = Packed.bits lay;
    idb = Message.id_bytes p;
    lay;
    pow2 = p.b land (p.b - 1) = 0;
  }

(* ---- writer ---- *)

type writer = Buffer.t

(* An identifier's wire image is its packed value, little-endian in [idb]
   bytes: digit i at bits [i*bpd, (i+1)*bpd). Four bytes per store while
   four remain, then single bytes: the same image for every width. *)
let put_raw_id (w : writer) c v =
  let v = ref v and left = ref c.idb in
  while !left >= 4 do
    Buffer.add_int32_le w (Int32.of_int !v);
    v := !v lsr 32;
    left := !left - 4
  done;
  while !left > 0 do
    Buffer.add_char w (Char.unsafe_chr (!v land 0xff));
    v := !v lsr 8;
    decr left
  done

(* ---- reader ---- *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then
    malformed "truncated frame: need %d bytes at offset %d of %d" n r.pos
      (String.length r.data)

let g8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

(* Inverse of [put_raw_id]: the packed value from [idb] little-endian bytes.
   Padding bits above [d*bpd] are masked off. A non-power-of-two base leaves
   digit patterns that name no digit, and those are rejected. *)
let get_raw_id r c =
  need r c.idb;
  let v = ref 0 and i = ref 0 in
  while !i + 4 <= c.idb do
    let chunk = Int32.to_int (String.get_int32_le r.data (r.pos + !i)) land 0xffff_ffff in
    v := !v lor (chunk lsl (8 * !i));
    i := !i + 4
  done;
  while !i < c.idb do
    v := !v lor (Char.code r.data.[r.pos + !i] lsl (8 * !i));
    incr i
  done;
  r.pos <- r.pos + c.idb;
  let id_bits = c.p.d * c.bpd in
  let v = if id_bits >= 8 * c.idb then !v else !v land ((1 lsl id_bits) - 1) in
  (if not c.pow2 then
     match Packed.of_int c.lay v with
     | (_ : Packed.t) -> ()
     | exception Invalid_argument _ -> malformed "identifier digit out of range");
  v

(* LEB128 unsigned varints, for the counts and deltas of cross-shard batch
   frames: 7 value bits per byte, high bit = continuation, at most 9 bytes
   (63 value bits) accepted. Most batch fields fit one byte, which skips
   the loop both ways. *)
let put_uvarint (w : writer) v =
  if v < 0 then invalid_arg "Codec.put_uvarint: negative";
  if v < 0x80 then Buffer.add_char w (Char.unsafe_chr v)
  else begin
    let v = ref v in
    while !v >= 0x80 do
      Buffer.add_char w (Char.unsafe_chr (!v land 0x7f lor 0x80));
      v := !v lsr 7
    done;
    Buffer.add_char w (Char.unsafe_chr !v)
  end

let get_uvarint r =
  let data = r.data and pos = r.pos in
  if pos < String.length data && Char.code data.[pos] < 0x80 then begin
    r.pos <- pos + 1;
    Char.code data.[pos]
  end
  else begin
    (* a longer value, or none left: the checked byte-by-byte loop *)
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let byte = g8 r in
      if !shift >= 63 then malformed "uvarint overflows 63 bits";
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then continue := false
    done;
    !v
  end

(* ---- batch frames of the sharded engine ---- *)

module Intbuf = Ntcu_std.Intbuf

(* The in-memory layouts are in codec.mli. A frame's delivery-epoch offset
   [delta] is on the wire but not in the ring frame: decoding places the
   frame in the ring slot [delta] epochs after the batch's send epoch.

   On the wire a frame is: kind uvarint, src and dst as identifier images
   ([put_raw_id]), delta uvarint, then a kind-specific payload of uvarints
   and ids. Kind, delta, level, digit and sign fields cost one byte each
   (below 0x80 for any d, b < 128). Two fields can take two bytes: a cell's
   [pos*2+sbit] once [pos >= 64] (level >= 4 in b16/d8), and a cell count
   from 128 on (a full b16/d8 table). *)

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
  | _ -> invalid_arg "Codec.kind_name"

let max_latency = 3

(* A cell list: count, then (pos*2+sbit, occupant) pairs. *)
let put_cells c (fr : int array) pos w ~count =
  put_uvarint w count;
  let p = ref pos in
  for _ = 1 to count do
    put_uvarint w fr.(!p);
    put_raw_id w c fr.(!p + 1);
    p := !p + 2
  done

let encode_frames c (out : Intbuf.t) (w : writer) =
  let fr = out.Intbuf.a and n = Intbuf.length out in
  let pos = ref 0 in
  while !pos < n do
    let nargs = fr.(!pos) in
    let kind = fr.(!pos + 1) in
    let a = !pos + 5 in
    put_uvarint w kind;
    put_raw_id w c fr.(!pos + 2);
    put_raw_id w c fr.(!pos + 3);
    put_uvarint w fr.(!pos + 4);
    (if kind = kind_cp_rst then put_uvarint w fr.(a)
     else if kind = kind_cp_rly || kind = kind_join_noti || kind = kind_join_noti_rly
     then begin
       put_uvarint w fr.(a);
       put_cells c fr (a + 2) w ~count:fr.(a + 1)
     end
     else if kind = kind_join_wait || kind = kind_in_sys_noti then ()
     else if kind = kind_join_wait_rly then begin
       put_uvarint w fr.(a);
       put_raw_id w c fr.(a + 1);
       put_cells c fr (a + 3) w ~count:fr.(a + 2)
     end
     else if kind = kind_rv_ngh_noti then begin
       put_uvarint w fr.(a);
       put_uvarint w fr.(a + 1);
       put_uvarint w fr.(a + 2)
     end
     else if kind = kind_rv_fix then begin
       put_uvarint w fr.(a);
       put_uvarint w fr.(a + 1)
     end
     else invalid_arg "Codec.encode_frames: unknown frame kind");
    pos := !pos + 5 + (nargs - 1)
  done

let get_cells c r (buf : Intbuf.t) =
  let cells = c.p.d * c.p.b in
  let count = get_uvarint r in
  if count > cells then malformed "cell count exceeds table size";
  Intbuf.push buf count;
  for _ = 1 to count do
    let ps = get_uvarint r in
    if ps lsr 1 >= cells then malformed "cell position out of range";
    Intbuf.push2 buf ps (get_raw_id r c)
  done

let get_below r bound what =
  let v = get_uvarint r in
  if v >= bound then malformed "%s %d out of range" what v;
  v

let decode_frames c data ~(select : delta:int -> Intbuf.t) =
  let d = c.p.d and b = c.p.b in
  let r = { data; pos = 0 } in
  let frames = ref 0 in
  while r.pos < String.length data do
    let kind = get_below r kind_count "frame kind" in
    let src = get_raw_id r c in
    let dst = get_raw_id r c in
    let delta = get_uvarint r in
    if delta < 1 || delta > max_latency then
      malformed "delivery delta %d out of range" delta;
    let buf = select ~delta in
    (* header placeholder: patch nargs once the payload length is known *)
    let hdr = Intbuf.length buf in
    Intbuf.push buf 0;
    Intbuf.push3 buf kind src dst;
    (if kind = kind_cp_rst then Intbuf.push buf (get_below r d "level")
     else if kind = kind_cp_rly || kind = kind_join_noti then begin
       Intbuf.push buf (get_below r d "level");
       get_cells c r buf
     end
     else if kind = kind_join_wait || kind = kind_in_sys_noti then ()
     else if kind = kind_join_wait_rly then begin
       let sign = get_below r 2 "sign" in
       Intbuf.push2 buf sign (get_raw_id r c);
       get_cells c r buf
     end
     else if kind = kind_join_noti_rly then begin
       Intbuf.push buf (get_below r 2 "sign");
       get_cells c r buf
     end
     else if kind = kind_rv_ngh_noti then begin
       let level = get_below r d "level" in
       let digit = get_below r b "digit" in
       Intbuf.push3 buf level digit (get_below r 2 "state bit")
     end
     else if kind = kind_rv_fix then begin
       let level = get_below r d "level" in
       Intbuf.push2 buf level (get_below r b "digit")
     end
     else malformed "unknown frame kind %d" kind);
    Intbuf.set buf hdr (Intbuf.length buf - hdr - 4);
    incr frames
  done;
  !frames

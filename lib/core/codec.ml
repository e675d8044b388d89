module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Table = Ntcu_table.Table
module Snapshot = Table.Snapshot

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

module Packed = Ntcu_id.Packed

(* Everything the codec derives from the namespace parameters, computed once,
   plus the scratch buffer [encode_ctx] builds a message in. *)
type context = {
  p : Params.t;
  bpd : int; (* bits per digit *)
  idb : int; (* bytes per packed identifier *)
  bmb : int; (* bytes per d*b bitmap *)
  lay : Packed.layout option; (* present iff the id space fits one tagged int *)
  pow2 : bool; (* power-of-two base: every masked digit pattern is valid *)
  scratch : Buffer.t;
}

let context (p : Params.t) =
  let bpd = Packed.bits_per_digit p.b in
  {
    p;
    bpd;
    idb = ((p.d * bpd) + 7) / 8;
    bmb = ((p.d * p.b) + 7) / 8;
    lay = (if Packed.packable p then Some (Packed.layout p) else None);
    pow2 = p.b land (p.b - 1) = 0;
    scratch = Buffer.create 256;
  }

(* ---- writer ---- *)

type writer = Buffer.t

let u8 (w : writer) v =
  assert (v >= 0 && v < 256);
  Buffer.add_char w (Char.chr v)

let u16 (w : writer) v =
  assert (v >= 0 && v < 65536);
  u8 w (v land 0xff);
  u8 w (v lsr 8)

(* A packable id's wire image is exactly its packed value, little-endian:
   both lay digit i at bits [i*bpd, (i+1)*bpd). Four bytes per store while
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

(* Digits packed LSB-first: digit i occupies bits [i*bpd, (i+1)*bpd). The
   packed fast path emits the same bytes with one shift/or per digit and one
   store per byte instead of the bit-accumulator loop. *)
let put_id (w : writer) c id =
  match c.lay with
  | Some l -> put_raw_id w c (Packed.of_id l id :> int)
  | None ->
    let bpd = c.bpd in
    let acc = ref 0 and nbits = ref 0 in
    for i = 0 to c.p.d - 1 do
      acc := !acc lor (Id.digit id i lsl !nbits);
      nbits := !nbits + bpd;
      while !nbits >= 8 do
        u8 w (!acc land 0xff);
        acc := !acc lsr 8;
        nbits := !nbits - 8
      done
    done;
    if !nbits > 0 then u8 w (!acc land 0xff)

let put_state (w : writer) (s : Table.nstate) = u8 w (match s with T -> 0 | S -> 1)

let put_sign (w : writer) (s : Message.sign) =
  u8 w (match s with Negative -> 0 | Positive -> 1)

let put_snapshot (w : writer) c (snap : Snapshot.t) =
  put_id w c snap.owner;
  u16 w (Snapshot.cell_count snap);
  Snapshot.iter snap (fun cell ->
      u8 w cell.level;
      u8 w cell.digit;
      put_state w cell.state;
      put_id w c cell.node)

let put_bitmap (w : writer) c positions =
  let bytes = Bytes.make c.bmb '\000' in
  List.iter
    (fun (level, digit) ->
      if level < 0 || level >= c.p.d || digit < 0 || digit >= c.p.b then
        invalid_arg "Codec: bitmap position out of range";
      let bit = (level * c.p.b) + digit in
      let i = bit / 8 and off = bit mod 8 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lor (1 lsl off))))
    positions;
  Buffer.add_bytes w bytes

(* ---- reader ---- *)

type reader = { data : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.data then
    malformed "truncated message: need %d bytes at offset %d of %d" n r.pos
      (String.length r.data)

let g8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let g16 r =
  let lo = g8 r in
  let hi = g8 r in
  lo lor (hi lsl 8)

let get_id r c =
  let bpd = c.bpd in
  let nbytes = c.idb in
  need r nbytes;
  let digits = Array.make c.p.d 0 in
  let acc = ref 0 and nbits = ref 0 and consumed = ref 0 in
  for i = 0 to c.p.d - 1 do
    while !nbits < bpd do
      acc := !acc lor (Char.code r.data.[r.pos + !consumed] lsl !nbits);
      incr consumed;
      nbits := !nbits + 8
    done;
    digits.(i) <- !acc land ((1 lsl bpd) - 1);
    acc := !acc lsr bpd;
    nbits := !nbits - bpd
  done;
  r.pos <- r.pos + nbytes;
  match Id.make c.p digits with
  | id -> id
  | exception Invalid_argument msg -> malformed "bad identifier: %s" msg

(* Inverse of [put_raw_id]: the packed value from [idb] little-endian bytes.
   Padding bits above [d*bpd] are masked off, matching [get_id]'s tolerance
   of nonzero padding. A non-power-of-two base leaves digit patterns that
   name no digit, and those are rejected as [get_id] rejects them. *)
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
     match c.lay with
     | Some l -> (
       match Packed.of_int l v with
       | (_ : Packed.t) -> ()
       | exception Invalid_argument _ -> malformed "identifier digit out of range")
     | None -> ());
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

let get_state r : Table.nstate =
  match g8 r with 0 -> T | 1 -> S | v -> malformed "bad state byte %d" v

let get_sign r : Message.sign =
  match g8 r with 0 -> Negative | 1 -> Positive | v -> malformed "bad sign byte %d" v

let get_snapshot r c =
  let owner = get_id r c in
  let count = g16 r in
  let cells = ref [] in
  for _ = 1 to count do
    let level = g8 r in
    let digit = g8 r in
    let state = get_state r in
    let node = get_id r c in
    if level >= c.p.d || digit >= c.p.b then
      malformed "cell position (%d,%d) out of range" level digit;
    cells := { Snapshot.level; digit; state; node } :: !cells
  done;
  Snapshot.of_cells ~owner (List.rev !cells)

let get_bitmap r c =
  let nbytes = c.bmb in
  need r nbytes;
  let positions = ref [] in
  for bit = (c.p.d * c.p.b) - 1 downto 0 do
    let i = bit / 8 and off = bit mod 8 in
    if Char.code r.data.[r.pos + i] land (1 lsl off) <> 0 then
      positions := (bit / c.p.b, bit mod c.p.b) :: !positions
  done;
  r.pos <- r.pos + nbytes;
  !positions

(* ---- message framing ---- *)

let tag (m : Message.t) = Message.kind_index (Message.kind m)

let encode_ctx c (m : Message.t) =
  let w = c.scratch in
  Buffer.clear w;
  u8 w (tag m);
  (match m with
  | Cp_rst { level } -> u8 w level
  | Cp_rly { table } -> put_snapshot w c table
  | Join_wait -> ()
  | Join_wait_rly { sign; occupant; table } ->
    put_sign w sign;
    put_id w c occupant;
    put_snapshot w c table
  | Join_noti { table; noti_level; filled } ->
    u8 w noti_level;
    (match filled with
    | None -> u8 w 0
    | Some positions ->
      u8 w 1;
      put_bitmap w c positions);
    put_snapshot w c table
  | Join_noti_rly { sign; table; flag } ->
    put_sign w sign;
    u8 w (if flag then 1 else 0);
    put_snapshot w c table
  | In_sys_noti -> ()
  | Spe_noti { origin; subject } ->
    put_id w c origin;
    put_id w c subject
  | Spe_noti_rly { origin; subject } ->
    put_id w c origin;
    put_id w c subject
  | Rv_ngh_noti { level; digit; recorded } ->
    u8 w level;
    u8 w digit;
    put_state w recorded
  | Rv_ngh_noti_rly { level; digit; state } ->
    u8 w level;
    u8 w digit;
    put_state w state);
  Buffer.contents w

let decode_exn c data =
  let r = { data; pos = 0 } in
  let m : Message.t =
    match g8 r with
    | 0 ->
      let level = g8 r in
      if level >= c.p.Params.d then malformed "CpRst level %d out of range" level;
      Cp_rst { level }
    | 1 -> Cp_rly { table = get_snapshot r c }
    | 2 -> Join_wait
    | 3 ->
      let sign = get_sign r in
      let occupant = get_id r c in
      let table = get_snapshot r c in
      Join_wait_rly { sign; occupant; table }
    | 4 ->
      let noti_level = g8 r in
      if noti_level >= c.p.Params.d then malformed "noti_level %d out of range" noti_level;
      let filled =
        match g8 r with
        | 0 -> None
        | 1 -> Some (get_bitmap r c)
        | v -> malformed "bad bitmap flag %d" v
      in
      let table = get_snapshot r c in
      Join_noti { table; noti_level; filled }
    | 5 ->
      let sign = get_sign r in
      let flag = match g8 r with 0 -> false | 1 -> true | v -> malformed "bad flag %d" v in
      let table = get_snapshot r c in
      Join_noti_rly { sign; table; flag }
    | 6 -> In_sys_noti
    | 7 ->
      let origin = get_id r c in
      let subject = get_id r c in
      Spe_noti { origin; subject }
    | 8 ->
      let origin = get_id r c in
      let subject = get_id r c in
      Spe_noti_rly { origin; subject }
    | 9 ->
      let level = g8 r in
      let digit = g8 r in
      let recorded = get_state r in
      if level >= c.p.Params.d || digit >= c.p.Params.b then
        malformed "RvNghNoti position (%d,%d) out of range" level digit;
      Rv_ngh_noti { level; digit; recorded }
    | 10 ->
      let level = g8 r in
      let digit = g8 r in
      let state = get_state r in
      if level >= c.p.Params.d || digit >= c.p.Params.b then
        malformed "RvNghNotiRly position (%d,%d) out of range" level digit;
      Rv_ngh_noti_rly { level; digit; state }
    | t -> malformed "unknown message tag %d" t
  in
  if r.pos <> String.length data then
    malformed "trailing garbage: %d bytes" (String.length data - r.pos);
  m

let decode_ctx c data =
  match decode_exn c data with
  | m -> Ok m
  | exception Malformed msg -> Error msg

let snapshot_size c snap = c.idb + 2 + (Snapshot.cell_count snap * (3 + c.idb))

let encoded_size_ctx c (m : Message.t) =
  1
  +
  match m with
  | Cp_rst _ -> 1
  | Cp_rly { table } -> snapshot_size c table
  | Join_wait -> 0
  | Join_wait_rly { table; _ } -> 1 + c.idb + snapshot_size c table
  | Join_noti { table; filled; _ } ->
    2 + (match filled with None -> 0 | Some _ -> c.bmb) + snapshot_size c table
  | Join_noti_rly { table; _ } -> 2 + snapshot_size c table
  | In_sys_noti -> 0
  | Spe_noti _ | Spe_noti_rly _ -> 2 * c.idb
  | Rv_ngh_noti _ | Rv_ngh_noti_rly _ -> 3

(* ---- parameter-keyed convenience wrappers ---- *)

let encode p m = encode_ctx (context p) m

let decode p data = decode_ctx (context p) data

let encoded_size p m = encoded_size_ctx (context p) m

(* ---- batch frames of the sharded engine ---- *)

module Intbuf = Ntcu_std.Intbuf

(* The in-memory layouts are in codec.mli. A frame's delivery-epoch offset
   [delta] is on the wire but not in the ring frame: decoding places the
   frame in the ring slot [delta] epochs after the batch's send epoch.

   On the wire a frame is: kind uvarint, src and dst as identifier images
   ([put_raw_id], the bytes [put_id] writes for the same identifier), delta
   uvarint, then a kind-specific payload of uvarints and ids. Kind, delta,
   level, digit and sign fields cost one byte each (below 0x80 for any
   d, b < 128). Two fields can take two bytes: a cell's [pos*2+sbit] once
   [pos >= 64] (level >= 4 in b16/d8), and a cell count from 128 on (a full
   b16/d8 table). *)

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

let require_packable c =
  if Option.is_none c.lay then invalid_arg "Codec: frames need a packable parameter space"

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
  require_packable c;
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
  require_packable c;
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

(* QCheck fuzzing of the sharded engine's cross-shard batch frames
   (Codec.encode_frames / decode_frames). Four properties, each over random
   frame sequences in power-of-two and non-power-of-two digit bases,
   including the paper's simulated space (b = 16, d = 8: 4-byte ids,
   two-byte varints for cell positions at level >= 4 and for a full 128-cell
   count) and an 8-byte-id space (b = 16, d = 15):

   - round-trip: encode then decode reproduces every frame, in order, in the
     ring slot its delivery delta selects, with outbox headers rewritten to
     ring headers;
   - truncation: decoding any byte prefix either raises [Codec.Malformed] or
     yields exactly the frames whose bytes survived (a cut can only succeed
     on a frame boundary);
   - bit-flip: decoding a corrupted batch either succeeds or raises
     [Codec.Malformed] — never any other exception. The decoder is total;
   - byte identity: the batch bytes equal those of a plain per-byte
     encoder, kept here as the reference for the chunked id and one-byte
     varint paths. *)

module Params = Ntcu_id.Params
module Packed = Ntcu_id.Packed
module Intbuf = Ntcu_std.Intbuf
module Codec = Ntcu_core.Codec
module G = QCheck.Gen

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let p_pow2 = Params.make ~b:4 ~d:6
let p_odd = Params.make ~b:3 ~d:5 (* non-power-of-two: digit patterns can be invalid *)
let p_paper = Params.paper_sim_d8
let p_wide = Params.make ~b:16 ~d:15 (* 60-bit ids: two 4-byte chunks *)
let p_dec = Params.make ~b:10 ~d:9 (* 5-byte ids: one chunk, one single byte *)
let spaces = [ p_pow2; p_odd; p_paper; p_wide; p_dec ]

(* ---- generators: frames in outbox layout [nargs; kind; src; dst; delta; payload] ---- *)

let frame_gen (p : Params.t) =
  let lay = Packed.layout p in
  let id =
    G.map
      (fun digits -> Packed.to_int (Packed.make lay (Array.of_list digits)))
      (G.list_size (G.return p.d) (G.int_range 0 (p.b - 1)))
  in
  let cell =
    (* cell = [pos*2 + sbit; occupant], pos < d*b *)
    G.map2 (fun ps i -> [ ps; i ]) (G.int_range 0 ((p.d * p.b * 2) - 1)) id
  in
  let cells =
    G.(
      int_range 0 (p.d * p.b) >>= fun n ->
      map (fun cs -> n :: List.concat cs) (list_size (return n) cell))
  in
  let level = G.int_range 0 (p.d - 1) in
  let digit = G.int_range 0 (p.b - 1) in
  let bit = G.int_range 0 1 in
  let payload =
    G.oneof
      [
        G.map (fun l -> (Codec.kind_cp_rst, [ l ])) level;
        G.map2 (fun l cs -> (Codec.kind_cp_rly, l :: cs)) level cells;
        G.return (Codec.kind_join_wait, []);
        G.map3 (fun s i cs -> (Codec.kind_join_wait_rly, s :: i :: cs)) bit id cells;
        G.map2 (fun l cs -> (Codec.kind_join_noti, l :: cs)) level cells;
        G.map2 (fun s cs -> (Codec.kind_join_noti_rly, s :: cs)) bit cells;
        G.return (Codec.kind_in_sys_noti, []);
        G.map3 (fun l dg s -> (Codec.kind_rv_ngh_noti, [ l; dg; s ])) level digit bit;
        G.map2 (fun l dg -> (Codec.kind_rv_fix, [ l; dg ])) level digit;
      ]
  in
  G.map2
    (fun (kind, pl) (src, dst, delta) ->
      (1 + List.length pl) :: kind :: src :: dst :: delta :: pl)
    payload
    (G.triple id id (G.int_range 1 Codec.max_latency))

let frames_gen p = G.list_size (G.int_range 0 12) (frame_gen p)

let print_frames fs = QCheck.Print.(list (list int)) fs
let arb_frames p = QCheck.make ~print:print_frames (frames_gen p)

(* ---- helpers ---- *)

let encode p frames =
  let out = Intbuf.create () in
  List.iter (fun f -> List.iter (Intbuf.push out) f) frames;
  let w = Buffer.create 256 in
  Codec.encode_frames (Codec.context p) out w;
  Buffer.contents w

(* The ring image of an outbox frame: drop [delta], rewrite the header to the
   ring convention (nargs = |payload|). *)
let ring_image = function
  | nargs :: kind :: src :: dst :: _delta :: payload ->
    assert (nargs = 1 + List.length payload);
    List.length payload :: kind :: src :: dst :: payload
  | _ -> assert false

let delta_of = function _ :: _ :: _ :: _ :: delta :: _ -> delta | _ -> assert false

let decode_rings p data =
  let rings = Array.init (Codec.max_latency + 1) (fun _ -> Intbuf.create ()) in
  let select ~delta = rings.(delta) in
  let n = Codec.decode_frames (Codec.context p) data ~select in
  (n, rings)

let ring_contents rings delta =
  let buf = rings.(delta) in
  List.init (Intbuf.length buf) (Intbuf.get buf)

(* ---- properties ---- *)

let roundtrip p frames =
  let n, rings = decode_rings p (encode p frames) in
  n = List.length frames
  && List.for_all
       (fun delta ->
         let expected =
           List.concat_map ring_image
             (List.filter (fun f -> delta_of f = delta) frames)
         in
         ring_contents rings delta = expected)
       [ 1; 2; 3 ]

let truncation p (frames, cut) =
  let data = encode p frames in
  if String.length data = 0 then true
  else begin
    let len = cut mod String.length data in
    let truncated = String.sub data 0 len in
    match decode_rings p truncated with
    | exception Codec.Malformed _ -> true (* a mid-frame cut must say so *)
    | n, rings ->
      (* A successful cut decoded an exact frame prefix. *)
      n <= List.length frames
      && List.for_all
           (fun delta ->
             let expected =
               List.concat_map ring_image
                 (List.filter (fun f -> delta_of f = delta)
                    (List.filteri (fun i _ -> i < n) frames))
             in
             ring_contents rings delta = expected)
           [ 1; 2; 3 ]
  end

(* The per-byte encoder the chunked one replaced: every id byte and every
   varint byte is written on its own. *)
let reference_encode (p : Params.t) frames =
  let idb = ((p.d * Packed.bits_per_digit p.b) + 7) / 8 in
  let w = Buffer.create 256 in
  let uvarint v =
    let v = ref v in
    while !v >= 0x80 do
      Buffer.add_char w (Char.chr ((!v land 0x7f) lor 0x80));
      v := !v lsr 7
    done;
    Buffer.add_char w (Char.chr !v)
  in
  let id v =
    let v = ref v in
    for _ = 1 to idb do
      Buffer.add_char w (Char.chr (!v land 0xff));
      v := !v lsr 8
    done
  in
  let rec cell_pairs = function
    | ps :: occ :: rest ->
      uvarint ps;
      id occ;
      cell_pairs rest
    | _ -> ()
  in
  let cells = function
    | count :: pairs ->
      uvarint count;
      cell_pairs pairs
    | [] -> assert false
  in
  List.iter
    (function
      | _nargs :: kind :: src :: dst :: delta :: payload -> (
        uvarint kind;
        id src;
        id dst;
        uvarint delta;
        match payload with
        | first :: rest
          when kind = Codec.kind_cp_rly || kind = Codec.kind_join_noti
               || kind = Codec.kind_join_noti_rly ->
          uvarint first;
          cells rest
        | sign :: occ :: rest when kind = Codec.kind_join_wait_rly ->
          uvarint sign;
          id occ;
          cells rest
        | fields -> List.iter uvarint fields)
      | _ -> assert false)
    frames;
  Buffer.contents w

let byte_identity p frames = String.equal (encode p frames) (reference_encode p frames)

let bitflip p (frames, at, bit) =
  let data = encode p frames in
  if String.length data = 0 then true
  else begin
    let i = at mod String.length data in
    let corrupted = Bytes.of_string data in
    Bytes.set corrupted i
      (Char.chr (Char.code (Bytes.get corrupted i) lxor (1 lsl (bit mod 8))));
    match decode_rings p (Bytes.to_string corrupted) with
    | (_ : int * Intbuf.t array) -> true
    | exception Codec.Malformed _ -> true
    (* anything else — Invalid_argument, Not_found, out-of-bounds — is a
       decoder totality bug and fails the property *)
  end

let with_cut p = QCheck.(pair (arb_frames p) (QCheck.make G.(int_range 0 10_000)))

let with_flip p =
  QCheck.(
    triple (arb_frames p)
      (QCheck.make G.(int_range 0 10_000))
      (QCheck.make G.(int_range 0 7)))

let suites =
  [
    ( "wire-fuzz",
      [
        qtest "round-trip (b=4)" (arb_frames p_pow2) (roundtrip p_pow2);
        qtest "round-trip (b=3)" (arb_frames p_odd) (roundtrip p_odd);
        qtest "round-trip (d=8, b=16)" (arb_frames p_paper) (roundtrip p_paper);
        qtest "round-trip (d=15, b=16)" (arb_frames p_wide) (roundtrip p_wide);
        qtest "truncation total (b=4)" (with_cut p_pow2) (truncation p_pow2);
        qtest "truncation total (b=3)" (with_cut p_odd) (truncation p_odd);
        qtest "truncation (d=8, b=16)" (with_cut p_paper) (truncation p_paper);
        qtest "truncation (d=15, b=16)" (with_cut p_wide) (truncation p_wide);
        qtest "bit-flip total (b=4)" (with_flip p_pow2) (bitflip p_pow2);
        qtest "bit-flip total (b=3)" (with_flip p_odd) (bitflip p_odd);
        qtest "bit-flip (d=8, b=16)" (with_flip p_paper) (bitflip p_paper);
        qtest "bit-flip (d=15, b=16)" (with_flip p_wide) (bitflip p_wide);
      ]
      @ List.map
          (fun (p : Params.t) ->
            qtest
              (Printf.sprintf "bytes as per-byte (d=%d, b=%d)" p.d p.b)
              (arb_frames p) (byte_identity p))
          spaces );
  ]

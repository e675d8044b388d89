(* Properties of the packed identifier representation: every observable
   behaviour must agree with the array-backed Id on packable spaces. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Packed = Ntcu_id.Packed
module Rng = Ntcu_std.Rng

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Packable spaces of several shapes: power-of-two and odd bases, full and
   shallow depths, including the paper's simulated space. *)
let spaces =
  [
    Params.make ~b:2 ~d:62;
    Params.make ~b:4 ~d:31;
    Params.make ~b:16 ~d:8;
    Params.make ~b:16 ~d:15;
    Params.make ~b:10 ~d:4;
    Params.make ~b:7 ~d:6;
  ]

(* (params, digits) for a random id in a random packable space. *)
let digits_gen =
  let open QCheck.Gen in
  let* p = oneofl spaces in
  let* digits = array_size (return p.Params.d) (int_bound (p.Params.b - 1)) in
  return (p, digits)

let arb_digits =
  QCheck.make
    ~print:(fun (p, digits) ->
      Printf.sprintf "b=%d d=%d [%s]" p.Params.b p.Params.d
        (String.concat ";" (Array.to_list (Array.map string_of_int digits))))
    digits_gen

let packable_gate () =
  check Alcotest.bool "paper_sim_d8 packable" true
    (Packed.packable Params.paper_sim_d8);
  check Alcotest.bool "paper_sim_d40 not packable" false
    (Packed.packable Params.paper_sim_d40);
  Alcotest.check_raises "layout refuses unpackable"
    (Invalid_argument "Packed.layout: 40 digits of base 16 exceed 62 bits")
    (fun () -> ignore (Packed.layout Params.paper_sim_d40));
  Alcotest.check_raises "codec context refuses unpackable"
    (Invalid_argument "Packed.layout: 40 digits of base 16 exceed 62 bits")
    (fun () -> ignore (Ntcu_core.Codec.context Params.paper_sim_d40))

let suites =
  [
    ( "packed",
      [
        Alcotest.test_case "packable gate" `Quick packable_gate;
        qtest "make/digit round-trip vs Id" arb_digits (fun (p, digits) ->
            let lay = Packed.layout p in
            let x = Packed.make lay digits in
            let id = Id.make p digits in
            Array.to_list digits
            = List.init p.Params.d (Packed.digit lay x)
            && Array.to_list digits = List.init p.Params.d (Id.digit id));
        qtest "of_id/to_id round-trip" arb_digits (fun (p, digits) ->
            let lay = Packed.layout p in
            let id = Id.make p digits in
            let x = Packed.of_id lay id in
            Id.equal id (Packed.to_id lay x)
            && Packed.equal x (Packed.of_id lay (Packed.to_id lay x)));
        qtest "of_string/to_string round-trip vs Id" arb_digits
          (fun (p, digits) ->
            let lay = Packed.layout p in
            let x = Packed.make lay digits in
            let s = Packed.to_string lay x in
            s = Id.to_string (Id.make p digits)
            && Packed.equal x (Packed.of_string lay s));
        qtest "of_int validates stored values" arb_digits (fun (p, digits) ->
            let lay = Packed.layout p in
            let x = Packed.make lay digits in
            Packed.equal x (Packed.of_int lay (Packed.to_int x)));
        qtest "equal/compare/hash agree with Id"
          (QCheck.pair arb_digits arb_digits)
          (fun ((p1, d1), (p2, d2)) ->
            QCheck.assume (p1 == p2);
            let p = p1 in
            let lay = Packed.layout p in
            let x = Packed.make lay d1 and y = Packed.make lay d2 in
            let ix = Id.make p d1 and iy = Id.make p d2 in
            Packed.equal x y = Id.equal ix iy
            && compare (Packed.compare x y) 0 = compare (Id.compare ix iy) 0
            && Packed.hash lay x = Id.hash ix
            && Packed.hash lay y = Id.hash iy);
        qtest "csuf_len agrees with Id"
          (QCheck.pair arb_digits arb_digits)
          (fun ((p1, d1), (p2, d2)) ->
            QCheck.assume (p1 == p2);
            let lay = Packed.layout p1 in
            Packed.csuf_len lay (Packed.make lay d1) (Packed.make lay d2)
            = Id.csuf_len (Id.make p1 d1) (Id.make p1 d2));
        qtest "random draws in lockstep with Id.random"
          QCheck.(pair (oneofl spaces) small_nat)
          (fun (p, seed) ->
            let lay = Packed.layout p in
            let r1 = Rng.create seed and r2 = Rng.create seed in
            let x = Packed.random r1 lay in
            let id = Id.random r2 p in
            Id.equal id (Packed.to_id lay x)
            (* and the generators were consumed identically: the next draw
               from each agrees too *)
            && Id.equal (Id.random r2 p) (Packed.to_id lay (Packed.random r1 lay)));
        qtest "random_with_suffix in lockstep with Id"
          QCheck.(pair arb_digits small_nat)
          (fun ((p, digits), seed) ->
            let lay = Packed.layout p in
            let suf = Array.sub digits 0 (min 3 p.Params.d) in
            let r1 = Rng.create seed and r2 = Rng.create seed in
            let x = Packed.random_with_suffix r1 lay suf in
            let id = Id.random_with_suffix r2 p suf in
            Id.equal id (Packed.to_id lay x) && Packed.has_suffix lay x suf);
        qtest "suffix_value collides exactly on shared suffixes"
          (QCheck.pair arb_digits arb_digits)
          (fun ((p1, d1), (p2, d2)) ->
            QCheck.assume (p1 == p2);
            let lay = Packed.layout p1 in
            let x = Packed.make lay d1 and y = Packed.make lay d2 in
            let common = Packed.csuf_len lay x y in
            List.for_all
              (fun k ->
                Packed.suffix lay x k = Id.suffix (Id.make p1 d1) k
                && (Packed.suffix_value lay x k = Packed.suffix_value lay y k)
                   = (common >= k))
              (List.init (p1.Params.d + 1) Fun.id));
      ] );
  ]

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let p45 = Params.make ~b:4 ~d:5
let p16 = Params.make ~b:16 ~d:8

(* Generator for an identifier under params p. *)
let id_gen p =
  let open QCheck.Gen in
  map (fun seed -> Id.random (Rng.create seed) p) int

let arb_id p = QCheck.make ~print:Id.to_string (id_gen p)

let parse_print_example () =
  let id = Id.of_string p45 "21233" in
  check Alcotest.string "roundtrip" "21233" (Id.to_string id);
  check Alcotest.int "digit 0 is rightmost" 3 (Id.digit id 0);
  check Alcotest.int "digit 4 is leftmost" 2 (Id.digit id 4)

let of_string_validates () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Id.of_string: expected 5 characters, got 3") (fun () ->
      ignore (Id.of_string p45 "123"));
  (try
     ignore (Id.of_string p45 "91233");
     Alcotest.fail "digit out of base accepted"
   with Invalid_argument _ -> ())

let hex_parsing () =
  let p = Params.make ~b:16 ~d:4 in
  let id = Id.of_string p "beef" in
  check Alcotest.string "hex roundtrip" "beef" (Id.to_string id);
  check Alcotest.int "f = 15" 15 (Id.digit id 0);
  check Alcotest.int "b = 11" 11 (Id.digit id 3)

let make_validates () =
  (try
     ignore (Id.make p45 [| 0; 1; 2; 3 |]);
     Alcotest.fail "short digit array accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Id.make p45 [| 0; 1; 2; 3; 7 |]);
    Alcotest.fail "digit >= b accepted"
  with Invalid_argument _ -> ()

let csuf_examples () =
  let a = Id.of_string p45 "21233" and b = Id.of_string p45 "01233" in
  check Alcotest.int "csuf 1233" 4 (Id.csuf_len a b);
  let c = Id.of_string p45 "21230" in
  check Alcotest.int "csuf empty" 0 (Id.csuf_len a c);
  check Alcotest.int "csuf with self" 5 (Id.csuf_len a a)

let suffix_examples () =
  let a = Id.of_string p45 "21233" in
  check (Alcotest.array Alcotest.int) "suffix 3" [| 3; 3; 2 |] (Id.suffix a 3);
  check Alcotest.bool "has suffix" true (Id.has_suffix a [| 3; 3 |]);
  check Alcotest.bool "lacks suffix" false (Id.has_suffix a [| 2; 3 |])

let random_with_suffix_respects () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let id = Id.random_with_suffix rng p16 [| 7; 3; 1 |] in
    check Alcotest.bool "suffix present" true (Id.has_suffix id [| 7; 3; 1 |])
  done

let csuf_symmetric =
  qtest "csuf symmetric" QCheck.(pair (arb_id p45) (arb_id p45)) (fun (a, b) ->
      Id.csuf_len a b = Id.csuf_len b a)

let csuf_reflexive = qtest "csuf(x,x) = d" (arb_id p45) (fun a -> Id.csuf_len a a = 5)

let csuf_equal_iff_d =
  qtest "csuf = d iff equal" QCheck.(pair (arb_id p45) (arb_id p45)) (fun (a, b) ->
      Id.csuf_len a b = 5 = Id.equal a b)

let roundtrip_random =
  qtest "to_string/of_string roundtrip" (arb_id p16) (fun a ->
      Id.equal a (Id.of_string p16 (Id.to_string a)))

let csuf_triangle =
  qtest "csuf ultrametric: csuf(a,c) >= min(csuf(a,b), csuf(b,c))"
    QCheck.(triple (arb_id p45) (arb_id p45) (arb_id p45))
    (fun (a, b, c) -> Id.csuf_len a c >= min (Id.csuf_len a b) (Id.csuf_len b c))

let compare_total_order =
  qtest "compare consistent with textual order" QCheck.(pair (arb_id p16) (arb_id p16))
    (fun (a, b) ->
      let by_id = compare (Id.compare a b) 0 in
      let by_str = compare (compare (Id.to_string a) (Id.to_string b)) 0 in
      by_id = by_str)

let suffix_matches_csuf =
  qtest "has_suffix via csuf" QCheck.(pair (arb_id p45) (arb_id p45)) (fun (a, b) ->
      let k = Id.csuf_len a b in
      Id.has_suffix a (Id.suffix b k)
      && (k = 5 || not (Id.has_suffix a (Id.suffix b (k + 1)))))

let set_map_usable () =
  let rng = Rng.create 1 in
  let ids = List.init 100 (fun _ -> Id.random rng p16) in
  let set = Id.Set.of_list ids in
  List.iter (fun id -> check Alcotest.bool "set member" true (Id.Set.mem id set)) ids;
  let tbl = Id.Tbl.create 16 in
  List.iteri (fun i id -> Id.Tbl.replace tbl id i) ids;
  check Alcotest.bool "tbl lookups" true
    (List.for_all (fun id -> Id.Tbl.mem tbl id) ids)

let pp_suffix_renders () =
  check Alcotest.string "suffix text" "261" (Fmt.str "%a" Id.pp_suffix [| 1; 6; 2 |]);
  check Alcotest.string "empty suffix" "" (Fmt.str "%a" Id.pp_suffix [||])

(* ---- Digit-array reference ----

   [Id.t] caches its hash and its ten leading digits packed into one int.
   The reference works on the bare digit array (index 0 = rightmost digit)
   with each operation written out directly, as [Id] computed it before the
   cache. *)
module Ref = struct
  let equal x y = Array.length x = Array.length y && Array.for_all2 Int.equal x y

  let compare x y =
    let rec go i =
      if i < 0 then 0
      else begin
        let c = Int.compare x.(i) y.(i) in
        if c <> 0 then c else go (i - 1)
      end
    in
    go (Array.length x - 1)

  let hash x =
    Array.fold_left (fun h v -> (h lxor v) * 0x01000193 land 0x3FFFFFFF) 0x811c9dc5 x

  let csuf_len x y =
    let d = Array.length x in
    let rec go i = if i < d && x.(i) = y.(i) then go (i + 1) else i in
    go 0

  let suffix x k = Array.sub x 0 k

  let has_suffix x suf =
    let k = Array.length suf in
    k <= Array.length x && equal (suffix x k) suf

  let to_string x =
    let d = Array.length x in
    String.init d (fun i -> "0123456789abcdefghijklmnopqrstuvwxyz".[x.(d - 1 - i)])
end

(* Where the key covers every digit (d <= 10) and where it covers only the
   top ten. *)
let ref_spaces =
  [
    Params.make ~b:16 ~d:8;
    Params.make ~b:2 ~d:10;
    Params.make ~b:16 ~d:40;
    Params.make ~b:36 ~d:64;
  ]

(* A pair of digit arrays of one of five kinds: independent; sharing the ten
   leading digits and differing below them (equal when d <= 10); equal but
   separately built; differing only in digit 0; sharing a random-length
   suffix. *)
let ref_pair rng (p : Params.t) kind =
  let draw () = Array.init p.d (fun _ -> Rng.int rng p.b) in
  let a = draw () in
  let b = Array.copy a in
  (match kind with
  | 0 -> Array.blit (draw ()) 0 b 0 p.d
  | 1 ->
    let below = p.d - 10 in
    if below > 0 then begin
      Array.blit (draw ()) 0 b 0 below;
      let i = Rng.int rng below in
      b.(i) <- (a.(i) + 1 + Rng.int rng (p.b - 1)) mod p.b
    end
  | 2 -> ()
  | 3 -> b.(0) <- (a.(0) + 1 + Rng.int rng (p.b - 1)) mod p.b
  | _ ->
    let k = Rng.int rng p.d in
    Array.blit (draw ()) k b k (p.d - k));
  (a, b)

let sign c = Int.compare c 0

let agrees_with_reference (p : Params.t) a b =
  let x = Id.make p a and y = Id.make p b in
  let ctx = Fmt.str "%s vs %s" (Ref.to_string a) (Ref.to_string b) in
  let int what = check Alcotest.int (what ^ " " ^ ctx) in
  let bool what = check Alcotest.bool (what ^ " " ^ ctx) in
  bool "equal" (Ref.equal a b) (Id.equal x y);
  bool "equal, swapped" (Ref.equal a b) (Id.equal y x);
  int "compare" (sign (Ref.compare a b)) (sign (Id.compare x y));
  int "compare, swapped" (sign (Ref.compare b a)) (sign (Id.compare y x));
  int "hash" (Ref.hash a) (Id.hash x);
  let k = Ref.csuf_len a b in
  int "csuf_len" k (Id.csuf_len x y);
  check (Alcotest.array Alcotest.int) ("suffix " ^ ctx) (Ref.suffix a k) (Id.suffix x k);
  List.iter
    (fun k ->
      let suf = Ref.suffix b k in
      bool (Fmt.str "has_suffix %d" k) (Ref.has_suffix a suf) (Id.has_suffix x suf))
    (if k < p.d then [ k; k + 1 ] else [ k ]);
  Array.iteri (fun i v -> int (Fmt.str "digit %d" i) v (Id.digit x i)) a;
  check Alcotest.string "to_string" (Ref.to_string a) (Id.to_string x)

(* Two different digit arrays with the same ten leading digits and the same
   hash, found by a birthday search over the digits below those ten: only
   the digit loop can tell them apart. Needs [d > 10]. *)
let hash_collision rng (p : Params.t) =
  let top = Array.init p.d (fun _ -> Rng.int rng p.b) in
  let seen = Hashtbl.create 65536 in
  let rec go () =
    let a = Array.copy top in
    for i = 0 to p.d - 11 do
      a.(i) <- Rng.int rng p.b
    done;
    let h = Ref.hash a in
    match Hashtbl.find_opt seen h with
    | Some b when not (Ref.equal a b) -> (a, b)
    | Some _ | None ->
      Hashtbl.replace seen h a;
      go ()
  in
  go ()

let matches_reference () =
  let rng = Rng.create 11 in
  List.iter
    (fun (p : Params.t) ->
      for kind = 0 to 4 do
        for _ = 1 to 200 do
          let a, b = ref_pair rng p kind in
          agrees_with_reference p a b
        done
      done;
      if p.d > 10 then begin
        let a, b = hash_collision rng p in
        agrees_with_reference p a b
      end)
    ref_spaces

(* [Id.Tbl] buckets, and so its iteration order wherever a fold carries a
   D002 allow, follow these values. They are the digit-array fold's. *)
let hash_pinned () =
  List.iter
    (fun (b, d, s, h) ->
      check Alcotest.int s h (Id.hash (Id.of_string (Params.make ~b ~d) s)))
    [
      (16, 8, "0123abcd", 804021121);
      (2, 10, "1011001110", 441742073);
      (16, 40, "0123456789abcdef0123456789abcdeffedcba98", 679820541);
      ( 36,
        64,
        "0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqr",
        556485453 );
    ]

let suites =
  [
    ( "id",
      [
        Alcotest.test_case "parse/print example" `Quick parse_print_example;
        Alcotest.test_case "of_string validates" `Quick of_string_validates;
        Alcotest.test_case "hex parsing" `Quick hex_parsing;
        Alcotest.test_case "make validates" `Quick make_validates;
        Alcotest.test_case "csuf examples" `Quick csuf_examples;
        Alcotest.test_case "suffix examples" `Quick suffix_examples;
        Alcotest.test_case "random_with_suffix" `Quick random_with_suffix_respects;
        Alcotest.test_case "sets and tables" `Quick set_map_usable;
        Alcotest.test_case "pp_suffix" `Quick pp_suffix_renders;
        Alcotest.test_case "matches digit-array reference" `Quick matches_reference;
        Alcotest.test_case "hash pinned" `Quick hash_pinned;
        csuf_symmetric;
        csuf_reflexive;
        csuf_equal_iff_d;
        roundtrip_random;
        csuf_triangle;
        compare_total_order;
        suffix_matches_csuf;
      ] );
  ]

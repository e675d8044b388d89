(* The scale arena and sharded engine.

   Node_store is checked against a naive purely-functional model over random
   operation traces; the engine is checked for worker-count independence —
   the deterministic payload of a run must not depend on --jobs — and one
   run's frame stream is pinned to recorded counts. *)

module Params = Ntcu_id.Params
module Packed = Ntcu_id.Packed
module Rng = Ntcu_std.Rng
module Node_store = Ntcu_scale.Node_store
module Scale = Ntcu_scale.Scale
module Scale_bench = Ntcu_harness.Scale_bench

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let p = Params.paper_sim_d8
let lay = Packed.layout p

(* ---- Node_store vs record model ---- *)

(* The model: live nodes as (packed id -> status, cells), cells as
   ((level, digit) -> occupant, sbit) maps. *)
module Imap = Map.Make (Int)
module Cmap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type mnode = { mstatus : int; mcells : (int * int) Cmap.t }
type model = mnode Imap.t

(* One trace step. Ids are drawn from a small pool so adds, removes and cell
   writes collide often; occupants are forced to carry the owner's required
   suffix so Node_store.set accepts them. *)
type op =
  | Add of int
  | Remove of int
  | Set of int * int * int * int * int (* owner, level, digit, occ-seed, sbit *)
  | Clear of int * int * int
  | SetState of int * int * int * int
  | FillSelf of int * int

let pool_size = 24

let op_gen =
  let open QCheck.Gen in
  let idx = int_bound (pool_size - 1) in
  frequency
    [
      (3, map (fun i -> Add i) idx);
      (1, map (fun i -> Remove i) idx);
      ( 4,
        map
          (fun (i, (l, (dg, (os, sb)))) -> Set (i, l, dg, os, sb))
          (pair idx
             (pair (int_bound (p.Params.d - 1))
                (pair (int_bound (p.Params.b - 1)) (pair int (int_bound 1))))) );
      ( 1,
        map
          (fun (i, (l, dg)) -> Clear (i, l, dg))
          (pair idx (pair (int_bound (p.Params.d - 1)) (int_bound (p.Params.b - 1)))) );
      ( 1,
        map
          (fun (i, (l, (dg, sb))) -> SetState (i, l, dg, sb))
          (pair idx
             (pair (int_bound (p.Params.d - 1))
                (pair (int_bound (p.Params.b - 1)) (int_bound 1)))) );
      (1, map (fun (i, sb) -> FillSelf (i, sb)) (pair idx (int_bound 1)));
    ]

let trace_gen = QCheck.Gen.(list_size (int_range 20 200) op_gen)

let arb_trace =
  QCheck.make
    ~print:(fun (seed, ops) -> Printf.sprintf "seed=%d, %d ops" seed (List.length ops))
    QCheck.Gen.(pair small_nat trace_gen)

(* The id pool: distinct random packed ids. *)
let make_pool seed =
  let rng = Rng.create (seed + 1) in
  let seen = Hashtbl.create 64 in
  let arr = Array.make pool_size (Packed.random rng lay) in
  let i = ref 0 in
  while !i < pool_size do
    let x = Packed.random rng lay in
    if not (Hashtbl.mem seen (x :> int)) then begin
      Hashtbl.add seen (x :> int) ();
      arr.(!i) <- x;
      incr i
    end
  done;
  arr

(* An occupant for (owner, level, digit): required low digits forced, the
   rest from the seed. *)
let occupant_for owner ~level ~digit seed =
  let digits = Array.init p.Params.d (fun i -> Packed.digit lay owner i) in
  digits.(level) <- digit;
  for i = level + 1 to p.Params.d - 1 do
    digits.(i) <- abs (seed + (31 * i)) mod p.Params.b
  done;
  Packed.make lay digits

let model_equiv (seed, ops) =
  let store = Node_store.create ~cap:8 p in
  let pool = make_pool seed in
  let model = ref Imap.empty in
  let apply op =
    match op with
    | Add i ->
      let x = pool.(i) in
      if Node_store.mem store x then (
        try
          ignore (Node_store.add store x : int);
          Alcotest.fail "duplicate add accepted"
        with Invalid_argument _ -> ())
      else begin
        ignore (Node_store.add store x : int);
        model :=
          Imap.add (x :> int)
            { mstatus = Node_store.status_copying; mcells = Cmap.empty }
            !model
      end
    | Remove i ->
      let x = pool.(i) in
      if Node_store.mem store x then begin
        Node_store.remove store x;
        model := Imap.remove (x :> int) !model
      end
      else (
        try
          Node_store.remove store x;
          Alcotest.fail "unknown remove accepted"
        with Invalid_argument _ -> ())
    | Set (i, level, digit, os, sb) -> (
      let x = pool.(i) in
      match Node_store.find store x with
      | -1 -> ()
      | slot ->
        let occ = occupant_for x ~level ~digit os in
        Node_store.set store slot ~level ~digit occ sb;
        let m = Imap.find (x :> int) !model in
        model :=
          Imap.add (x :> int)
            { m with mcells = Cmap.add (level, digit) ((occ :> int), sb) m.mcells }
            !model)
    | Clear (i, level, digit) -> (
      let x = pool.(i) in
      match Node_store.find store x with
      | -1 -> ()
      | slot ->
        Node_store.clear_cell store slot ~level ~digit;
        let m = Imap.find (x :> int) !model in
        model :=
          Imap.add (x :> int)
            { m with mcells = Cmap.remove (level, digit) m.mcells }
            !model)
    | SetState (i, level, digit, sb) -> (
      let x = pool.(i) in
      match Node_store.find store x with
      | -1 -> ()
      | slot ->
        let m = Imap.find (x :> int) !model in
        if Cmap.mem (level, digit) m.mcells then begin
          Node_store.set_state store slot ~level ~digit sb;
          let occ, _ = Cmap.find (level, digit) m.mcells in
          model :=
            Imap.add (x :> int)
              { m with mcells = Cmap.add (level, digit) (occ, sb) m.mcells }
              !model
        end)
    | FillSelf (i, sb) -> (
      let x = pool.(i) in
      match Node_store.find store x with
      | -1 -> ()
      | slot ->
        Node_store.fill_self store slot sb;
        let m = Imap.find (x :> int) !model in
        let cells = ref m.mcells in
        for level = 0 to p.Params.d - 1 do
          cells :=
            Cmap.add (level, Packed.digit lay x level) ((x :> int), sb) !cells
        done;
        model := Imap.add (x :> int) { m with mcells = !cells } !model)
  in
  List.iter apply ops;
  (* Full observational equality of the end states. *)
  Imap.cardinal !model = Node_store.live store
  && Imap.for_all
       (fun xi m ->
         let x = Packed.unsafe_of_int xi in
         match Node_store.find store x with
         | -1 -> false
         | slot ->
           Packed.equal (Node_store.id_of store slot) x
           && Node_store.status store slot = m.mstatus
           && Node_store.filled_count store slot = Cmap.cardinal m.mcells
           && List.for_all
                (fun level ->
                  List.for_all
                    (fun digit ->
                      let pos = (level * p.Params.b) + digit in
                      let got = Node_store.cell store slot pos in
                      match Cmap.find_opt (level, digit) m.mcells with
                      | None -> got = -1
                      | Some (occ, sb) -> got = occ && Node_store.state store slot pos = sb)
                    (List.init p.Params.b Fun.id))
                (List.init p.Params.d Fun.id))
       !model

let set_validates_suffix () =
  let store = Node_store.create p in
  let rng = Rng.create 7 in
  let x = Packed.random rng lay in
  let slot = Node_store.add store x in
  (* An occupant whose digit at level 2 is off by one lacks the required
     suffix for cell (2, digit). *)
  let digits = Array.init p.Params.d (Packed.digit lay x) in
  let wrong = (digits.(2) + 1) mod p.Params.b in
  digits.(2) <- wrong;
  let bad = Packed.make lay digits in
  try
    Node_store.set store slot ~level:2
      ~digit:((wrong + 1) mod p.Params.b)
      bad Node_store.state_s;
    Alcotest.fail "suffix-violating occupant accepted"
  with Invalid_argument _ -> ()

let reverse_lists () =
  let store = Node_store.create p in
  let rng = Rng.create 11 in
  let x = Packed.random rng lay in
  let a = Packed.random rng lay and b = Packed.random rng lay in
  let slot = Node_store.add store x in
  Node_store.add_reverse store slot ~storer:a;
  Node_store.add_reverse store slot ~storer:b;
  Node_store.add_reverse store slot ~storer:a;
  let storers () =
    let got = ref [] in
    Node_store.iter_reverse store slot (fun s -> got := (s :> int) :: !got);
    !got
  in
  (* Newest first, so accumulating restores insertion order. *)
  check Alcotest.(list int) "registrations in order" [ (a :> int); (b :> int); (a :> int) ]
    (storers ());
  Node_store.remove_reverse store slot a;
  check Alcotest.(list int) "a's registrations dropped" [ (b :> int) ] (storers ())

(* ---- engine determinism across worker counts ---- *)

let test_config =
  {
    Scale.params = p;
    n = 600;
    seeds = 64;
    seed = 5;
    shards = 8;
    inject_per_epoch = 64;
    max_epochs = 10_000;
  }

(* b = 10 is not a power of two, so every id crossing a shard goes through
   the decoder's digit check. *)
let decimal_config = { test_config with Scale.params = Params.make ~b:10 ~d:6 }

let jobs_independence () =
  List.iter
    (fun (config : Scale.config) ->
      let r1 = Scale_bench.measure ~jobs:1 config in
      let r4 = Scale_bench.measure ~jobs:4 config in
      let b = config.params.Params.b in
      check Alcotest.bool (Printf.sprintf "jobs=1 ok (b=%d)" b) true (Scale_bench.ok r1);
      check Alcotest.bool (Printf.sprintf "jobs=4 ok (b=%d)" b) true (Scale_bench.ok r4);
      check Alcotest.string
        (Printf.sprintf "payload byte-identical (b=%d)" b)
        (Ntcu_harness.Report.Json.to_string (Scale_bench.payload_json r1))
        (Ntcu_harness.Report.Json.to_string (Scale_bench.payload_json r4)))
    [ test_config; decimal_config ]

let completes_and_checks () =
  let r = Scale_bench.measure ~jobs:2 test_config in
  let s = r.Scale_bench.summary in
  check Alcotest.int "population" test_config.Scale.n s.Scale.population;
  check Alcotest.int "every joiner injected"
    (test_config.Scale.n - test_config.Scale.seeds)
    s.Scale.injected;
  check Alcotest.int "no stuck joiners" 0 s.Scale.stuck;
  check Alcotest.int "no residual violations" 0 s.Scale.violations;
  check Alcotest.bool "events partitioned over shards" true
    (Array.fold_left ( + ) 0 s.Scale.shard_events = s.Scale.events)

(* ---- pinned frame stream ---- *)

(* A smoke-sized run in the paper's space. Every count below is a function
   of the frames the engine emits and the bytes Wire puts on the barrier, so
   a change to any frame, byte or delivery order moves at least one. *)
let pinned_config =
  {
    Scale.params = p;
    n = 2000;
    seeds = 128;
    seed = 1;
    shards = 16;
    inject_per_epoch = 512;
    max_epochs = 1_000_000;
  }

let frame_stream_pinned () =
  let s = Scale.run ~jobs:1 pinned_config in
  let int = Alcotest.int in
  check int "events" 188_790 s.Scale.events;
  check
    Alcotest.(list (pair string int))
    "per-kind counts"
    [
      ("cp_rst", 4908);
      ("cp_rly", 4908);
      ("join_wait", 2808);
      ("join_wait_rly", 2808);
      ("join_noti", 61_136);
      ("join_noti_rly", 61_136);
      ("in_sys_noti", 15_296);
      ("rv_ngh_noti", 25_543);
      ("rv_fix", 10_247);
    ]
    s.Scale.kind_counts;
  check int "epochs" 48 s.Scale.epochs;
  check int "cross_batches" 7210 s.Scale.cross_batches;
  check int "cross_bytes" 3_082_382 s.Scale.cross_bytes;
  check int "redirects" 927 s.Scale.redirects;
  check int "deferrals" 628 s.Scale.deferrals;
  check int "stabilize_fills" 657 s.Scale.stabilize_fills;
  check
    Alcotest.(array int)
    "shard_events"
    [|
      12_451; 11_830; 11_385; 11_433; 10_237; 12_100; 9971; 10_465; 11_172; 12_667;
      14_551; 12_393; 11_985; 11_868; 11_333; 12_949;
    |]
    s.Scale.shard_events

let suites =
  [
    ( "scale",
      [
        qtest ~count:60 "Node_store agrees with the record model" arb_trace
          model_equiv;
        Alcotest.test_case "set validates suffix" `Quick set_validates_suffix;
        Alcotest.test_case "reverse-pointer lists" `Quick reverse_lists;
        Alcotest.test_case "payload independent of --jobs" `Quick jobs_independence;
        Alcotest.test_case "run completes consistent" `Quick completes_and_checks;
        Alcotest.test_case "frame stream pinned (b=16, d=8)" `Quick frame_stream_pinned;
      ] );
  ]

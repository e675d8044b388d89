module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Table = Ntcu_table.Table
module Message = Ntcu_core.Message
module Stats = Ntcu_core.Stats

let check = Alcotest.check
let p = Params.make ~b:4 ~d:5
let id s = Id.of_string p s

let sample_snapshot () =
  let t = Table.create p ~owner:(id "21233") in
  Table.fill_self t S;
  Table.Snapshot.of_table t

let kinds_are_distinct () =
  let kinds =
    [
      Message.K_cp_rst;
      K_cp_rly;
      K_join_wait;
      K_join_wait_rly;
      K_join_noti;
      K_join_noti_rly;
      K_in_sys_noti;
      K_spe_noti;
      K_spe_noti_rly;
      K_rv_ngh_noti;
      K_rv_ngh_noti_rly;
    ]
  in
  check Alcotest.int "count" Message.kind_count (List.length kinds);
  let indices = List.map Message.kind_index kinds in
  check Alcotest.int "distinct indices" Message.kind_count
    (List.length (List.sort_uniq compare indices));
  let names = List.map Message.kind_name kinds in
  check Alcotest.int "distinct names" Message.kind_count
    (List.length (List.sort_uniq compare names))

let kind_of_message () =
  let snap = sample_snapshot () in
  check Alcotest.bool "cp_rst" true (Message.kind (Cp_rst { level = 0 }) = K_cp_rst);
  check Alcotest.bool "join_noti" true
    (Message.kind (Join_noti { table = snap; noti_level = 0; filled = None }) = K_join_noti);
  check Alcotest.bool "rv_ngh" true
    (Message.kind (Rv_ngh_noti { level = 0; digit = 1; recorded = T }) = K_rv_ngh_noti)

let id_bytes_packing () =
  (* b=4 -> 2 bits per digit; 5 digits -> 10 bits -> 2 bytes. *)
  check Alcotest.int "packed id" 2 (Message.id_bytes p);
  (* b=16, d=8 -> 32 bits -> 4 bytes. *)
  check Alcotest.int "hex id" 4 (Message.id_bytes (Params.make ~b:16 ~d:8));
  (* b=16, d=40 -> 160 bits -> 20 bytes (SHA-1 size, as in the paper). *)
  check Alcotest.int "sha1 id" 20 (Message.id_bytes (Params.make ~b:16 ~d:40))

let size_scales_with_cells () =
  let snap = sample_snapshot () in
  let small = Message.size_bytes p (Cp_rly { table = snap }) in
  let empty =
    Message.size_bytes p
      (Cp_rly
         { table = Table.Snapshot.filter snap ~f:(fun ~level:_ ~digit:_ _ _ -> false) })
  in
  check Alcotest.bool "more cells cost more" true (small > empty);
  check Alcotest.int "delta is cells * cell_bytes" (5 * Message.cell_bytes p)
    (small - empty)

let small_messages_are_small () =
  let join_wait = Message.size_bytes p Message.Join_wait in
  let in_sys = Message.size_bytes p Message.In_sys_noti in
  let big = Message.size_bytes p (Cp_rly { table = sample_snapshot () }) in
  check Alcotest.bool "join_wait small" true (join_wait < big);
  check Alcotest.bool "in_sys small" true (in_sys < big)

let bit_vector_accounted () =
  let snap = sample_snapshot () in
  let without =
    Message.size_bytes p (Join_noti { table = snap; noti_level = 0; filled = None })
  in
  let with_bv =
    Message.size_bytes p
      (Join_noti { table = snap; noti_level = 0; filled = Some (String.make 20 '0') })
  in
  (* d*b = 20 bits -> 3 bytes. *)
  check Alcotest.int "bit vector bytes" 3 (with_bv - without)

let stats_record_and_add () =
  let s = Stats.create () in
  let record_sent m = Stats.record_sent s m ~bytes:(Message.size_bytes p m) in
  record_sent (Cp_rst { level = 0 });
  record_sent Message.Join_wait;
  record_sent (Join_noti { table = sample_snapshot (); noti_level = 0; filled = None });
  Stats.record_received s Message.In_sys_noti
    ~bytes:(Message.size_bytes p Message.In_sys_noti);
  check Alcotest.int "cp+wait" 2 (Stats.copy_and_wait_sent s);
  check Alcotest.int "join noti" 1 (Stats.join_noti_sent s);
  check Alcotest.int "total sent" 3 (Stats.total_sent s);
  check Alcotest.int "total received" 1 (Stats.total_received s);
  check Alcotest.bool "bytes counted" true (Stats.bytes_sent s > 0);
  let doubled = Stats.add s s in
  check Alcotest.int "add" 6 (Stats.total_sent doubled);
  check Alcotest.int "add bytes" (2 * Stats.bytes_sent s) (Stats.bytes_sent doubled)

let pp_smoke () =
  let messages =
    [
      Message.Cp_rst { level = 1 };
      Cp_rly { table = sample_snapshot () };
      Join_wait;
      In_sys_noti;
      Spe_noti { origin = id "21233"; subject = id "01233" };
    ]
  in
  List.iter
    (fun m -> check Alcotest.bool "renders" true (String.length (Fmt.str "%a" Message.pp m) > 0))
    messages

let suites =
  [
    ( "core.message",
      [
        Alcotest.test_case "kinds distinct" `Quick kinds_are_distinct;
        Alcotest.test_case "kind dispatch" `Quick kind_of_message;
        Alcotest.test_case "id byte packing" `Quick id_bytes_packing;
        Alcotest.test_case "size scales with cells" `Quick size_scales_with_cells;
        Alcotest.test_case "small messages" `Quick small_messages_are_small;
        Alcotest.test_case "bit vector size" `Quick bit_vector_accounted;
        Alcotest.test_case "stats" `Quick stats_record_and_add;
        Alcotest.test_case "pp" `Quick pp_smoke;
      ] );
  ]

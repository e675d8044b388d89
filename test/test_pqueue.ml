module Pqueue = Ntcu_std.Pqueue

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let empty_behaviour () =
  let q = Pqueue.create () in
  check Alcotest.bool "is_empty" true (Pqueue.is_empty q);
  check Alcotest.int "length" 0 (Pqueue.length q);
  check Alcotest.bool "pop none" true (Pqueue.pop q = None);
  check Alcotest.bool "peek none" true (Pqueue.peek q = None)

let ordering () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k (int_of_float k)) [ 5.; 1.; 3.; 2.; 4. ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let fifo_on_ties () =
  let q = Pqueue.create () in
  List.iteri (fun i label -> ignore i; Pqueue.push q 1.0 label) [ "a"; "b"; "c"; "d" ];
  Pqueue.push q 0.5 "first";
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "insertion order on equal keys"
    [ "first"; "a"; "b"; "c"; "d" ]
    (List.rev !order)

let peek_matches_pop () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k k) [ 9.; 2.; 7. ];
  (match (Pqueue.peek q, Pqueue.pop q) with
  | Some (pk, pv), Some (qk, qv) ->
    check (Alcotest.float 0.) "peek key" pk qk;
    check (Alcotest.float 0.) "peek value" pv qv
  | _ -> Alcotest.fail "expected entries");
  check Alcotest.int "length decremented" 2 (Pqueue.length q)

let clear_resets () =
  let q = Pqueue.create () in
  List.iter (fun k -> Pqueue.push q k ()) [ 1.; 2.; 3. ];
  Pqueue.clear q;
  check Alcotest.bool "empty after clear" true (Pqueue.is_empty q);
  Pqueue.push q 1. ();
  check Alcotest.int "usable after clear" 1 (Pqueue.length q)

let remove_leaves_order_intact () =
  let q = Pqueue.create () in
  let handles = List.map (fun k -> (k, Pqueue.push_handle q (float_of_int k) k)) [ 5; 1; 3; 2; 4 ] in
  let h3 = List.assoc 3 handles in
  check Alcotest.bool "mem before" true (Pqueue.mem q h3);
  check Alcotest.bool "removed" true (Pqueue.remove q h3);
  check Alcotest.bool "mem after" false (Pqueue.mem q h3);
  check Alcotest.bool "second remove stale" false (Pqueue.remove q h3);
  let rec drain acc =
    match Pqueue.pop q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  check Alcotest.(list int) "others unaffected" [ 1; 2; 4; 5 ] (drain [])

let stale_handles_safe () =
  let q = Pqueue.create () in
  let h = Pqueue.push_handle q 1. () in
  ignore (Pqueue.pop q);
  check Alcotest.bool "stale after pop" false (Pqueue.mem q h);
  check Alcotest.bool "remove stale" false (Pqueue.remove q h);
  let h2 = Pqueue.push_handle q 2. () in
  Pqueue.clear q;
  check Alcotest.bool "stale after clear" false (Pqueue.mem q h2)

let foreign_handles_rejected () =
  let qa = Pqueue.create () and qb = Pqueue.create () in
  let ha = Pqueue.push_handle qa 1. "a" in
  ignore (Pqueue.push_handle qb 2. "b");
  check Alcotest.bool "mem in owner" true (Pqueue.mem qa ha);
  check Alcotest.bool "mem in other queue" false (Pqueue.mem qb ha);
  Alcotest.check_raises "remove foreign"
    (Invalid_argument "Pqueue.remove: handle from another queue") (fun () ->
      ignore (Pqueue.remove qb ha));
  (* Neither queue was corrupted by the rejected call. *)
  check Alcotest.int "qa intact" 1 (Pqueue.length qa);
  check Alcotest.int "qb intact" 1 (Pqueue.length qb);
  check Alcotest.bool "qa still pops" true (Pqueue.pop qa = Some (1., "a"));
  check Alcotest.bool "qb still pops" true (Pqueue.pop qb = Some (2., "b"))

let heap_sorts =
  qtest "pop yields sorted keys" QCheck.(list (float_bound_exclusive 1000.)) (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.push q k k) keys;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

let interleaved_operations =
  qtest "interleaved push/pop maintains order"
    QCheck.(list (pair bool (float_bound_exclusive 100.)))
    (fun operations ->
      let q = Pqueue.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_pop, key) ->
          if is_pop then begin
            match (Pqueue.pop q, !model) with
            | None, [] -> ()
            | Some (k, _), m ->
              let expected = List.fold_left min infinity m in
              if k <> expected then ok := false
              else begin
                (* remove one instance of the minimum *)
                let removed = ref false in
                model :=
                  List.filter
                    (fun v ->
                      if (not !removed) && v = expected then begin
                        removed := true;
                        false
                      end
                      else true)
                    m
              end
            | None, _ :: _ -> ok := false
          end
          else begin
            Pqueue.push q key key;
            model := key :: !model
          end)
        operations;
      !ok)

(* of_list/add_list heapify must be observationally identical to pushing the
   same pairs one by one — including FIFO rank on equal keys. *)
let bulk_build_matches_pushes =
  qtest "of_list/add_list equal sequential pushes"
    QCheck.(
      pair
        (list (pair (float_bound_exclusive 10.) small_nat))
        (list (pair (float_bound_exclusive 10.) small_nat)))
    (fun (first, second) ->
      let bulk = Pqueue.of_list first in
      Pqueue.add_list bulk second;
      let slow = Pqueue.create () in
      List.iter (fun (k, v) -> Pqueue.push slow k v) first;
      List.iter (fun (k, v) -> Pqueue.push slow k v) second;
      let rec drain q acc =
        match Pqueue.pop q with
        | Some kv -> drain q (kv :: acc)
        | None -> List.rev acc
      in
      Pqueue.length bulk = List.length first + List.length second
      && drain bulk [] = drain slow [])

(* Popped and removed elements must not stay reachable from a drained
   queue: the engine's elements are closures holding delivered messages.
   Values pushed one by one, in bulk and with handles, some removed, the
   rest popped; each step runs in its own function so the test's frame
   keeps none of them. *)
let drained_queue_releases_values () =
  let n = 48 in
  let weak = Weak.create n in
  let q = Pqueue.create () in
  let boxed i =
    let v = Bytes.make 16 (Char.chr (65 + (i mod 26))) in
    Weak.set weak i (Some v);
    v
  in
  let fill () =
    for i = 0 to 15 do
      Pqueue.push q (float_of_int (i mod 5)) (boxed i)
    done;
    Pqueue.add_list q (List.init 16 (fun j -> (float_of_int (j mod 3), boxed (16 + j))));
    List.init 16 (fun j -> Pqueue.push_handle q (float_of_int (j mod 4)) (boxed (32 + j)))
  in
  let drain handles =
    List.iteri (fun j h -> if j mod 2 = 0 then ignore (Pqueue.remove q h : bool)) handles;
    let popped = ref 0 in
    while Option.is_some (Pqueue.pop q) do
      incr popped
    done;
    !popped
  in
  check Alcotest.int "popped" (n - 8) (drain (fill ()));
  Gc.full_major ();
  let reachable = List.filter (Weak.check weak) (List.init n Fun.id) in
  check Alcotest.(list int) "values still reachable" [] reachable;
  Pqueue.push q 1. (Bytes.make 1 'x');
  check Alcotest.int "usable after draining" 1 (Pqueue.length q)

let suites =
  [
    ( "std.pqueue",
      [
        Alcotest.test_case "empty" `Quick empty_behaviour;
        Alcotest.test_case "ordering" `Quick ordering;
        Alcotest.test_case "fifo ties" `Quick fifo_on_ties;
        Alcotest.test_case "peek/pop" `Quick peek_matches_pop;
        Alcotest.test_case "clear" `Quick clear_resets;
        Alcotest.test_case "remove via handle" `Quick remove_leaves_order_intact;
        Alcotest.test_case "stale handles" `Quick stale_handles_safe;
        Alcotest.test_case "foreign handles" `Quick foreign_handles_rejected;
        Alcotest.test_case "drained queue releases values" `Quick
          drained_queue_releases_values;
        heap_sorts;
        interleaved_operations;
        bulk_build_matches_pushes;
      ] );
  ]

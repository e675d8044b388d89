module Engine = Ntcu_sim.Engine
module Latency = Ntcu_sim.Latency
module Trace = Ntcu_sim.Trace
module Transport = Ntcu_sim.Transport
module Id = Ntcu_id.Id

let check = Alcotest.check

let fires_in_time_order () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~delay:3. (fun () -> order := 3 :: !order);
  Engine.schedule e ~delay:1. (fun () -> order := 1 :: !order);
  Engine.schedule e ~delay:2. (fun () -> order := 2 :: !order);
  Engine.run e;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !order)

let ties_fire_in_schedule_order () =
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun i -> Engine.schedule e ~delay:1. (fun () -> order := i :: !order))
    [ 1; 2; 3; 4 ];
  Engine.run e;
  check Alcotest.(list int) "fifo on ties" [ 1; 2; 3; 4 ] (List.rev !order)

let clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~delay:5. (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule e ~delay:2. (fun () ->
      seen := Engine.now e :: !seen;
      (* nested scheduling is relative to current time *)
      Engine.schedule e ~delay:1. (fun () -> seen := Engine.now e :: !seen));
  Engine.run e;
  check Alcotest.(list (float 1e-9)) "timestamps" [ 2.; 3.; 5. ] (List.rev !seen)

let rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1. (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.) (fun () -> ()));
  try
    Engine.schedule_at e ~time:0.5 (fun () -> ());
    Alcotest.fail "past schedule accepted"
  with Invalid_argument _ -> ()

let run_until_partial () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~delay:t (fun () -> fired := t :: !fired))
    [ 1.; 2.; 3.; 4. ];
  Engine.run_until e ~time:2.5;
  check Alcotest.(list (float 1e-9)) "only early events" [ 1.; 2. ] (List.rev !fired);
  check Alcotest.int "pending remainder" 2 (Engine.pending e);
  check (Alcotest.float 1e-9) "clock at target" 2.5 (Engine.now e);
  Engine.run e;
  check Alcotest.int "all fired" 4 (List.length !fired)

let livelock_guard () =
  let e = Engine.create () in
  let rec reschedule () = Engine.schedule e ~delay:1. reschedule in
  reschedule ();
  try
    Engine.run ~max_events:1000 e;
    Alcotest.fail "livelock not detected"
  with Failure _ -> ()

let counts_events () =
  let e = Engine.create () in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1. (fun () -> ())
  done;
  Engine.run e;
  check Alcotest.int "processed" 10 (Engine.events_processed e)

let cancel_prevents_firing () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:1. (fun () -> fired := "a" :: !fired);
  let h = Engine.schedule_cancellable e ~delay:2. (fun () -> fired := "x" :: !fired) in
  Engine.schedule e ~delay:3. (fun () -> fired := "b" :: !fired);
  check Alcotest.bool "not yet cancelled" false (Engine.cancelled h);
  Engine.cancel e h;
  check Alcotest.bool "cancelled" true (Engine.cancelled h);
  (* Eager deletion: the event leaves the queue immediately... *)
  check Alcotest.int "still pending" 2 (Engine.pending e);
  check Alcotest.int "cancelled count" 1 (Engine.events_cancelled e);
  Engine.run e;
  (* ...and never fires nor counts as processed. *)
  check Alcotest.(list string) "only live events" [ "a"; "b" ] (List.rev !fired);
  check Alcotest.int "popped" 2 (Engine.events_processed e)

let cancel_after_fire_is_noop () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.schedule_cancellable e ~delay:1. (fun () -> incr count) in
  Engine.run e;
  check Alcotest.int "fired once" 1 !count;
  Engine.cancel e h;
  Engine.cancel e h;
  check Alcotest.bool "marked" true (Engine.cancelled h);
  Engine.run e;
  check Alcotest.int "never refires" 1 !count

let cancellable_rejects_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_cancellable: negative delay") (fun () ->
      ignore (Engine.schedule_cancellable e ~delay:(-1.) (fun () -> ())))

(* Cancellation must not perturb the firing order of the surviving events:
   two engines with the same schedule — one holding a cancelled timer between
   ties — observe identical order and timestamps. *)
let cancellation_preserves_determinism () =
  let run ~with_cancelled =
    let e = Engine.create () in
    let log = ref [] in
    let note tag () = log := (Engine.now e, tag) :: !log in
    Engine.schedule e ~delay:1. (note "a1");
    (if with_cancelled then
       let h = Engine.schedule_cancellable e ~delay:1. (note "dead") in
       Engine.cancel e h);
    Engine.schedule e ~delay:1. (note "a2");
    Engine.schedule e ~delay:2. (note "b");
    (* Cancel mid-run too: a timer revoked from inside an earlier event. *)
    let h2 = ref None in
    Engine.schedule e ~delay:1.5 (fun () ->
        match !h2 with Some h -> Engine.cancel e h | None -> ());
    h2 := Some (Engine.schedule_cancellable e ~delay:1.75 (note "dead2"));
    Engine.run e;
    List.rev !log
  in
  let plain = run ~with_cancelled:false in
  let with_cancelled = run ~with_cancelled:true in
  check
    Alcotest.(list (pair (float 1e-9) string))
    "same observable run" plain with_cancelled;
  (* And the run is reproducible wholesale. *)
  check
    Alcotest.(list (pair (float 1e-9) string))
    "replay identical" with_cancelled (run ~with_cancelled:true)

(* The timer-leak debug registry: tracks every cancellable handle, prunes
   handles that left the queue, and proves "no cancelled timer remains
   queued" when the engine drains. The churn driver runs with this on in its
   smoke config — hours of steady state multiply any cancel/index drift. *)
let debug_timer_leak_check () =
  let e = Engine.create () in
  Engine.set_debug_timers e true;
  check Alcotest.int "registry empty" 0 (Engine.debug_tracked_timers e);
  let fired = ref 0 in
  let h1 = Engine.schedule_cancellable e ~delay:1. (fun () -> incr fired) in
  let _h2 = Engine.schedule_cancellable e ~delay:2. (fun () -> incr fired) in
  check Alcotest.int "both tracked" 2 (Engine.debug_tracked_timers e);
  Engine.cancel e h1;
  (* Eager deletion removed the cancelled event; the check prunes its handle
     without complaint. *)
  Engine.assert_no_timer_leaks e;
  check Alcotest.int "cancelled handle pruned" 1 (Engine.debug_tracked_timers e);
  (* run drains the queue and re-checks automatically. *)
  Engine.run e;
  check Alcotest.int "only the live timer fired" 1 !fired;
  check Alcotest.int "registry drained" 0 (Engine.debug_tracked_timers e);
  (* Disabling clears the registry and makes the check a no-op. *)
  ignore (Engine.schedule_cancellable e ~delay:1. (fun () -> ()) : Engine.handle);
  Engine.set_debug_timers e false;
  check Alcotest.int "tracking off" 0 (Engine.debug_tracked_timers e);
  Engine.assert_no_timer_leaks e;
  Engine.run e

let latency_constant () =
  let l = Latency.constant 2.5 in
  check (Alcotest.float 1e-9) "constant" 2.5 (Latency.sample l ~src:0 ~dst:1)

let latency_uniform_range () =
  let l = Latency.uniform ~seed:1 ~lo:1. ~hi:5. in
  for _ = 1 to 100 do
    let v = Latency.sample l ~src:0 ~dst:1 in
    if v < 1. || v >= 5. then Alcotest.failf "uniform out of range: %f" v
  done

let latency_distance_jitter () =
  let l = Latency.of_distance ~jitter:0.1 ~seed:2 (fun ~src ~dst -> float_of_int (src + dst)) in
  for _ = 1 to 50 do
    let v = Latency.sample l ~src:3 ~dst:4 in
    if v < 7. || v > 7.7 +. 1e-9 then Alcotest.failf "jittered out of range: %f" v
  done

let latency_min_delay () =
  check Alcotest.bool "epsilon positive" true (Latency.min_delay > 0.);
  (* Zero-distance (co-located) endpoints still get a strictly positive
     delay, clamped to the epsilon — virtual time must always advance. *)
  let l = Latency.of_distance (fun ~src:_ ~dst:_ -> 0.) in
  check (Alcotest.float 0.) "clamped to epsilon" Latency.min_delay
    (Latency.sample l ~src:3 ~dst:3);
  let l' = Latency.of_distance ~jitter:0.5 ~seed:9 (fun ~src:_ ~dst:_ -> 0.) in
  for _ = 1 to 20 do
    check Alcotest.bool "jittered still >= epsilon" true
      (Latency.sample l' ~src:0 ~dst:1 >= Latency.min_delay)
  done

(* Same-host messages all arrive after the same epsilon, so their delivery
   order is the engine's FIFO tie-break — i.e. exactly the send order. *)
let same_host_delivery_order () =
  let l = Latency.of_distance (fun ~src:_ ~dst:_ -> 0.) in
  let e = Engine.create () in
  let order = ref [] in
  List.iter
    (fun tag ->
      let d = Latency.sample l ~src:1 ~dst:1 in
      Engine.schedule e ~delay:d (fun () -> order := tag :: !order))
    [ "m1"; "m2"; "m3"; "m4" ];
  Engine.run e;
  check Alcotest.(list string) "send order preserved" [ "m1"; "m2"; "m3"; "m4" ]
    (List.rev !order)

let latency_validation () =
  (try
     ignore (Latency.constant 0.);
     Alcotest.fail "zero latency accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Latency.uniform ~seed:0 ~lo:5. ~hi:1.);
    Alcotest.fail "inverted range accepted"
  with Invalid_argument _ -> ()

let trace_equality () =
  let a = Trace.create () and b = Trace.create () in
  Trace.record a 1. "x";
  Trace.record b 1. "x";
  check Alcotest.bool "equal traces" true (Trace.equal a b);
  Trace.record a 2. "y";
  check Alcotest.bool "diverged traces" false (Trace.equal a b);
  check Alcotest.int "length" 2 (Trace.length a);
  check Alcotest.bool "ordering" true (Trace.to_list a = [ (1., "x"); (2., "y") ])

(* ---- Transport: the simulated wire ---- *)

let wire_ids =
  let p = Ntcu_id.Params.make ~b:4 ~d:4 in
  List.map (Id.of_string p) [ "0000"; "1111"; "2222"; "3333" ]

let id_list = Alcotest.testable (Fmt.Dump.list Id.pp) (List.equal Id.equal)

let plain_wire ?latency ?record_trace () =
  Transport.create ?latency ?record_trace
    ~label:(fun ~src ~dst tag -> Fmt.str "%a>%a %s" Id.pp src Id.pp dst tag)
    ()

let transport_registry () =
  let a, b, c, d =
    match wire_ids with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let t = plain_wire () in
  List.iter (fun x -> Transport.register t x ()) [ a; b; c ];
  check Alcotest.(list int) "hosts in registration order" [ 0; 1; 2 ]
    (List.map (Transport.host t) [ a; b; c ]);
  Transport.remove t b;
  check Alcotest.bool "removed is gone" false (Transport.mem t b);
  check Alcotest.int "removed keeps its host" 1 (Transport.host t b);
  Transport.register t d ();
  check Alcotest.int "no reuse after remove" 3 (Transport.host t d);
  Transport.register t b ();
  check Alcotest.int "re-registration gets a fresh host" 4 (Transport.host t b);
  check id_list "ids in registration order" [ a; c; d; b ] (Transport.ids t);
  check Alcotest.int "size" 4 (Transport.size t);
  (try
     Transport.register t a ();
     Alcotest.fail "duplicate registration accepted"
   with Invalid_argument _ -> ());
  try
    Transport.remove t (Id.of_string (Ntcu_id.Params.make ~b:4 ~d:4) "0123");
    Alcotest.fail "unknown removal accepted"
  with Invalid_argument _ -> ()

(* The hook sees each scheduled frame once, numbered from 0 in send order,
   with the sender's classification and the sampled delay; frames sent
   before it is installed are not numbered. *)
let transport_hook_seq () =
  let a, b = match wire_ids with a :: b :: _ -> (a, b) | _ -> assert false in
  let t = plain_wire ~latency:(Latency.constant 2.) () in
  List.iter (fun x -> Transport.register t x ()) [ a; b ];
  Transport.send t ~critical:true ~src:a ~dst:b ignore;
  let calls = ref [] in
  Transport.set_hook t
    (Some
       (fun ~critical ~src ~dst:_ ~seq delay ->
         check (Alcotest.float 0.) "sampled delay passed in" 2. delay;
         calls := (seq, critical, Id.equal src a) :: !calls;
         delay));
  Transport.send t ~critical:true ~src:a ~dst:b ignore;
  Transport.send t ~critical:false ~src:a ~dst:b ignore;
  Transport.send t ~critical:true ~src:b ~dst:a ignore;
  check
    Alcotest.(list (triple int bool bool))
    "one call per frame, seq from 0"
    [ (0, true, true); (1, false, true); (2, true, false) ]
    (List.rev !calls);
  check Alcotest.int "every frame scheduled" 4 (Engine.pending (Transport.engine t))

let transport_clamps_hook () =
  let a, b = match wire_ids with a :: b :: _ -> (a, b) | _ -> assert false in
  let t = plain_wire () in
  List.iter (fun x -> Transport.register t x ()) [ a; b ];
  let e = Transport.engine t in
  let arrivals = ref [] in
  List.iter
    (fun rewritten ->
      Transport.set_hook t (Some (fun ~critical:_ ~src:_ ~dst:_ ~seq:_ _ -> rewritten));
      Transport.send t ~critical:false ~src:a ~dst:b (fun () ->
          arrivals := Engine.now e :: !arrivals);
      Engine.run e)
    [ 0.; -3.; 5. ];
  check
    Alcotest.(list (float 0.))
    "non-positive results become min_delay"
    [ Latency.min_delay; 2. *. Latency.min_delay; (2. *. Latency.min_delay) +. 5. ]
    (List.rev !arrivals)

let transport_trace_on_request () =
  let a, b = match wire_ids with a :: b :: _ -> (a, b) | _ -> assert false in
  let run record_trace =
    let t = plain_wire ?record_trace () in
    List.iter (fun x -> Transport.register t x ()) [ a; b ];
    Transport.send t ~critical:false ~src:a ~dst:b (fun () ->
        Transport.arrive t ~src:a ~dst:b "hello");
    Engine.run (Transport.engine t);
    t
  in
  let untraced = run None in
  check Alcotest.bool "no trace by default" true
    (Option.is_none (Transport.trace untraced));
  check Alcotest.int "arrival counted anyway" 1 (Transport.delivered untraced);
  let traced = run (Some true) in
  match Transport.trace traced with
  | None -> Alcotest.fail "trace requested but absent"
  | Some tr ->
    check Alcotest.int "arrival counted" 1 (Transport.delivered traced);
    check
      Alcotest.(list (pair (float 0.) string))
      "labelled at arrival time"
      [ (1., Fmt.str "%a>%a hello" Id.pp a Id.pp b) ]
      (Trace.to_list tr)

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick fires_in_time_order;
        Alcotest.test_case "fifo ties" `Quick ties_fire_in_schedule_order;
        Alcotest.test_case "clock" `Quick clock_advances;
        Alcotest.test_case "rejects past" `Quick rejects_past;
        Alcotest.test_case "run_until" `Quick run_until_partial;
        Alcotest.test_case "livelock guard" `Quick livelock_guard;
        Alcotest.test_case "event counting" `Quick counts_events;
        Alcotest.test_case "cancel prevents firing" `Quick cancel_prevents_firing;
        Alcotest.test_case "cancel after fire" `Quick cancel_after_fire_is_noop;
        Alcotest.test_case "cancel rejects negative" `Quick
          cancellable_rejects_negative_delay;
        Alcotest.test_case "cancel determinism" `Quick cancellation_preserves_determinism;
        Alcotest.test_case "debug timer-leak check" `Quick debug_timer_leak_check;
      ] );
    ( "sim.latency",
      [
        Alcotest.test_case "constant" `Quick latency_constant;
        Alcotest.test_case "uniform range" `Quick latency_uniform_range;
        Alcotest.test_case "distance jitter" `Quick latency_distance_jitter;
        Alcotest.test_case "min delay epsilon" `Quick latency_min_delay;
        Alcotest.test_case "same-host delivery order" `Quick same_host_delivery_order;
        Alcotest.test_case "validation" `Quick latency_validation;
        Alcotest.test_case "trace" `Quick trace_equality;
      ] );
    ( "sim.transport",
      [
        Alcotest.test_case "registry and host indices" `Quick transport_registry;
        Alcotest.test_case "hook sees each frame once" `Quick transport_hook_seq;
        Alcotest.test_case "hook result clamped" `Quick transport_clamps_hook;
        Alcotest.test_case "trace only on request" `Quick transport_trace_on_request;
      ] );
  ]

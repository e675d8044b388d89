module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Engine = Ntcu_sim.Engine
module Transport = Ntcu_sim.Transport

type reliability = {
  rto : float;
  backoff : float;
  jitter : float;
  max_retries : int;
  seed : int;
}

let default_reliability = { rto = 10.; backoff = 2.; jitter = 0.5; max_retries = 8; seed = 7 }

(* An unacked copy of a protocol message, keyed by its sequence number. *)
type pending = {
  p_src : Id.t;
  p_dst : Id.t;
  p_msg : Message.t;
  p_bytes : int; (* modeled wire size, computed once at first send *)
  mutable attempt : int;
  mutable timer : Engine.handle option;
}

type t = {
  params : Ntcu_id.Params.t;
  node_config : Node.config;
  wire : (Node.t, Message.t) Transport.t;
  global : Stats.t;
  failed : unit Id.Tbl.t;
  mutable dropped : int;
  loss : (float * Ntcu_std.Rng.t) option;
  mutable lost : int;
  (* Ack/retransmit transport (None = the paper's reliable-delivery
     assumption is modeled by simply not losing messages). *)
  rel : (reliability * Ntcu_std.Rng.t) option;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t;
  seen : (int, unit) Hashtbl.t; (* receiver-side duplicate suppression *)
  suspected : unit Id.Tbl.t;
  mutable suspicion_handler : (reporter:Id.t -> suspect:Id.t -> unit) option;
  mutable acks_sent : int;
  mutable acks_lost : int;
}

let label ~src ~dst msg = Fmt.str "%a -> %a : %a" Id.pp src Id.pp dst Message.pp msg

let create ?latency ?(size_mode = Message.Full) ?(record_trace = false) ?loss ?reliability
    params =
  let loss =
    match loss with
    | None -> None
    | Some (probability, _) when probability <= 0. -> None
    | Some (probability, seed) ->
      if probability >= 1. then invalid_arg "Network.create: loss probability must be < 1";
      Some (probability, Ntcu_std.Rng.create seed)
  in
  let rel =
    match reliability with
    | None -> None
    | Some r ->
      if r.rto <= 0. then invalid_arg "Network.create: rto must be positive";
      if r.backoff < 1. then invalid_arg "Network.create: backoff must be >= 1";
      if r.jitter < 0. then invalid_arg "Network.create: jitter must be >= 0";
      if r.max_retries < 0 then invalid_arg "Network.create: max_retries must be >= 0";
      Some (r, Ntcu_std.Rng.create r.seed)
  in
  {
    params;
    node_config = { Node.params; size_mode };
    wire = Transport.create ?latency ~record_trace ~label ();
    global = Stats.create ();
    failed = Id.Tbl.create 16;
    dropped = 0;
    loss;
    lost = 0;
    rel;
    next_seq = 0;
    pending = Hashtbl.create 256;
    seen = Hashtbl.create 4096;
    suspected = Id.Tbl.create 16;
    suspicion_handler = None;
    acks_sent = 0;
    acks_lost = 0;
  }

let params t = t.params
let engine t = Transport.engine t.wire
let trace t = Transport.trace t.wire
let reliable t = Option.is_some t.rel

let set_suspicion_handler t f = t.suspicion_handler <- Some f

let is_suspected t id = Id.Tbl.mem t.suspected id

let register t node = Transport.register t.wire (Node.id node) node

let node t id = Transport.find t.wire id
let mem t id = Transport.mem t.wire id

let node_exn t id =
  match node t id with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Network: unknown node %a" Id.pp id)

let is_failed t id = Id.Tbl.mem t.failed id

let draw_loss t =
  match t.loss with
  | Some (probability, rng) -> Ntcu_std.Rng.float rng 1.0 < probability
  | None -> false

let set_delay_hook t hook = Transport.set_hook t.wire hook

let rec send t ~src ~dst msg =
  if Id.equal src dst then
    invalid_arg (Fmt.str "Network.send: %a sending %a to itself" Id.pp src Message.pp msg);
  (* The modeled wire size walks the embedded snapshot; compute it once and
     share it with every counter on the path (sender, receiver, global). *)
  let bytes = Message.size_bytes t.params msg in
  Stats.record_sent (Node.stats (node_exn t src)) msg ~bytes;
  Stats.record_sent t.global msg ~bytes;
  match t.rel with
  | None ->
    if draw_loss t then t.lost <- t.lost + 1
    else
      Transport.send t.wire ~critical:(Message.ordering_critical msg) ~src ~dst (fun () ->
          deliver t ~src ~dst ~bytes msg)
  | Some _ ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let p =
      { p_src = src; p_dst = dst; p_msg = msg; p_bytes = bytes; attempt = 0; timer = None }
    in
    Hashtbl.replace t.pending seq p;
    transmit t seq p

(* Put one copy of pending message [seq] on the wire and arm its
   retransmission timer. *)
and transmit t seq p =
  let r, rng = match t.rel with Some x -> x | None -> assert false in
  if draw_loss t then t.lost <- t.lost + 1
  else
    Transport.send t.wire ~critical:(Message.ordering_critical p.p_msg) ~src:p.p_src
      ~dst:p.p_dst (fun () -> deliver_reliable t seq p);
  let timeout =
    r.rto
    *. (r.backoff ** float_of_int p.attempt)
    *. (1. +. (r.jitter *. Ntcu_std.Rng.float rng 1.0))
  in
  p.timer <- Some (Engine.schedule_cancellable (engine t) ~delay:timeout (fun () ->
      on_timeout t seq))

and deliver_reliable t seq p =
  match node t p.p_dst with
  | None -> t.dropped <- t.dropped + 1 (* departed: no ack, the timer will fire *)
  | Some _ when Id.Tbl.mem t.failed p.p_dst -> t.dropped <- t.dropped + 1
  | Some receiver ->
    (* Ack first (a transport frame, not a Message.t — it carries only the
       sequence number and is never itself acked), then deliver unless this
       copy is a duplicate of one already processed. *)
    t.acks_sent <- t.acks_sent + 1;
    if draw_loss t then t.acks_lost <- t.acks_lost + 1
    else
      Transport.send t.wire ~critical:false ~src:p.p_dst ~dst:p.p_src (fun () ->
          on_ack t seq);
    if Hashtbl.mem t.seen seq then begin
      Stats.record_duplicate (Node.stats receiver);
      Stats.record_duplicate t.global
    end
    else begin
      Hashtbl.replace t.seen seq ();
      deliver_live t ~src:p.p_src ~dst:p.p_dst ~bytes:p.p_bytes receiver p.p_msg
    end

and on_ack t seq =
  match Hashtbl.find_opt t.pending seq with
  | None -> () (* already acked *)
  | Some p ->
    (match p.timer with Some h -> Engine.cancel (engine t) h | None -> ());
    Hashtbl.remove t.pending seq

and on_timeout t seq =
  match Hashtbl.find_opt t.pending seq with
  | None -> () (* acked after this timer was armed but before it fired *)
  | Some p ->
    let r, _ = match t.rel with Some x -> x | None -> assert false in
    (match node t p.p_src with
    | Some sender when not (is_failed t p.p_src) ->
      Stats.record_timeout (Node.stats sender);
      Stats.record_timeout t.global;
      if p.attempt < r.max_retries then begin
        p.attempt <- p.attempt + 1;
        Stats.record_retransmission (Node.stats sender);
        Stats.record_retransmission t.global;
        transmit t seq p
      end
      else begin
        (* Retry budget exhausted: give up on this copy and suspect the
           peer. The network-level hook (Online_repair) disseminates the
           suspicion FIRST so it can observe every table — including the
           reporter's — before any scrub empties the suspect's entries (it
           refills the holes it saw). The reporter's own failover then runs
           with [failed] to re-route the abandoned message. *)
        Hashtbl.remove t.pending seq;
        Stats.record_failover (Node.stats sender);
        Stats.record_failover t.global;
        let first_report = not (Id.Tbl.mem t.suspected p.p_dst) in
        Id.Tbl.replace t.suspected p.p_dst ();
        (if first_report then
           match t.suspicion_handler with
           | Some f -> f ~reporter:p.p_src ~suspect:p.p_dst
           | None -> ());
        let actions =
          Node.on_suspect sender ~now:(Engine.now (engine t)) ~peer:p.p_dst
            ~failed:(Some p.p_msg)
        in
        List.iter (fun { Node.dst = d; msg = m } -> send t ~src:p.p_src ~dst:d m) actions
      end
    | Some _ | None ->
      (* The sender itself crashed or departed; nobody is waiting. *)
      Hashtbl.remove t.pending seq)

and deliver t ~src ~dst ~bytes msg =
  match node t dst with
  | None ->
    (* Destination departed while the message was in flight. *)
    t.dropped <- t.dropped + 1
  | Some _ when Id.Tbl.mem t.failed dst -> t.dropped <- t.dropped + 1
  | Some receiver -> deliver_live t ~src ~dst ~bytes receiver msg

and deliver_live t ~src ~dst ~bytes receiver msg =
  Transport.arrive t.wire ~src ~dst msg;
  Stats.record_received (Node.stats receiver) msg ~bytes;
  Stats.record_received t.global msg ~bytes;
  let actions = Node.handle receiver ~now:(Engine.now (engine t)) ~src msg in
  List.iter (fun { Node.dst = d; msg = m } -> send t ~src:dst ~dst:d m) actions

let inject t ~src actions =
  List.iter (fun { Node.dst = d; msg = m } -> send t ~src ~dst:d m) actions

let seed_node t id =
  let node = Node.create_seed t.node_config id in
  register t node;
  node

let add_seed_node t id = ignore (seed_node t id)

let seed_consistent t ~seed ids =
  if List.is_empty ids then invalid_arg "Network.seed_consistent: empty node list";
  let tables = List.map (fun id -> Node.table (seed_node t id)) ids in
  Ntcu_table.Suffix_index.fill_consistent ~rng:(Ntcu_std.Rng.create seed) ~reverse:true tables

(* Registration emits no events and [Engine.schedule_batch] assigns the same
   tie-break sequence numbers as per-join pushes would, so a batch behaves
   exactly like its joins started one by one; it only heapifies the event
   population in O(n). *)
let start_joins t joins =
  let events =
    List.map
      (fun (at, id, gateway) ->
        ignore (node_exn t gateway);
        let joiner = Node.create_joiner t.node_config id in
        register t joiner;
        ( at,
          fun () ->
            let actions = Node.begin_join joiner ~now:(Engine.now (engine t)) ~gateway in
            List.iter (fun { Node.dst = d; msg = m } -> send t ~src:id ~dst:d m) actions ))
      joins
  in
  Engine.schedule_batch (engine t) events

let start_join t ?at ~id ~gateway () =
  let at = match at with Some time -> time | None -> Engine.now (engine t) in
  start_joins t [ (at, id, gateway) ]

let run ?max_events t = Engine.run ?max_events (engine t)

let remove t id =
  Transport.remove t.wire id;
  Id.Tbl.remove t.failed id

let fail t id =
  if not (mem t id) then
    invalid_arg (Fmt.str "Network.fail: unknown node %a" Id.pp id);
  if Id.Tbl.mem t.failed id then
    invalid_arg (Fmt.str "Network.fail: %a already failed" Id.pp id);
  Id.Tbl.replace t.failed id ()

let messages_dropped t = t.dropped

let messages_lost t = t.lost

let acks_sent t = t.acks_sent
let acks_lost t = t.acks_lost

let size t = Transport.size t.wire
let ids t = Transport.ids t.wire

let live_ids t = List.filter (fun id -> not (is_failed t id)) (ids t)

let failed_ids t = List.filter (is_failed t) (ids t)

(* [fail] takes only registered nodes and [remove] forgets the failure, so
   [failed] is a subset of the registry. *)
let live_count t = size t - Id.Tbl.length t.failed

let nodes t = List.map (fun id -> node_exn t id) (live_ids t)

let tables t = List.map Node.table (nodes t)

let all_in_system t =
  List.for_all (fun n -> Node.status_equal (Node.status n) Node.In_system) (nodes t)

let stuck_joiners t =
  List.filter
    (fun n -> Node.is_joiner n && not (Node.status_equal (Node.status n) Node.In_system))
    (nodes t)

let is_quiescent t = Engine.pending (engine t) = 0

let check_consistent ?limit t = Ntcu_table.Check.violations ?limit (tables t)

let global_stats t = t.global

let messages_delivered t = Transport.delivered t.wire

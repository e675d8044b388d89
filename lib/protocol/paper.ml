module Id = Ntcu_id.Id
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Message = Ntcu_core.Message
module Stats = Ntcu_core.Stats
module Route = Ntcu_routing.Route
module Leave_protocol = Ntcu_extensions.Leave_protocol

let name = "paper"
let supports_leave = true

type t = { net : Network.t; leaves : Leave_protocol.t; mutable leavers : int }

let create ?latency ?record_trace (cfg : Protocol.config) =
  let net = Network.create ?latency ?record_trace cfg.params in
  (* Leave handoff messages ride the same engine; a seeded uniform model
     keeps them deterministic without coupling to the join-path latency. *)
  let leaves =
    Leave_protocol.create
      ~latency:(Ntcu_sim.Latency.uniform ~seed:cfg.seed ~lo:1. ~hi:10.)
      net
  in
  { net; leaves; leavers = 0 }

let engine t = Network.engine t.net
let trace t = Network.trace t.net

let set_delay_hook t hook = Network.set_delay_hook t.net hook

let seed_network t ~seed ids = Network.seed_consistent t.net ~seed ids

let start_join t ~at ~id ~gateway = Network.start_join t.net ~at ~id ~gateway ()

let leave t ~at id =
  t.leavers <- t.leavers + 1;
  Leave_protocol.request_leave t.leaves ~at id

let run ?max_events t = Network.run ?max_events t.net

let alive_in_system t id =
  match Network.node t.net id with
  | Some nd ->
    (not (Network.is_failed t.net id)) && Node.status_equal (Node.status nd) Node.In_system
  | None -> false

let members t =
  List.sort Id.compare (List.filter (alive_in_system t) (Network.live_ids t.net))

let in_system = alive_in_system

let consistent t = List.is_empty (Network.check_consistent ~limit:1 t.net)

let check t =
  let stuck = Network.stuck_joiners t.net in
  let liveness =
    match stuck with
    | [] -> []
    | nd :: _ ->
      [
        {
          Protocol.name = "liveness";
          detail =
            Fmt.str "%d joiner(s) never reached in_system (first: %a)" (List.length stuck)
              Id.pp (Node.id nd);
        };
      ]
  in
  let consistency =
    match Network.check_consistent ~limit:3 t.net with
    | [] -> []
    | v :: _ as vs ->
      [
        {
          Protocol.name = "consistency";
          detail =
            Fmt.str "%d Def-3.8 violation(s) (first: %a)" (List.length vs)
              Ntcu_table.Check.pp_violation v;
        };
      ]
  in
  liveness @ consistency

let lookup t ~src ~target =
  let table_of id =
    match Network.node t.net id with
    | Some nd when not (Network.is_failed t.net id) -> Some (Node.table nd)
    | Some _ | None -> None
  in
  match Route.route ~lookup:table_of ~src ~dst:target with
  | Ok path -> Some path
  | Error _ -> None

let join_kinds =
  [
    Message.K_cp_rst;
    Message.K_cp_rly;
    Message.K_join_wait;
    Message.K_join_wait_rly;
    Message.K_join_noti;
    Message.K_join_noti_rly;
    Message.K_in_sys_noti;
  ]

let traffic t =
  let stats = Network.global_stats t.net in
  let join = List.fold_left (fun acc k -> acc + Stats.sent stats k) 0 join_kinds in
  let leave_msgs = if t.leavers = 0 then 0 else (Leave_protocol.report t.leaves).messages in
  let total = Stats.total_sent stats + leave_msgs in
  { Protocol.join; maintain = total - join; total }

module Id = Ntcu_id.Id
module Mj = Ntcu_baseline.Multicast_join
module Route = Ntcu_routing.Route

let name = "baseline"
let supports_leave = false

type t = Mj.t

let create ?latency ?record_trace (cfg : Protocol.config) =
  Mj.create ?latency ?record_trace cfg.params

let engine = Mj.engine
let trace = Mj.trace
let set_delay_hook = Mj.set_delay_hook
let seed_network t ~seed ids = Mj.seed_consistent t ~seed ids
let start_join t ~at ~id ~gateway = Mj.start_join t ~at ~id ~gateway ()

let leave (_ : t) ~at:_ (_ : Id.t) =
  invalid_arg "Protocol.Baseline: leave unsupported (join-only comparator)"

let run ?max_events t = Mj.run ?max_events t
let members t = List.sort Id.compare (Mj.members t)
let in_system t id = List.exists (Id.equal id) (Mj.members t)
let consistent t = List.is_empty (Ntcu_table.Check.violations ~limit:1 (Mj.tables t))

let check t =
  let liveness =
    if Mj.all_done t then []
    else [ { Protocol.name = "liveness"; detail = "some joiner never completed" } ]
  in
  let consistency =
    match Ntcu_table.Check.violations ~limit:3 (Mj.tables t) with
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
  match Route.route ~lookup:(Mj.table t) ~src ~dst:target with
  | Ok path -> Some path
  | Error _ -> None

let traffic t =
  let c = Mj.message_counts t in
  let join = c.copies + c.announces + c.acks + c.infos in
  { Protocol.join; maintain = 0; total = join }

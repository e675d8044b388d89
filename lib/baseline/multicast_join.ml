module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Snapshot = Table.Snapshot
module Engine = Ntcu_sim.Engine
module Transport = Ntcu_sim.Transport
module Rng = Ntcu_std.Rng

type upstream = Up_node of Id.t | Up_joiner

type pending = { joiner : Id.t; upstream : upstream; mutable awaiting : int }

type bnode = {
  id : Id.t;
  table : Table.t;
  seed : bool;
  mutable pending : pending list;
  mutable peak_pending : int;
  mutable completed : bool; (* joiners: B_done received *)
  mutable copy_level : int;
}

type msg =
  | B_cp_rst of { level : int }
  | B_cp_rly of { table : Snapshot.t }
  | B_join_rst
  | B_announce of { joiner : Id.t; level : int }
  | B_ack of { joiner : Id.t }
  | B_info of { about : Id.t }
  | B_done

let pp_msg ppf = function
  | B_cp_rst { level } -> Fmt.pf ppf "CpRst(level=%d)" level
  | B_cp_rly { table } -> Fmt.pf ppf "CpRly(%d cells)" (Snapshot.cell_count table)
  | B_join_rst -> Fmt.string ppf "JoinRst"
  | B_announce { joiner; level } -> Fmt.pf ppf "Announce(%a, level=%d)" Id.pp joiner level
  | B_ack { joiner } -> Fmt.pf ppf "Ack(%a)" Id.pp joiner
  | B_info { about } -> Fmt.pf ppf "Info(%a)" Id.pp about
  | B_done -> Fmt.string ppf "Done"

(* Announcements and the contacted nodes' replies decide who learns of whom
   first — the mutual-discovery race concurrent joins lose. The table-copy
   walk and the acknowledgement wave only pace a join. *)
let critical = function
  | B_join_rst | B_announce _ | B_info _ -> true
  | B_cp_rst _ | B_cp_rly _ | B_ack _ | B_done -> false

type message_counts = { copies : int; announces : int; acks : int; infos : int }

type t = {
  params : Ntcu_id.Params.t;
  wire : (bnode, msg) Transport.t;
  mutable counts : message_counts;
  mutable pending_slots : int;
}

let label ~src ~dst msg = Fmt.str "%a -> %a : %a" Id.pp src Id.pp dst pp_msg msg

let create ?latency ?record_trace params =
  {
    params;
    wire = Transport.create ?latency ?record_trace ~label ();
    counts = { copies = 0; announces = 0; acks = 0; infos = 0 };
    pending_slots = 0;
  }

let engine t = Transport.engine t.wire
let trace t = Transport.trace t.wire
let set_delay_hook t hook = Transport.set_hook t.wire hook

let register t node = Transport.register t.wire node.id node

let find t id =
  match Transport.find t.wire id with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Multicast_join: unknown node %a" Id.pp id)

let make_node t ~seed id =
  let node =
    {
      id;
      table = Table.create t.params ~owner:id;
      seed;
      pending = [];
      peak_pending = 0;
      completed = false;
      copy_level = 0;
    }
  in
  if seed then Table.fill_self node.table S;
  node

let count_msg t msg =
  let c = t.counts in
  t.counts <-
    (match msg with
    | B_cp_rst _ | B_cp_rly _ -> { c with copies = c.copies + 1 }
    | B_join_rst | B_announce _ -> { c with announces = c.announces + 1 }
    | B_ack _ | B_done -> { c with acks = c.acks + 1 }
    | B_info _ -> { c with infos = c.infos + 1 })

let rec send t ~src ~dst msg =
  count_msg t msg;
  Transport.send t.wire ~critical:(critical msg) ~src ~dst (fun () ->
      deliver t ~src ~dst msg)

(* Forward targets of the suffix-set multicast from [u] at [level]: the heads
   of each disjoint one-digit suffix extension, recursing through u's own
   digit locally (u covers its own sub-class itself). *)
and multicast_targets t u level =
  let p = t.params in
  let rec go level acc =
    if level >= p.d then acc
    else begin
      let acc = ref acc in
      for j = 0 to p.b - 1 do
        if j <> Id.digit u.id level then begin
          match Table.neighbor u.table ~level ~digit:j with
          | Some v when not (Id.equal v u.id) -> acc := (v, level + 1) :: !acc
          | Some _ | None -> ()
        end
      done;
      go (level + 1) !acc
    end
  in
  go level []

(* [u] handles the announcement of [joiner] for the suffix class at [level]:
   record the joiner where it belongs, tell the joiner about [u], fan out,
   and hold a pending entry until the subtree acknowledges. *)
and handle_announce t u ~joiner ~level ~upstream =
  let k = Id.csuf_len u.id joiner in
  let digit = Id.digit joiner k in
  (if Option.is_none (Table.neighbor u.table ~level:k ~digit) then
     Table.set u.table ~level:k ~digit joiner S);
  send t ~src:u.id ~dst:joiner (B_info { about = u.id });
  (* The entry just filled may alias the joiner into our own fan-out rows;
     never announce the joiner to itself. *)
  let targets =
    List.filter (fun (v, _) -> not (Id.equal v joiner)) (multicast_targets t u level)
  in
  if List.is_empty targets then ack_upstream t u ~joiner ~upstream
  else begin
    let entry = { joiner; upstream; awaiting = List.length targets } in
    u.pending <- entry :: u.pending;
    if u.seed then begin
      t.pending_slots <- t.pending_slots + 1;
      let live = List.length u.pending in
      if live > u.peak_pending then u.peak_pending <- live
    end;
    List.iter
      (fun (v, lvl) -> send t ~src:u.id ~dst:v (B_announce { joiner; level = lvl }))
      targets
  end

and ack_upstream t u ~joiner ~upstream =
  match upstream with
  | Up_node requester -> send t ~src:u.id ~dst:requester (B_ack { joiner })
  | Up_joiner -> send t ~src:u.id ~dst:joiner B_done

and handle_ack t u ~joiner =
  match List.find_opt (fun p -> Id.equal p.joiner joiner) u.pending with
  | None -> () (* stale ack; ignore *)
  | Some entry ->
    entry.awaiting <- entry.awaiting - 1;
    if entry.awaiting <= 0 then begin
      u.pending <- List.filter (fun p -> not (Id.equal p.joiner joiner)) u.pending;
      ack_upstream t u ~joiner ~upstream:entry.upstream
    end

and finish_copying t x ~surrogate =
  Table.fill_self x.table S;
  send t ~src:x.id ~dst:surrogate B_join_rst

and handle_cp_rly t x snapshot =
  let level = x.copy_level in
  Snapshot.iter snapshot (fun ~level:l ~digit node _ ->
      if l = level && not (Id.equal node x.id) then Table.set x.table ~level ~digit node S);
  let own_digit = Id.digit x.id level in
  match Snapshot.find snapshot ~level ~digit:own_digit with
  | Some (next, _) when not (Id.equal next x.id) ->
    x.copy_level <- level + 1;
    send t ~src:x.id ~dst:next (B_cp_rst { level = level + 1 })
  | Some _ | None -> finish_copying t x ~surrogate:(Snapshot.owner snapshot)

and deliver t ~src ~dst msg =
  Transport.arrive t.wire ~src ~dst msg;
  let u = find t dst in
  match msg with
  | B_cp_rst { level = _ } ->
    send t ~src:dst ~dst:src (B_cp_rly { table = Snapshot.of_table u.table })
  | B_cp_rly { table } -> handle_cp_rly t u table
  | B_join_rst ->
    let level = Id.csuf_len u.id src in
    handle_announce t u ~joiner:src ~level ~upstream:Up_joiner
  | B_announce { joiner; level } ->
    handle_announce t u ~joiner ~level ~upstream:(Up_node src)
  | B_ack { joiner } -> handle_ack t u ~joiner
  | B_info { about } ->
    let k = Id.csuf_len u.id about in
    let digit = Id.digit about k in
    if Option.is_none (Table.neighbor u.table ~level:k ~digit) then
      Table.set u.table ~level:k ~digit about S
  | B_done -> u.completed <- true

let seed_consistent t ~seed ids =
  if List.is_empty ids then invalid_arg "Multicast_join.seed_consistent: empty node list";
  let tables =
    List.map
      (fun id ->
        let node = make_node t ~seed:true id in
        register t node;
        node.table)
      ids
  in
  Ntcu_table.Suffix_index.fill_consistent ~rng:(Rng.create seed) ~reverse:false tables

let start_join t ?at ~id ~gateway () =
  let joiner = make_node t ~seed:false id in
  register t joiner;
  ignore (find t gateway);
  let time = match at with Some time -> time | None -> Engine.now (engine t) in
  Engine.schedule_at (engine t) ~time (fun () ->
      joiner.copy_level <- 0;
      send t ~src:id ~dst:gateway (B_cp_rst { level = 0 }))

let run ?max_events t = Engine.run ?max_events (engine t)

let all_nodes t = List.map (find t) (Transport.ids t.wire)

let tables t = List.map (fun n -> n.table) (all_nodes t)

let check_consistent t = Ntcu_table.Check.violations (tables t)

let all_done t = List.for_all (fun n -> n.seed || n.completed) (all_nodes t)

let table t id = Option.map (fun n -> n.table) (Transport.find t.wire id)

let members t =
  List.filter_map
    (fun n -> if n.seed || n.completed then Some n.id else None)
    (all_nodes t)

let message_counts t = t.counts

let peak_pending_at_existing t =
  List.fold_left (fun acc n -> if n.seed then max acc n.peak_pending else acc) 0 (all_nodes t)

let total_pending_slots t = t.pending_slots

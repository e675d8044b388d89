module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Engine = Ntcu_sim.Engine
module Latency = Ntcu_sim.Latency

type report = {
  departed : int;
  messages : int;
  installed : int;
  fallback_local : int;
  fallback_flood : int;
  emptied : int;
}

let pp_report ppf r =
  Fmt.pf ppf
    "%d departed with %d messages; repairs: %d installed, %d local fallback, %d flood \
     fallback, %d emptied"
    r.departed r.messages r.installed r.fallback_local r.fallback_flood r.emptied

type leaving_state = { mutable awaiting : int }

type t = {
  net : Network.t;
  latency : Latency.t;
  leaving : leaving_state Id.Tbl.t;
  mutable departed : int;
  mutable messages : int;
  mutable installed : int;
  tally : Repair.tally;
}

let create ?latency net =
  let latency =
    match latency with
    | Some l -> l
    | None -> Latency.uniform ~seed:0 ~lo:1. ~hi:10.
  in
  {
    net;
    latency;
    leaving = Id.Tbl.create 16;
    departed = 0;
    messages = 0;
    installed = 0;
    tally = Repair.tally ();
  }

let report t =
  {
    departed = t.departed;
    messages = t.messages;
    installed = t.installed;
    fallback_local = t.tally.local;
    fallback_flood = t.tally.flood;
    emptied = t.tally.emptied;
  }

let engine t = Network.engine t.net

let send t f =
  t.messages <- t.messages + 1;
  Engine.schedule (engine t) ~delay:(Latency.sample t.latency ~src:0 ~dst:0) f

let usable t id =
  Network.mem t.net id
  && (not (Network.is_failed t.net id))
  && not (Id.Tbl.mem t.leaving id)

(* Deepest-shared replacement for entries that require a node sharing
   [>= level + 1] digits with the leaver, skipping unusable candidates. *)
let replacement_vector t table ~owner =
  let p = Table.params table in
  Array.init p.d (fun level ->
      let found = ref None in
      (try
         for l = p.d - 1 downto level + 1 do
           for digit = 0 to p.b - 1 do
             match Table.neighbor table ~level:l ~digit with
             | Some y when (not (Id.equal y owner)) && usable t y ->
               found := Some y;
               raise Exit
             | Some _ | None -> ()
           done
         done
       with Exit -> ());
      !found)

let depart t x =
  (match Network.node t.net x with
  | Some node ->
    (* x leaves the reverse set of every node it stores: local bookkeeping
       at departure, not a message. *)
    Id.Set.iter
      (fun y ->
        match Network.node t.net y with
        | Some ynode when not (Id.equal y x) -> Table.remove_reverse (Node.table ynode) x
        | Some _ | None -> ())
      (Table.known_nodes (Node.table node));
    Network.remove t.net x
  | None -> ());
  Id.Tbl.remove t.leaving x;
  t.departed <- t.departed + 1

(* v repairs its entries that hold the leaver x, preferring x's replacement
   vector, falling back to its own search. *)
let repair_at t ~v ~leaver ~replacements =
  match Network.node t.net v with
  | None -> ()
  | Some vnode ->
    let tv = Node.table vnode in
    Table.fold_holding tv leaver ~init:() ~f:(fun () ~level ~digit ->
        let install = Repair.install t.net tv ~level ~digit in
        match replacements.(level) with
        | Some r when usable t r ->
          t.installed <- t.installed + 1;
          install r
        | Some _ | None ->
          Table.clear tv ~level ~digit;
          (* Leaving nodes (including the leaver, still registered until its
             acknowledgements arrive) are not valid candidates. *)
          let exclude cand = Id.Tbl.mem t.leaving cand in
          Repair.refill ~exclude t.net t.tally tv ~level ~digit ~fill:install);
    Table.remove_reverse tv leaver;
    Table.remove_backup tv leaver

let rec fire_leave t x =
  match Network.node t.net x with
  | None -> ()
  | Some node ->
    if
      Network.is_failed t.net x
      || not (Node.status_equal (Node.status node) Node.In_system)
    then ()
    else if Id.Tbl.mem t.leaving x then ()
    else begin
      let table = Node.table node in
      let state = { awaiting = 0 } in
      Id.Tbl.replace t.leaving x state;
      let replacements = replacement_vector t table ~owner:x in
      let targets =
        Id.Set.filter
          (fun v ->
            (not (Id.equal v x))
            && Network.mem t.net v
            && not (Network.is_failed t.net v))
          (Table.all_reverse table)
      in
      state.awaiting <- Id.Set.cardinal targets;
      if state.awaiting = 0 then depart t x
      else
        Id.Set.iter
          (fun v ->
            send t (fun () ->
                (* LeaveMsg delivery at v. Even if v is itself leaving it
                   must repair and acknowledge: its table may be copied by
                   others until it departs. *)
                repair_at t ~v ~leaver:x ~replacements;
                send t (fun () -> ack_leave t x)))
          targets
    end

and ack_leave t x =
  match Id.Tbl.find_opt t.leaving x with
  | None -> ()
  | Some state ->
    state.awaiting <- state.awaiting - 1;
    if state.awaiting <= 0 then depart t x

let request_leave t ?at x =
  let time = match at with Some time -> time | None -> Engine.now (engine t) in
  Engine.schedule_at (engine t) ~time (fun () -> fire_leave t x)

let run t = Network.run t.net

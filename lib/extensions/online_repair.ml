module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Engine = Ntcu_sim.Engine

type report = {
  suspicions : int;
  scrubbed : int;
  promoted : int;
  refilled_local : int;
  refilled_flood : int;
  emptied : int;
  tables_consulted : int;
}

let pp_report ppf r =
  Fmt.pf ppf
    "%d suspicions: %d entries scrubbed; refills: %d backup, %d local, %d flood, %d left \
     empty; %d tables consulted"
    r.suspicions r.scrubbed r.promoted r.refilled_local r.refilled_flood r.emptied
    r.tables_consulted

type t = {
  net : Network.t;
  seen : unit Id.Tbl.t;
  mutable suspicions : int;
  mutable scrubbed : int;
  mutable promoted : int;
  tally : Repair.tally;
}

let report t =
  {
    suspicions = t.suspicions;
    scrubbed = t.scrubbed;
    promoted = t.promoted;
    refilled_local = t.tally.local;
    refilled_flood = t.tally.flood;
    emptied = t.tally.emptied;
    tables_consulted = t.tally.tables_consulted;
  }

(* Positions in [node]'s table occupied by [suspect], highest level first. *)
let holes_of node suspect =
  Table.fold_holding (Node.table node) suspect ~init:[] ~f:(fun acc ~level ~digit ->
      (level, digit) :: acc)

let on_suspicion t ~reporter:_ ~suspect =
  if not (Id.Tbl.mem t.seen suspect) then begin
    Id.Tbl.replace t.seen suspect ();
    t.suspicions <- t.suspicions + 1;
    let now = Engine.now (Network.engine t.net) in
    let survivors =
      List.filter (fun n -> not (Id.equal (Node.id n) suspect)) (Network.nodes t.net)
    in
    (* Phase 1: every live node learns of the suspicion — it scrubs the
       suspect (promoting backups into the holes), and any joiner whose
       progress depended on it fails over. The modeled dissemination stands
       in for a gossip/broadcast a deployment would use; the failover
       messages themselves go through the network as usual. *)
    let holes =
      List.concat_map
        (fun node ->
          let holes = holes_of node suspect in
          t.scrubbed <- t.scrubbed + List.length holes;
          let acts = Node.on_suspect node ~now ~peer:suspect ~failed:None in
          Network.inject t.net ~src:(Node.id node) acts;
          List.map (fun pos -> (node, pos)) holes)
        survivors
    in
    (* Phase 2: refill holes the backups could not cover, escalating through
       the candidate-search tiers. The reverse registration rides on an
       injected RvNghNotiMsg, so a refill with a node that is itself dead
       self-heals via a fresh suspicion cycle. *)
    let exclude id = Network.is_suspected t.net id in
    List.iter
      (fun (node, (level, digit)) ->
        let table = Node.table node in
        match Table.neighbor table ~level ~digit with
        | Some _ -> t.promoted <- t.promoted + 1
        | None ->
          let fill candidate =
            Table.set table ~level ~digit candidate S;
            Network.inject t.net ~src:(Node.id node)
              [
                {
                  Node.dst = candidate;
                  msg = Ntcu_core.Message.Rv_ngh_noti { level; digit; recorded = S };
                };
              ]
          in
          Repair.refill ~exclude t.net t.tally table ~level ~digit ~fill)
      holes
  end

let attach net =
  let t =
    {
      net;
      seen = Id.Tbl.create 16;
      suspicions = 0;
      scrubbed = 0;
      promoted = 0;
      tally = Repair.tally ();
    }
  in
  Network.set_suspicion_handler net (fun ~reporter ~suspect ->
      on_suspicion t ~reporter ~suspect);
  t

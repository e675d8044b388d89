module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node

type report = {
  survivors : int;
  probes : int;
  scrubbed : int;
  repaired_backup : int;
  repaired_local : int;
  repaired_flood : int;
  emptied : int;
  tables_consulted : int;
}

let pp_report ppf r =
  Fmt.pf ppf
    "survivors %d: %d probes, %d entries scrubbed; refills: %d backup, %d local, %d \
     flood, %d left empty; %d tables consulted"
    r.survivors r.probes r.scrubbed r.repaired_backup r.repaired_local r.repaired_flood
    r.emptied r.tables_consulted

let dead net id = (not (Network.mem net id)) || Network.is_failed net id

let repair net =
  if not (Network.is_quiescent net) then invalid_arg "Recovery.repair: network not quiescent";
  let survivors = Network.nodes net in
  let probes = ref 0 in
  let scrubbed = ref 0 in
  let repaired_backup = ref 0 in
  let tally = Repair.tally () in
  (* Phase 1: probe and scrub. Collect the holes before refilling so that the
     refill phase sees fully-scrubbed tables everywhere (a refill must never
     hand out a dead candidate). *)
  let holes = ref [] in
  List.iter
    (fun node ->
      let table = Node.table node in
      let owner = Node.id node in
      let p = Table.params table in
      for level = 0 to p.d - 1 do
        for digit = 0 to p.b - 1 do
          match Table.neighbor table ~level ~digit with
          | Some occupant when not (Id.equal occupant owner) ->
            incr probes;
            if dead net occupant then begin
              incr scrubbed;
              Table.clear table ~level ~digit;
              holes := (table, level, digit) :: !holes
            end
          | Some _ | None -> ()
        done
      done;
      (* Scrub reverse sets and backup lists of dead members. *)
      Id.Set.iter
        (fun rv -> if dead net rv then Table.remove_reverse table rv)
        (Table.all_reverse table);
      Table.filter_backups table ~f:(fun b -> not (dead net b)))
    survivors;
  (* Phase 2: refill each hole — promote a (scrubbed, hence live) backup if
     one exists, else escalate through the candidate search. Installing the
     promoted backup rewrites the entry it already holds and registers the
     owner with it. *)
  List.iter
    (fun (table, level, digit) ->
      let install = Repair.install net table ~level ~digit in
      match Table.promote_backup table ~level ~digit with
      | Some promoted ->
        incr repaired_backup;
        install promoted
      | None -> Repair.refill net tally table ~level ~digit ~fill:install)
    !holes;
  {
    survivors = List.length survivors;
    probes = !probes;
    scrubbed = !scrubbed;
    repaired_backup = !repaired_backup;
    repaired_local = tally.local;
    repaired_flood = tally.flood;
    emptied = tally.emptied;
    tables_consulted = tally.tables_consulted;
  }

let fail_random net ~seed ~fraction =
  if fraction < 0. || fraction >= 1. then invalid_arg "Recovery.fail_random: bad fraction";
  let rng = Ntcu_std.Rng.create seed in
  let live = Array.of_list (Network.live_ids net) in
  Ntcu_std.Rng.shuffle rng live;
  let count = int_of_float (fraction *. float_of_int (Array.length live)) in
  let victims = Array.to_list (Array.sub live 0 count) in
  List.iter (fun id -> Network.fail net id) victims;
  victims

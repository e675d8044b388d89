(* Differential test of [Repair.find_live] against the escalation it
   replaced.

   [find_live] settles a miss from the live membership before it reads a
   table, and then only counts the two rings with a seen-table.
   [reference_find_live] below is the earlier three-tier scan, kept verbatim
   as the oracle: ring 1 and ring 2 built from Id.Set unions and scanned in
   set order, then the global membership scan. The property drives both over
   concurrent-join networks with crashed and departed nodes, thinned tables
   and random exclusion sets, and requires the same outcome, candidate, hops
   and tables_consulted for every query. A second reference, the ring count
   without its early stop, pins the count a miss reports. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Repair = Ntcu_extensions.Repair
module Experiment = Ntcu_harness.Experiment

let p = Params.make ~b:4 ~d:6

(* ---- The oracle: the three-tier scan as first written ---- *)

let live_contacts net table =
  let owner = Table.owner table in
  Id.Set.filter
    (fun id ->
      (not (Id.equal id owner)) && Network.mem net id && not (Network.is_failed net id))
    (Id.Set.union (Table.known_nodes table) (Table.all_reverse table))

(* Scan one node's table for a live carrier of [suffix]; the scanned node
   itself also counts as a candidate. *)
let scan_one net ~exclude ~owner_id ~suffix id =
  let matches cand =
    (not (Id.equal cand owner_id))
    && (not (exclude cand))
    && Id.has_suffix cand suffix
    && Network.mem net cand
    && not (Network.is_failed net cand)
  in
  if matches id then Some id
  else begin
    match Network.node net id with
    | None -> None
    | Some node ->
      Table.fold (Node.table node) ~init:None ~f:(fun acc ~level:_ ~digit:_ cand _ ->
          match acc with Some _ -> acc | None -> if matches cand then Some cand else None)
  end

let reference_find_live ?(exclude = fun _ -> false) net ~owner ~suffix =
  let open Repair in
  let owner_id = Table.owner owner in
  let consulted = ref 0 in
  let scan_set contacts =
    Id.Set.fold
      (fun id acc ->
        match acc with
        | Some _ -> acc
        | None ->
          incr consulted;
          scan_one net ~exclude ~owner_id ~suffix id)
      contacts None
  in
  let ring1 = live_contacts net owner in
  match scan_set ring1 with
  | Some candidate -> Found_local { candidate; tables_consulted = !consulted; hops = 1 }
  | None -> begin
    (* Two-hop ring: contacts of contacts, minus what we already scanned. *)
    let ring2 =
      Id.Set.fold
        (fun id acc ->
          match Network.node net id with
          | None -> acc
          | Some node -> Id.Set.union acc (live_contacts net (Node.table node)))
        ring1 Id.Set.empty
    in
    let ring2 = Id.Set.diff (Id.Set.remove owner_id ring2) ring1 in
    match scan_set ring2 with
    | Some candidate -> Found_local { candidate; tables_consulted = !consulted; hops = 2 }
    | None -> begin
      (* Suffix flood: global membership scan. *)
      let hit =
        List.find_opt
          (fun id ->
            (not (Id.equal id owner_id))
            && (not (exclude id))
            && Id.has_suffix id suffix)
          (Network.live_ids net)
      in
      incr consulted;
      match hit with
      | Some candidate -> Found_flood { candidate; tables_consulted = !consulted }
      | None -> Not_found { tables_consulted = !consulted }
    end
  end

(* ---- Differential property ---- *)

let same_outcome a b =
  match (a, b) with
  | Repair.Found_local a, Repair.Found_local b ->
    Id.equal a.candidate b.candidate
    && a.hops = b.hops
    && a.tables_consulted = b.tables_consulted
  | Repair.Found_flood a, Repair.Found_flood b ->
    Id.equal a.candidate b.candidate && a.tables_consulted = b.tables_consulted
  | Repair.Not_found a, Repair.Not_found b -> a.tables_consulted = b.tables_consulted
  | (Repair.Found_local _ | Repair.Found_flood _ | Repair.Not_found _), _ -> false

(* Index into the per-tier tally: ring-1 hit, ring-2 hit, flood hit, miss. *)
let tier = function
  | Repair.Found_local { hops = 1; _ } -> 0
  | Repair.Found_local _ -> 1
  | Repair.Found_flood _ -> 2
  | Repair.Not_found _ -> 3

let tier_names = [| "ring-1 hit"; "ring-2 hit"; "flood hit"; "Not_found" |]

(* Crash and remove some nodes, then drop a random share of every table's
   entries (self-entries kept) and reverse registrations. An intact network
   of this size answers almost every search from ring 1; thinning is what
   pushes searches out to ring 2 and the flood tier. Returns the crashed and
   removed ids. *)
let damage rng net =
  let ids = Network.ids net in
  let crashed = List.filter (fun _ -> Rng.int rng 100 < 15) ids in
  List.iter (Network.fail net) crashed;
  let removed =
    List.filter (fun id -> (not (Network.is_failed net id)) && Rng.int rng 100 < 5) ids
  in
  List.iter (Network.remove net) removed;
  let thin = Rng.int rng 95 in
  List.iter
    (fun id ->
      let table = Node.table (Network.node_exn net id) in
      Table.iter table (fun ~level ~digit cand _ ->
          if (not (Id.equal cand id)) && Rng.int rng 100 < thin then
            Table.clear table ~level ~digit);
      Id.Set.iter
        (fun r -> if Rng.int rng 100 < thin then Table.remove_reverse table r)
        (Table.all_reverse table))
    (Network.ids net);
  crashed @ removed

(* One search: an owner (now and then a crashed one), an exclusion set, and
   a suffix cut from a live, dead, excluded or the owner's own id, or drawn
   at random. *)
let query rng net ~dead =
  let registered = Array.of_list (Network.ids net) in
  let live = Array.of_list (Network.live_ids net) in
  let owner_id =
    if Rng.int rng 10 = 0 then Rng.pick rng registered else Rng.pick rng live
  in
  let owner = Node.table (Network.node_exn net owner_id) in
  let excluded =
    List.filter (fun _ -> Rng.int rng 100 < 10) (Array.to_list registered @ dead)
  in
  let excluded_set = Id.Set.of_list excluded in
  let exclude =
    if Id.Set.is_empty excluded_set && Rng.bool rng then None
    else Some (fun id -> Id.Set.mem id excluded_set)
  in
  let pick_opt = function [] -> None | l -> Some (Rng.pick_list rng l) in
  let source =
    match Rng.int rng 5 with
    | 0 -> Some (Rng.pick rng live)
    | 1 -> pick_opt dead
    | 2 -> pick_opt excluded
    | 3 -> Some owner_id
    | _ -> None
  in
  let k = 1 + Rng.int rng p.Params.d in
  let suffix =
    match source with
    | Some id -> Id.suffix id k
    | None -> Array.init k (fun _ -> Rng.int rng p.Params.b)
  in
  (exclude, owner, suffix)

let queries_per_network = 40

let agrees_on_network tally seed =
  let rng = Rng.create seed in
  let n = 12 + Rng.int rng 30 and m = 4 + Rng.int rng 12 in
  let run = Experiment.concurrent_joins p ~seed ~n ~m () in
  let net = run.net in
  let dead = damage rng net in
  let rec go i =
    i >= queries_per_network
    ||
    let exclude, owner, suffix = query rng net ~dead in
    let got = Repair.find_live ?exclude net ~owner ~suffix in
    let want = reference_find_live ?exclude net ~owner ~suffix in
    if same_outcome got want then begin
      tally.(tier want) <- tally.(tier want) + 1;
      go (i + 1)
    end
    else
      QCheck.Test.fail_reportf "owner %a, suffix %a: find_live gave %a, reference %a" Id.pp
        (Table.owner owner) Id.pp_suffix suffix Repair.pp_outcome got Repair.pp_outcome want
  in
  go 0

let matches_reference () =
  let tally = Array.make (Array.length tier_names) 0 in
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| 13 |])
    (QCheck.Test.make ~count:60 ~name:"find_live = reference_find_live"
       (QCheck.int_range 1 100_000) (agrees_on_network tally));
  (* Every tier must have been exercised, or the agreement proves little. *)
  Array.iteri
    (fun i name ->
      if tally.(i) = 0 then Alcotest.failf "no %s among the generated searches" name)
    tier_names

(* ---- The ring count against its full walk ---- *)

(* |ring 1| + |ring 2| over every contact of both rings, as [Repair]
   counted them before it stopped at the number of live nodes. *)
let reference_rings_size net owner =
  let seen = Id.Tbl.create 256 in
  let fresh id =
    if Id.Tbl.mem seen id then false
    else begin
      Id.Tbl.add seen id ();
      Network.mem net id && not (Network.is_failed net id)
    end
  in
  let iter_contacts table f =
    Table.iter table (fun ~level:_ ~digit:_ id _ -> f id);
    for level = 0 to (Table.params table).d - 1 do
      Id.Set.iter f (Table.reverse_at table ~level)
    done
  in
  Id.Tbl.add seen (Table.owner owner) ();
  let ring1 = ref [] and ring2 = ref 0 in
  iter_contacts owner (fun id -> if fresh id then ring1 := id :: !ring1);
  List.iter
    (fun id ->
      match Network.node net id with
      | None -> ()
      | Some node -> iter_contacts (Node.table node) (fun c -> if fresh c then incr ring2))
    !ring1;
  List.length !ring1 + !ring2

(* A miss from every registered owner, crashed ones included: with every
   candidate excluded, [tables_consulted] must be the full walk's count plus
   the flood. The rings of an intact network reach every live node, where
   the count stops early; those of a thinned one fall short, where it runs
   to the end. Both cases must occur. *)
let ring_count_matches_full_walk () =
  let covering = ref 0 and short = ref 0 in
  for seed = 1 to 24 do
    let rng = Rng.create seed in
    let n = 12 + Rng.int rng 30 and m = 4 + Rng.int rng 12 in
    let run = Experiment.concurrent_joins p ~seed ~n ~m () in
    let net = run.net in
    if seed mod 2 = 0 then ignore (damage rng net : Id.t list);
    let live = Network.live_ids net in
    List.iter
      (fun owner_id ->
        let owner = Node.table (Network.node_exn net owner_id) in
        let want = reference_rings_size net owner in
        let others = List.filter (fun id -> not (Id.equal id owner_id)) live in
        if want = List.length others then incr covering else incr short;
        match Repair.find_live ~exclude:(fun _ -> true) net ~owner ~suffix:[||] with
        | Repair.Not_found { tables_consulted } ->
          Alcotest.check Alcotest.int
            (Fmt.str "seed %d, owner %a" seed Id.pp owner_id)
            (want + 1) tables_consulted
        | other ->
          Alcotest.failf "seed %d, owner %a: %a" seed Id.pp owner_id Repair.pp_outcome
            other)
      (Network.ids net)
  done;
  if !covering = 0 || !short = 0 then
    Alcotest.failf "rings covered the live nodes in %d searches and fell short in %d"
      !covering !short

let suites =
  [
    ( "extensions.repair",
      [
        Alcotest.test_case "find_live matches reference" `Quick matches_reference;
        Alcotest.test_case "ring count matches full walk" `Quick
          ring_count_matches_full_walk;
      ] );
  ]

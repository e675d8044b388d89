module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node

type outcome =
  | Found_local of { candidate : Id.t; tables_consulted : int; hops : int }
  | Found_flood of { candidate : Id.t; tables_consulted : int }
  | Not_found of { tables_consulted : int }

let pp_outcome ppf = function
  | Found_local { candidate; tables_consulted; hops } ->
    Fmt.pf ppf "local hit %a (%d tables, %d hops)" Id.pp candidate tables_consulted hops
  | Found_flood { candidate; tables_consulted } ->
    Fmt.pf ppf "flood hit %a (%d tables)" Id.pp candidate tables_consulted
  | Not_found { tables_consulted } -> Fmt.pf ppf "no live holder (%d tables)" tables_consulted

let is_live net id = Network.mem net id && not (Network.is_failed net id)

(* What every tier looks for: a live node other than the owner, not
   excluded, whose ID ends with [suffix]. *)
let is_carrier net ~exclude ~owner_id ~suffix cand =
  Id.has_suffix cand suffix
  && (not (Id.equal cand owner_id))
  && (not (exclude cand))
  && is_live net cand

let live_contacts net table =
  let owner = Table.owner table in
  Id.Set.filter
    (fun id -> (not (Id.equal id owner)) && is_live net id)
    (Id.Set.union (Table.known_nodes table) (Table.all_reverse table))

(* Scan one node's table for a carrier of [suffix]; the scanned node itself
   also counts as a candidate. *)
let scan_one net ~exclude ~owner_id ~suffix id =
  let matches = is_carrier net ~exclude ~owner_id ~suffix in
  if matches id then Some id
  else begin
    match Network.node net id with
    | None -> None
    | Some node ->
      Table.fold (Node.table node) ~init:None ~f:(fun acc ~level:_ ~digit:_ cand _ ->
          match acc with Some _ -> acc | None -> if matches cand then Some cand else None)
  end

(* |ring 1| + |ring 2|, the tables a miss in both local tiers consults,
   counted in one pass over the owner's contacts and theirs. A seen-table
   stands in for the ring sets: nothing is unioned and no table is scanned
   for the suffix. The rings hold distinct live nodes other than the owner,
   so once the count reaches the number of those nodes nothing more can be
   counted: the walk stops, and that number is the exact count. *)
let rings_size net owner =
  let owner_id = Table.owner owner in
  let all = Network.live_count net - if is_live net owner_id then 1 else 0 in
  let seen = Id.Tbl.create 256 and count = ref 0 in
  (* Count [id] if it is live and unseen; true iff counted. *)
  let fresh id =
    if Id.Tbl.mem seen id then false
    else begin
      Id.Tbl.add seen id ();
      let live = is_live net id in
      if live then begin
        incr count;
        if !count = all then raise_notrace Exit
      end;
      live
    end
  in
  let iter_contacts table f =
    Table.iter table (fun ~level:_ ~digit:_ id _ -> f id);
    for level = 0 to (Table.params table).d - 1 do
      Id.Set.iter f (Table.reverse_at table ~level)
    done
  in
  Id.Tbl.add seen owner_id ();
  let ring1 = ref [] in
  match
    iter_contacts owner (fun id -> if fresh id then ring1 := id :: !ring1);
    (* Ring 1 in the order it was found: low-level entries first, whose
       tables overlap the owner's least, so the bound is reached sooner. *)
    List.iter
      (fun id ->
        match Network.node net id with
        | None -> ()
        | Some node -> iter_contacts (Node.table node) (fun c -> ignore (fresh c : bool)))
      (List.rev !ring1)
  with
  | () -> !count
  | exception Exit -> all

(* The ring-1 -> ring-2 -> flood escalation, for a suffix that some live
   node carries: [flood_candidate] is the flood tier's answer. *)
let escalate net ~exclude ~owner ~suffix ~flood_candidate =
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
    | None ->
      (* Suffix flood: the global membership scan [find_live] starts with. *)
      Found_flood { candidate = flood_candidate; tables_consulted = !consulted + 1 }
  end

let find_live ?(exclude = fun _ -> false) net ~owner ~suffix =
  let owner_id = Table.owner owner in
  (* The flood tier's candidate: the first carrier in registration order,
     as in [Network.live_ids]. Every candidate a ring scan can return is a
     carrier too, so without one all three tiers miss and the rings need
     only be counted. *)
  match List.find_opt (is_carrier net ~exclude ~owner_id ~suffix) (Network.ids net) with
  | None -> Not_found { tables_consulted = rings_size net owner + 1 }
  | Some flood_candidate -> escalate net ~exclude ~owner ~suffix ~flood_candidate

let install net table ~level ~digit cand =
  Table.set table ~level ~digit cand S;
  match Network.node net cand with
  | Some node -> Table.add_reverse (Node.table node) ~level (Table.owner table)
  | None -> ()

type tally = {
  mutable local : int;
  mutable flood : int;
  mutable emptied : int;
  mutable tables_consulted : int;
}

let tally () = { local = 0; flood = 0; emptied = 0; tables_consulted = 0 }

let refill ?exclude net tally table ~level ~digit ~fill =
  let suffix = Table.required_suffix table ~level ~digit in
  let consulted c = tally.tables_consulted <- tally.tables_consulted + c in
  match find_live ?exclude net ~owner:table ~suffix with
  | Found_local { candidate; tables_consulted; _ } ->
    tally.local <- tally.local + 1;
    consulted tables_consulted;
    fill candidate
  | Found_flood { candidate; tables_consulted } ->
    tally.flood <- tally.flood + 1;
    consulted tables_consulted;
    fill candidate
  | Not_found { tables_consulted } ->
    tally.emptied <- tally.emptied + 1;
    consulted tables_consulted

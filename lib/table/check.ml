module Id = Ntcu_id.Id

type violation =
  | False_negative of { node : Id.t; level : int; digit : int; witness : Id.t }
  | Dangling of { node : Id.t; level : int; digit : int; stored : Id.t }
  | Wrong_suffix of { node : Id.t; level : int; digit : int; stored : Id.t }

let pp_violation ppf = function
  | False_negative { node; level; digit; witness } ->
    Fmt.pf ppf "false negative: (%d,%d)-entry of %a is empty but %a matches" level digit
      Id.pp node Id.pp witness
  | Dangling { node; level; digit; stored } ->
    Fmt.pf ppf "dangling: (%d,%d)-entry of %a stores %a, not a network node" level digit
      Id.pp node Id.pp stored
  | Wrong_suffix { node; level; digit; stored } ->
    Fmt.pf ppf "wrong suffix: (%d,%d)-entry of %a stores %a" level digit Id.pp node Id.pp
      stored

(* One pass over the tables in list order, each by level then digit, walking
   the owner's suffix groups alongside: the group of an entry's required
   suffix is the owner's group at [level] extended by [digit], and its first
   carrier (first table in list order) is the false-negative witness. The
   owner's own group stays non-empty to the last level, so a cleared
   self-entry is reported with the owner as witness. Reaching [limit] aborts
   the remaining scan (via [Exit]), so a [~limit:1] yes/no probe of an
   inconsistent network stops at the first offending entry. *)
let scan_violations ~limit tables =
  let found = ref [] in
  let count = ref 0 in
  let add v =
    found := v :: !found;
    incr count;
    if !count >= limit then raise Exit
  in
  let index = Suffix_index.of_ids (List.map Table.owner tables) in
  (try
     List.iter
       (fun table ->
         let p = Table.params table in
         let node = Table.owner table in
         let group = ref (Suffix_index.root index) in
         for level = 0 to p.d - 1 do
           for digit = 0 to p.b - 1 do
             match Table.neighbor table ~level ~digit with
             | None -> begin
               let carriers = Suffix_index.child index !group ~level digit in
               match Suffix_index.first index carriers with
               | Some witness -> add (False_negative { node; level; digit; witness })
               | None -> ()
             end
             | Some stored ->
               if not (Suffix_index.mem_id index stored) then
                 add (Dangling { node; level; digit; stored })
               else if not (Table.admits table ~level ~digit stored) then
                 add (Wrong_suffix { node; level; digit; stored })
           done;
           group := Suffix_index.child index !group ~level (Id.digit node level)
         done)
       tables
   with Exit -> ());
  List.rev !found

let violations ?(limit = 100) tables =
  if limit <= 0 then [] else scan_violations ~limit tables

let is_consistent tables = List.is_empty (violations ~limit:1 tables)

let next_hop_path ~lookup x y =
  let d = Id.length y in
  let rec go current hop acc =
    if Id.equal current y then Some (List.rev (y :: acc))
    else if hop >= d then None
    else begin
      match lookup current with
      | None -> None
      | Some table -> begin
        match Table.neighbor table ~level:hop ~digit:(Id.digit y hop) with
        | None -> None
        | Some next ->
          (* Staying put (self-entry) is a legal zero-cost hop. *)
          let acc = if Id.equal next current then acc else current :: acc in
          go next (hop + 1) acc
      end
    end
  in
  go x 0 []

let all_pairs_reachable tables =
  let by_id =
    List.fold_left (fun acc t -> Id.Map.add (Table.owner t) t acc) Id.Map.empty tables
  in
  let lookup id = Id.Map.find_opt id by_id in
  List.for_all
    (fun tx ->
      List.for_all
        (fun ty ->
          let x = Table.owner tx and y = Table.owner ty in
          Id.equal x y || Option.is_some (next_hop_path ~lookup x y))
        tables)
    tables

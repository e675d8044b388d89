(* Reference implementations of consistent seeding and of the Definition 3.8
   scan, kept as oracles. Production code walks one suffix-group trie
   (Ntcu_table.Suffix_index); these straightforward versions hash every
   required suffix of every (node, level, digit) cell, and must agree with it
   entry for entry and violation for violation. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Table = Ntcu_table.Table
module Check = Ntcu_table.Check
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Mj = Ntcu_baseline.Multicast_join
module Workload = Ntcu_harness.Workload
module Rng = Ntcu_std.Rng

let check = Alcotest.check

(* --- reference seeding --- *)

(* Every suffix mapped to the ids carrying it, newest first. *)
let suffix_members ids =
  let members : (int array, Id.t list ref) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun id ->
      for len = 1 to Id.length id do
        let suffix = Id.suffix id len in
        match Hashtbl.find_opt members suffix with
        | Some l -> l := id :: !l
        | None -> Hashtbl.add members suffix (ref [ id ])
      done)
    ids;
  members

(* Fresh self-filled tables for [ids], completed cell by cell: every entry off
   the owner's own digits whose required suffix some id carries gets
   [Rng.pick] over the carriers (newest first), and the storer is registered
   as a reverse neighbour of the chosen node. Returns the table lookup. *)
let reference_seed (p : Params.t) ~seed ids =
  let tables = Id.Tbl.create 64 in
  List.iter
    (fun id ->
      let t = Table.create p ~owner:id in
      Table.fill_self t S;
      Id.Tbl.replace tables id t)
    ids;
  let rng = Rng.create seed in
  let members = suffix_members ids in
  (* Frozen in first-appearance order instead of by iterating [members]: the
     table is only read through lookups, so the order is unobservable. *)
  let frozen : (int array, Id.t array) Hashtbl.t = Hashtbl.create (Hashtbl.length members) in
  List.iter
    (fun id ->
      for len = 1 to Id.length id do
        let suffix = Id.suffix id len in
        if not (Hashtbl.mem frozen suffix) then
          Hashtbl.add frozen suffix (Array.of_list !(Hashtbl.find members suffix))
      done)
    ids;
  let candidates_of suffix =
    match Hashtbl.find_opt frozen suffix with Some a -> a | None -> [||]
  in
  List.iter
    (fun id ->
      let table = Id.Tbl.find tables id in
      for level = 0 to p.d - 1 do
        for digit = 0 to p.b - 1 do
          if digit <> Id.digit id level then begin
            let suffix = Table.required_suffix table ~level ~digit in
            let cands = candidates_of suffix in
            if Array.length cands > 0 then begin
              let chosen = Rng.pick rng cands in
              Table.set table ~level ~digit chosen S;
              Table.add_reverse (Id.Tbl.find tables chosen) ~level id
            end
          end
        done
      done)
    ids;
  Id.Tbl.find tables

(* --- reference check --- *)

(* First table in list order carrying each suffix. *)
let suffix_witnesses tables =
  let witnesses : (int array, Id.t) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun table ->
      let id = Table.owner table in
      for len = 1 to Id.length id do
        let suffix = Id.suffix id len in
        if not (Hashtbl.mem witnesses suffix) then Hashtbl.add witnesses suffix id
      done)
    tables;
  witnesses

let reference_violations ~limit tables =
  if limit <= 0 then []
  else
  let found = ref [] and count = ref 0 in
  let add v =
    found := v :: !found;
    incr count;
    if !count >= limit then raise Exit
  in
  let witnesses = suffix_witnesses tables in
  let members =
    List.fold_left (fun acc t -> Id.Set.add (Table.owner t) acc) Id.Set.empty tables
  in
  (try
     List.iter
       (fun table ->
         let p = Table.params table in
         let node = Table.owner table in
         for level = 0 to p.d - 1 do
           for digit = 0 to p.b - 1 do
             let suffix = Table.required_suffix table ~level ~digit in
             match Table.neighbor table ~level ~digit with
             | None -> begin
               match Hashtbl.find_opt witnesses suffix with
               | Some witness -> add (Check.False_negative { node; level; digit; witness })
               | None -> ()
             end
             | Some stored ->
               if not (Id.Set.mem stored members) then
                 add (Check.Dangling { node; level; digit; stored })
               else if not (Id.has_suffix stored suffix) then
                 add (Check.Wrong_suffix { node; level; digit; stored })
           done
         done)
       tables
   with Exit -> ());
  List.rev !found

(* --- comparisons --- *)

type setting = { name : string; params : Params.t; n : int; suffix : int array }

let settings =
  let s name ~b ~d ~n ?(suffix = [||]) () = { name; params = Params.make ~b ~d; n; suffix } in
  [
    s "b16/d8 n3096" ~b:16 ~d:8 ~n:3096 ();
    s "b16/d40 n500" ~b:16 ~d:40 ~n:500 ();
    s "b4/d6 n60" ~b:4 ~d:6 ~n:60 ();
    s "b2/d10 n200" ~b:2 ~d:10 ~n:200 ();
    (* Every id ends in 3a7: the top three levels hold one group of all 400. *)
    s "b16/d8 n400 suffix 3a7" ~b:16 ~d:8 ~n:400 ~suffix:[| 7; 10; 3 |] ();
    s "b4/d6 n1" ~b:4 ~d:6 ~n:1 ();
  ]

let ids_of s ~seed = Workload.distinct_ids ~suffix:s.suffix (Rng.create seed) s.params ~n:s.n

(* Every cell's entry (node and state), the filled count and, with
   [~reverse], every reverse set. *)
let same_tables ~what (p : Params.t) ~reverse expected actual ids =
  List.iter
    (fun id ->
      let e = expected id and a = actual id in
      if Table.filled_count e <> Table.filled_count a then
        Alcotest.failf "%s %a: filled_count %d vs %d" what Id.pp id (Table.filled_count e)
          (Table.filled_count a);
      for level = 0 to p.d - 1 do
        for digit = 0 to p.b - 1 do
          match (Table.get e ~level ~digit, Table.get a ~level ~digit) with
          | None, None -> ()
          | Some (x, sx), Some (y, sy) when Id.equal x y && Table.nstate_equal sx sy -> ()
          | _ -> Alcotest.failf "%s %a: (%d,%d)-entries differ" what Id.pp id level digit
        done;
        if
          reverse
          && not (Id.Set.equal (Table.reverse_at e ~level) (Table.reverse_at a ~level))
        then Alcotest.failf "%s %a: level %d reverse sets differ" what Id.pp id level
      done)
    ids

let network_table net id = Node.table (Network.node_exn net id)

let seeding_matches_reference () =
  List.iter
    (fun s ->
      List.iter
        (fun seed ->
          let ids = ids_of s ~seed in
          let net = Network.create s.params in
          Network.seed_consistent net ~seed:(seed + 2) ids;
          let what = Fmt.str "%s seed %d" s.name seed in
          same_tables ~what s.params ~reverse:true
            (reference_seed s.params ~seed:(seed + 2) ids)
            (network_table net) ids)
        [ 102; 7103 ])
    settings

let baseline_matches_network () =
  List.iter
    (fun s ->
      let ids = ids_of s ~seed:5 in
      let net = Network.create s.params in
      Network.seed_consistent net ~seed:9 ids;
      let mj = Mj.create s.params in
      Mj.seed_consistent mj ~seed:9 ids;
      let mj_table id = Option.get (Mj.table mj id) in
      same_tables ~what:s.name s.params ~reverse:false (network_table net) mj_table ids;
      List.iter
        (fun id ->
          if not (Id.Set.is_empty (Table.all_reverse (mj_table id))) then
            Alcotest.failf "%s: baseline registered reverse neighbours at %a" s.name Id.pp id)
        ids)
    settings

let seeding_rejects_bad_lists () =
  let p = Params.make ~b:4 ~d:6 in
  let a = Id.of_string p "012301" and b = Id.of_string p "220011" in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "network duplicate" (fun () -> Network.seed_consistent (Network.create p) ~seed:1 [ a; b; a ]);
  raises "baseline duplicate" (fun () -> Mj.seed_consistent (Mj.create p) ~seed:1 [ a; b; a ]);
  raises "network empty" (fun () -> Network.seed_consistent (Network.create p) ~seed:1 []);
  raises "baseline empty" (fun () -> Mj.seed_consistent (Mj.create p) ~seed:1 [])

let seeded s ~seed =
  let ids = ids_of s ~seed in
  let net = Network.create s.params in
  Network.seed_consistent net ~seed:(seed + 2) ids;
  List.map (network_table net) ids

(* Damage seeded tables: every third loses a low cell, every sixth its
   self-entry at a random level (possibly past the owner's unique suffix,
   where only the owner can fill it), every fifth stores a non-member
   carrying the required suffix, and every seventh is dropped, leaving its
   owner a non-member that others still store. *)
let corrupt s ~seed tables =
  let p = s.params in
  let members = Id.Set.of_list (List.map Table.owner tables) in
  let rng = Rng.create seed in
  List.iteri
    (fun i table ->
      let owner = Table.owner table in
      if i mod 3 = 0 then
        Table.clear table ~level:(Rng.int rng (min p.d 3)) ~digit:(Rng.int rng p.b);
      if i mod 6 = 0 then begin
        let level = Rng.int rng p.d in
        Table.clear table ~level ~digit:(Id.digit owner level)
      end;
      if i mod 5 = 1 then begin
        let level = Rng.int rng (min p.d 4) and digit = Rng.int rng p.b in
        let stranger =
          Id.random_with_suffix rng p (Table.required_suffix table ~level ~digit)
        in
        if not (Id.Set.mem stranger members) then Table.set table ~level ~digit stranger S
      end)
    tables;
  List.filteri (fun i _ -> i mod 7 <> 6) tables

let render vs = List.map (Fmt.str "%a" Check.pp_violation) vs

(* Seeded networks are clean; once damaged, both scans list the same
   violations at every limit. *)
let check_matches_reference () =
  List.iter
    (fun s ->
      let tables = seeded s ~seed:11 in
      check
        Alcotest.(list string)
        (s.name ^ " seeded") []
        (render (Check.violations ~limit:max_int tables));
      let tables = corrupt s ~seed:14 tables in
      List.iter
        (fun limit ->
          check
            Alcotest.(list string)
            (Fmt.str "%s limit %d" s.name limit)
            (render (reference_violations ~limit tables))
            (render (Check.violations ~limit tables)))
        [ 1; 5; 100; max_int ])
    settings

let suites =
  [
    ( "core.seeding",
      [
        Alcotest.test_case "matches reference" `Quick seeding_matches_reference;
        Alcotest.test_case "baseline equals network" `Quick baseline_matches_network;
        Alcotest.test_case "duplicate or empty list" `Quick seeding_rejects_bad_lists;
      ] );
    ( "table.check.reference",
      [ Alcotest.test_case "seeded, then corrupted" `Quick check_matches_reference ] );
  ]

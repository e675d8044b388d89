module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Table = Ntcu_table.Table
module Check = Ntcu_table.Check
module Suffix_index = Ntcu_table.Suffix_index
module Network = Ntcu_core.Network
module Churn = Ntcu_churn.Churn
module Rng = Ntcu_std.Rng

let check = Alcotest.check
let p = Params.make ~b:4 ~d:5
let id s = Id.of_string p s

let set_get () =
  let t = Table.create p ~owner:(id "21233") in
  check Alcotest.int "initially empty" 0 (Table.filled_count t);
  Table.set t ~level:0 ~digit:1 (id "03201") T;
  (match Table.get t ~level:0 ~digit:1 with
  | Some (n, Table.T) -> check Alcotest.string "stored" "03201" (Id.to_string n)
  | _ -> Alcotest.fail "entry missing");
  check Alcotest.int "filled" 1 (Table.filled_count t);
  Table.clear t ~level:0 ~digit:1;
  check Alcotest.int "cleared" 0 (Table.filled_count t);
  check Alcotest.bool "empty again" true (Table.get t ~level:0 ~digit:1 = None)

let set_validates_suffix () =
  let t = Table.create p ~owner:(id "21233") in
  (* (2, 1)-entry requires suffix 133; 03201 does not end with 133. *)
  (try
     Table.set t ~level:2 ~digit:1 (id "03201") S;
     Alcotest.fail "wrong suffix accepted"
   with Invalid_argument _ -> ());
  (* 00123 has the entry's digit 1 at level 2 but ends in 23, not 33. *)
  Alcotest.check_raises "lower digits checked"
    (Invalid_argument
       "Table.set: node 00123 lacks required suffix 133 for (2,1)-entry of 21233")
    (fun () -> Table.set t ~level:2 ~digit:1 (id "00123") S);
  check Alcotest.bool "admits 00133" true (Table.admits t ~level:2 ~digit:1 (id "00133"));
  check Alcotest.bool "backup needs the suffix" false
    (Table.add_backup t ~level:2 ~digit:1 (id "00123"))

let required_suffix_examples () =
  let t = Table.create p ~owner:(id "21233") in
  check (Alcotest.array Alcotest.int) "(0,1)" [| 1 |] (Table.required_suffix t ~level:0 ~digit:1);
  check (Alcotest.array Alcotest.int) "(2,0)" [| 3; 3; 0 |]
    (Table.required_suffix t ~level:2 ~digit:0);
  (* digit index 0 is rightmost: suffix (2,0) means 0 then 33 => textual "033" *)
  check Alcotest.string "text form" "033"
    (Fmt.str "%a" Id.pp_suffix (Table.required_suffix t ~level:2 ~digit:0))

let set_state_transitions () =
  let t = Table.create p ~owner:(id "21233") in
  Table.set t ~level:0 ~digit:1 (id "03201") T;
  Table.set_state t ~level:0 ~digit:1 S;
  (match Table.get t ~level:0 ~digit:1 with
  | Some (_, Table.S) -> ()
  | _ -> Alcotest.fail "state not updated");
  Alcotest.check_raises "empty entry" (Invalid_argument "Table.set_state: empty entry")
    (fun () -> Table.set_state t ~level:3 ~digit:0 S)

let fill_self_diagonal () =
  let owner = id "21233" in
  let t = Table.create p ~owner in
  Table.fill_self t S;
  for level = 0 to 4 do
    match Table.get t ~level ~digit:(Id.digit owner level) with
    | Some (n, Table.S) -> check Alcotest.bool "self" true (Id.equal n owner)
    | _ -> Alcotest.fail "self entry missing"
  done;
  check Alcotest.int "exactly d entries" 5 (Table.filled_count t)

let out_of_range_rejected () =
  let t = Table.create p ~owner:(id "21233") in
  (try
     ignore (Table.get t ~level:5 ~digit:0);
     Alcotest.fail "bad level accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Table.get t ~level:0 ~digit:4);
    Alcotest.fail "bad digit accepted"
  with Invalid_argument _ -> ()

let iter_order_and_fold () =
  let t = Table.create p ~owner:(id "21233") in
  Table.set t ~level:0 ~digit:0 (id "13120") T;
  Table.set t ~level:1 ~digit:0 (id "20103") S;
  Table.set t ~level:0 ~digit:2 (id "00002") T;
  let visited = ref [] in
  Table.iter t (fun ~level ~digit _ _ -> visited := (level, digit) :: !visited);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "level-major order"
    [ (0, 0); (0, 2); (1, 0) ]
    (List.rev !visited);
  let count = Table.fold t ~init:0 ~f:(fun acc ~level:_ ~digit:_ _ _ -> acc + 1) in
  check Alcotest.int "fold counts" 3 count

let reverse_sets () =
  let t = Table.create p ~owner:(id "21233") in
  Table.add_reverse t ~level:1 (id "00023");
  Table.add_reverse t ~level:1 (id "00023");
  Table.add_reverse t ~level:0 (id "13120");
  check Alcotest.int "dedup" 1 (Id.Set.cardinal (Table.reverse_at t ~level:1));
  check Alcotest.int "union" 2 (Id.Set.cardinal (Table.all_reverse t));
  Table.remove_reverse t (id "00023");
  check Alcotest.int "removed everywhere" 1 (Id.Set.cardinal (Table.all_reverse t));
  (* 00023 shares one low digit with 21233, so no table of 00023 can hold
     21233 above level 1. *)
  let rejected =
    Invalid_argument "Table.add_reverse: storer 00023 lacks suffix 33 of 21233 for level 2"
  in
  Alcotest.check_raises "storer above the shared suffix" rejected (fun () ->
      Table.add_reverse t ~level:2 (id "00023"));
  Alcotest.check_raises "one such storer fails the union" rejected (fun () ->
      Table.add_reverses t ~level:2 [ id "00233"; id "00023" ]);
  check Alcotest.bool "nothing registered at level 2" true
    (Id.Set.is_empty (Table.reverse_at t ~level:2));
  (* 01233 shares four digits with the owner: it may be registered at levels
     0 to 4, and is found only at those it was registered at. *)
  let both = id "01233" in
  Table.add_reverse t ~level:0 both;
  Table.add_reverses t ~level:3 [ both ];
  let levels x =
    List.filter (fun level -> Id.Set.mem x (Table.reverse_at t ~level)) [ 0; 1; 2; 3; 4 ]
  in
  check Alcotest.(list int) "per-level membership" [ 0; 3 ] (levels both);
  check Alcotest.(list int) "13120 only at level 0" [ 0 ] (levels (id "13120"));
  Table.remove_reverse t both;
  check Alcotest.(list int) "removal clears every level" [] (levels both);
  check Alcotest.(list int) "other storers kept" [ 0 ] (levels (id "13120"))

let snapshot_roundtrip () =
  let t = Table.create p ~owner:(id "21233") in
  Table.fill_self t S;
  Table.set t ~level:0 ~digit:1 (id "03201") T;
  let snap = Table.Snapshot.of_table t in
  check Alcotest.int "cell count" 6 (Table.Snapshot.cell_count snap);
  (match Table.Snapshot.find snap ~level:0 ~digit:1 with
  | Some (node, _) -> check Alcotest.string "cell node" "03201" (Id.to_string node)
  | None -> Alcotest.fail "cell missing");
  let low = Table.Snapshot.of_table_levels t ~lo:0 ~hi:0 in
  check Alcotest.int "level filter" 2 (Table.Snapshot.cell_count low);
  let filtered = Table.Snapshot.filter snap ~f:(fun ~level ~digit:_ _ _ -> level > 0) in
  check Alcotest.int "predicate filter" 4 (Table.Snapshot.cell_count filtered)

let known_nodes_collects () =
  let t = Table.create p ~owner:(id "21233") in
  Table.fill_self t S;
  Table.set t ~level:0 ~digit:1 (id "03201") T;
  let known = Table.known_nodes t in
  check Alcotest.int "distinct nodes" 2 (Id.Set.cardinal known)

(* --- suffix index --- *)

let suffix_index_queries () =
  let ids = List.map id [ "21233"; "01233"; "13120" ] in
  let idx = Suffix_index.of_ids ids in
  check Alcotest.bool "suffix 3" true (Suffix_index.mem idx [| 3 |]);
  check Alcotest.bool "suffix 33" true (Suffix_index.mem idx [| 3; 3 |]);
  check Alcotest.bool "missing" false (Suffix_index.mem idx [| 1; 1 |]);
  check Alcotest.int "members of 1233" 2 (Suffix_index.count idx [| 3; 3; 2; 1 |]);
  check Alcotest.int "empty suffix = all" 3 (List.length (Suffix_index.members idx [||]));
  match Suffix_index.witness idx [| 0 |] with
  | Some w -> check Alcotest.string "witness ends with 0" "13120" (Id.to_string w)
  | None -> Alcotest.fail "witness missing"

(* Every query against a filter of the id list: members newest first, the
   witness their head. Suffixes: every one of length 0 to 3 over digits
   [0, b] (b itself out of range), each id's full suffix and one digit past
   it. The ids include a duplicate and share suffixes several digits deep. *)
let suffix_index_brute_force () =
  let rng = Ntcu_std.Rng.create 17 in
  let ids = List.init 40 (fun _ -> Id.random_with_suffix rng p [| 2 |]) in
  let ids = (id "21233" :: ids) @ [ id "01233"; id "21233" ] in
  let idx = Suffix_index.of_ids ids in
  let expect suffix = List.rev (List.filter (fun x -> Id.has_suffix x suffix) ids) in
  let query suffix =
    let what = Fmt.str "suffix [%a]" Fmt.(array ~sep:semi int) suffix in
    let e = expect suffix in
    let names = List.map Id.to_string in
    check Alcotest.(list string) (what ^ " members") (names e)
      (names (Suffix_index.members idx suffix));
    check Alcotest.int (what ^ " count") (List.length e) (Suffix_index.count idx suffix);
    check Alcotest.bool (what ^ " mem") (not (List.is_empty e)) (Suffix_index.mem idx suffix);
    check
      Alcotest.(option string)
      (what ^ " witness")
      (Option.map Id.to_string (List.nth_opt e 0))
      (Option.map Id.to_string (Suffix_index.witness idx suffix))
  in
  let rec all len = if len = 0 then [ [||] ] else
      List.concat_map (fun s -> List.init (p.b + 1) (fun j -> Array.append s [| j |])) (all (len - 1))
  in
  List.iter (fun len -> List.iter query (all len)) [ 0; 1; 2; 3 ];
  List.iter
    (fun x ->
      let full = Id.suffix x p.d in
      query full;
      query (Array.append full [| 0 |]))
    ids;
  query [| -1 |];
  check Alcotest.bool "indexed id" true (Suffix_index.mem_id idx (id "01233"));
  check Alcotest.bool "absent id" false (Suffix_index.mem_id idx (id "01232"));
  check Alcotest.int "empty index" 0 (Suffix_index.count (Suffix_index.of_ids []) [||]);
  Alcotest.check_raises "mixed lengths"
    (Invalid_argument "Suffix_index.of_ids: identifiers of different lengths") (fun () ->
      ignore (Suffix_index.of_ids [ id "21233"; Id.of_string (Params.make ~b:4 ~d:4) "1233" ]))

(* --- consistency checker --- *)

(* A hand-built consistent 3-node network over b=2, d=2: 00, 01, 10. *)
let tiny = Params.make ~b:2 ~d:2
let tid s = Id.of_string tiny s

let build_tiny_consistent () =
  let t00 = Table.create tiny ~owner:(tid "00") in
  let t01 = Table.create tiny ~owner:(tid "01") in
  let t10 = Table.create tiny ~owner:(tid "10") in
  Table.fill_self t00 S;
  Table.fill_self t01 S;
  Table.fill_self t10 S;
  (* 00: needs (0,1)->x1 (01), (1,1)->x10 *)
  Table.set t00 ~level:0 ~digit:1 (tid "01") S;
  Table.set t00 ~level:1 ~digit:1 (tid "10") S;
  (* 01: needs (0,0)->x0 (00 or 10) *)
  Table.set t01 ~level:0 ~digit:0 (tid "00") S;
  (* 10: needs (0,1)->01, (1,0)->00 *)
  Table.set t10 ~level:0 ~digit:1 (tid "01") S;
  Table.set t10 ~level:1 ~digit:0 (tid "00") S;
  [ t00; t01; t10 ]

let checker_accepts_consistent () =
  let tables = build_tiny_consistent () in
  check Alcotest.int "no violations" 0 (List.length (Check.violations tables));
  check Alcotest.bool "is_consistent" true (Check.is_consistent tables)

let checker_detects_false_negative () =
  let tables = build_tiny_consistent () in
  let t00 = List.hd tables in
  Table.clear t00 ~level:0 ~digit:1;
  let violations = Check.violations tables in
  check Alcotest.bool "found" true
    (List.exists (function Check.False_negative _ -> true | _ -> false) violations)

let checker_detects_dangling () =
  let tables = build_tiny_consistent () in
  let t00 = List.hd tables in
  (* 11 has the required suffix for 00's (0,1)-entry but is not a network
     member. *)
  Table.set t00 ~level:0 ~digit:1 (tid "11") S;
  let violations = Check.violations tables in
  check Alcotest.bool "found dangling" true
    (List.exists (function Check.Dangling _ -> true | _ -> false) violations)

(* 01 is alone in its group from level 1 up (the only id ending in 1), so
   only 01 itself can fill its (1,0) self-entry: clearing it is a false
   negative whose witness is the owner. *)
let checker_self_entry_witness () =
  let tables = build_tiny_consistent () in
  let t01 = List.nth tables 1 in
  Table.clear t01 ~level:1 ~digit:0;
  match Check.violations tables with
  | [ Check.False_negative { node; level = 1; digit = 0; witness } ] ->
    check Alcotest.string "node" "01" (Id.to_string node);
    check Alcotest.string "witness" "01" (Id.to_string witness)
  | vs ->
    Alcotest.failf "expected one false negative, got [%a]"
      Fmt.(list ~sep:semi Check.pp_violation)
      vs

let checker_limit () =
  let tables = build_tiny_consistent () in
  List.iter (fun t -> Table.clear t ~level:0 ~digit:1) tables;
  let violations = Check.violations ~limit:1 tables in
  check Alcotest.int "limited" 1 (List.length violations)

let reachability_on_consistent () =
  let tables = build_tiny_consistent () in
  check Alcotest.bool "all pairs reachable" true (Check.all_pairs_reachable tables);
  let by_id =
    List.fold_left (fun acc t -> Id.Map.add (Table.owner t) t acc) Id.Map.empty tables
  in
  let lookup i = Id.Map.find_opt i by_id in
  match Check.next_hop_path ~lookup (tid "00") (tid "10") with
  | Some path ->
    check Alcotest.(list string) "path" [ "00"; "10" ] (List.map Id.to_string path)
  | None -> Alcotest.fail "no path"

let reachability_detects_break () =
  let tables = build_tiny_consistent () in
  let t00 = List.hd tables in
  Table.clear t00 ~level:1 ~digit:1;
  check Alcotest.bool "broken" false (Check.all_pairs_reachable tables)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let pp_table_renders () =
  let t = Table.create p ~owner:(id "21233") in
  Table.fill_self t S;
  let s = Fmt.str "%a" Table.pp t in
  check Alcotest.bool "mentions owner" true (contains ~needle:"21233" s);
  check Alcotest.bool "mentions levels" true (contains ~needle:"lvl4" s)

(* ---- fold_holding: the scoped walk against a full fold ---- *)

let positions = Alcotest.(list (pair int int))

(* Where a full fold filtered on [Id.equal id] finds [id], in fold order. *)
let holding_reference table id =
  List.rev
    (Table.fold table ~init:[] ~f:(fun acc ~level ~digit n _ ->
         if Id.equal n id then (level, digit) :: acc else acc))

let holding table id =
  List.rev
    (Table.fold_holding table id ~init:[] ~f:(fun acc ~level ~digit ->
         (level, digit) :: acc))

let known tables =
  List.fold_left (fun acc t -> Id.Set.union acc (Table.known_nodes t)) Id.Set.empty tables

let rec absent_id rng params held =
  let id = Id.random rng params in
  if Id.Set.mem id held then absent_id rng params held else id

(* Every table against every id any of them holds, its own owner and an id
   none holds. Returns the number of positions found. *)
let holding_agrees rng tables =
  let held = known tables in
  let absent = absent_id rng (Table.params (List.hd tables)) held in
  List.fold_left
    (fun found table ->
      let owner = Table.owner table in
      let at id = Fmt.str "%a in %a" Id.pp id Id.pp owner in
      check positions (at absent) [] (holding table absent);
      Id.Set.fold
        (fun id found ->
          let want = holding_reference table id in
          check positions (at id) want (holding table id);
          found + List.length want)
        (Id.Set.add owner held) found)
    0 tables

let seeded_tables rng =
  let ids = Ntcu_harness.Workload.distinct_ids rng p ~n:150 in
  let net = Network.create p in
  Network.seed_consistent net ~seed:4 ids;
  Network.tables net

(* Halfway through the churn smoke: crashed nodes still registered,
   departed ones gone, entries cleared, refilled and left dangling. *)
let churned_tables () =
  let st = Churn.prepare { Churn.smoke with seed = 1 } in
  let net = Churn.net st in
  Ntcu_sim.Engine.run_until (Network.engine net) ~time:(Churn.smoke.duration /. 2.);
  let tables =
    List.map (fun id -> Ntcu_core.Node.table (Network.node_exn net id)) (Network.ids net)
  in
  check Alcotest.bool "crashed nodes among the tables" true
    (Network.live_count net < List.length tables);
  tables

let fold_holding_seeded () =
  let rng = Rng.create 3 in
  let tables = seeded_tables rng in
  (* A seeded owner holds itself at every level. *)
  List.iter
    (fun t ->
      let own = holding t (Table.owner t) in
      check Alcotest.int "owner at every level" p.d (List.length own))
    tables;
  check Alcotest.bool "positions found" true (holding_agrees rng tables > 150 * p.d)

let fold_holding_churned () =
  let tables = churned_tables () in
  check Alcotest.bool "positions found" true
    (holding_agrees (Rng.create 5) tables > List.length tables)

(* ---- bounded removals against full scans ---- *)

let reverse_by_level t =
  List.init (Table.params t).d (fun level -> Table.reverse_at t ~level)

let all_backups t =
  let { Params.b; d } = Table.params t in
  List.init (d * b) (fun i -> Table.backups t ~level:(i / b) ~digit:(i mod b))

let size sets lists =
  List.fold_left (fun n s -> n + Id.Set.cardinal s) 0 sets
  + List.fold_left (fun n l -> n + List.length l) 0 lists

(* Removes [id] from [table]'s reverse sets and backup lists, which visit at
   most [d] of them, and checks the result against dropping [id] from all of
   them. Returns how many registrations went. *)
let check_removal table id =
  let rev = reverse_by_level table and bak = all_backups table in
  let want_rev = List.map (Id.Set.remove id) rev in
  let want_bak = List.map (List.filter (fun x -> not (Id.equal x id))) bak in
  Table.remove_reverse table id;
  Table.remove_backup table id;
  let at what = Fmt.str "%s of %a in %a" what Id.pp id Id.pp (Table.owner table) in
  if not (List.equal Id.Set.equal want_rev (reverse_by_level table)) then
    Alcotest.fail (at "reverse removal");
  if not (List.equal (List.equal Id.equal) want_bak (all_backups table)) then
    Alcotest.fail (at "backup removal");
  size rev bak - size want_rev want_bak

(* Backups wherever [add_backup] takes a held id, on top of those the run
   harvested; then every table loses its owner, an absent id and every held
   id in turn. Returns how many registrations went. *)
let remove_all rng tables =
  let held =
    List.fold_left
      (fun acc t -> Id.Set.union acc (Table.all_reverse t))
      (known tables) tables
  in
  let absent = absent_id rng (Table.params (List.hd tables)) held in
  List.fold_left
    (fun removed table ->
      let { Params.b; d } = Table.params table in
      Id.Set.iter
        (fun id ->
          for i = 0 to (d * b) - 1 do
            ignore (Table.add_backup table ~level:(i / b) ~digit:(i mod b) id : bool)
          done)
        held;
      List.fold_left
        (fun removed id -> removed + check_removal table id)
        removed
        (Table.owner table :: absent :: Id.Set.elements held))
    0 tables

let bounded_removals () =
  let registered tables =
    List.fold_left (fun n t -> n + Id.Set.cardinal (Table.all_reverse t)) 0 tables
  in
  List.iter
    (fun (what, rng, tables) ->
      let reverse = registered tables in
      check Alcotest.bool (what ^ ": storers registered") true (reverse > 0);
      check Alcotest.bool (what ^ ": backups removed too") true
        (remove_all rng tables > reverse);
      check Alcotest.int (what ^ ": reverse sets emptied") 0 (registered tables))
    [
      ("seeded", Rng.create 6, seeded_tables (Rng.create 3));
      ("churned", Rng.create 7, churned_tables ());
    ]

(* ---- the table against a map model ---- *)

(* The model of a table: (level, digit) -> (occupant, state). Random runs of
   set, clear, set_state and fill_self must leave every reader agreeing with
   it. Occupants carry the entry's required suffix. Half of the writes
   reuse an earlier occupant, the owner included, at one of the positions
   its suffix admits, so one id holds several entries and the owner's self
   positions change hands. *)

module Pos = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let same_entry (x, s) (y, s') = Id.equal x y && Table.nstate_equal s s'
let same_cells = List.equal (fun (pos, e) (pos', e') -> pos = pos' && same_entry e e')

(* The cells an iterator visits, in its order. *)
let visited iter =
  let acc = ref [] in
  iter (fun ~level ~digit node state -> acc := ((level, digit), (node, state)) :: !acc);
  List.rev !acc

let expect what ok =
  if not ok then QCheck.Test.fail_reportf "%s disagrees with the model" what

let random_state rng = if Rng.bool rng then Table.T else Table.S

let model_step rng t pool m =
  let ({ Params.b; d } as p) = Table.params t in
  let owner = Table.owner t in
  let level = Rng.int rng d and digit = Rng.int rng b in
  match Rng.int rng 8 with
  | 0 | 1 | 2 ->
    let node, level, digit =
      if Rng.bool rng then begin
        let y = List.nth !pool (Rng.int rng (List.length !pool)) in
        let level = Rng.int rng (min (Id.csuf_len owner y) (d - 1) + 1) in
        (y, level, Id.digit y level)
      end
      else begin
        let y = Id.random_with_suffix rng p (Table.required_suffix t ~level ~digit) in
        pool := y :: !pool;
        (y, level, digit)
      end
    in
    let state = random_state rng in
    Table.set t ~level ~digit node state;
    Pos.add (level, digit) (node, state) m
  | 3 | 4 ->
    Table.clear t ~level ~digit;
    Pos.remove (level, digit) m
  | 5 | 6 -> (
    let state = random_state rng in
    match Pos.find_opt (level, digit) m with
    | Some (node, _) ->
      Table.set_state t ~level ~digit state;
      Pos.add (level, digit) (node, state) m
    | None ->
      expect "set_state on an empty entry"
        (match Table.set_state t ~level ~digit state with
        | () -> false
        | exception Invalid_argument _ -> true);
      m)
  | _ ->
    let state = random_state rng in
    Table.fill_self t state;
    List.fold_left
      (fun m level -> Pos.add (level, Id.digit owner level) (owner, state) m)
      m (List.init d Fun.id)

let table_agrees t pool m =
  let { Params.b; d } = Table.params t in
  for level = 0 to d - 1 do
    for digit = 0 to b - 1 do
      let want = Pos.find_opt (level, digit) m in
      expect "get" (Option.equal same_entry want (Table.get t ~level ~digit));
      expect "neighbor"
        (Option.equal Id.equal (Option.map fst want) (Table.neighbor t ~level ~digit));
      Option.iter
        (fun (node, _) ->
          expect "occupant" (Id.equal node (Table.occupant t ~level ~digit)))
        want
    done
  done;
  let cells = Pos.bindings m in
  expect "iter" (same_cells cells (visited (Table.iter t)));
  expect "fold"
    (same_cells cells
       (List.rev
          (Table.fold t ~init:[] ~f:(fun acc ~level ~digit node state ->
               ((level, digit), (node, state)) :: acc))));
  expect "filled_count" (Table.filled_count t = List.length cells);
  expect "known_nodes"
    (Id.Set.equal (Table.known_nodes t)
       (Id.Set.of_list (List.map (fun (_, (node, _)) -> node) cells)));
  List.iter
    (fun id ->
      let want =
        List.filter_map
          (fun (pos, (node, _)) -> if Id.equal node id then Some pos else None)
          cells
      in
      let got =
        List.rev
          (Table.fold_holding t id ~init:[] ~f:(fun acc ~level ~digit ->
               (level, digit) :: acc))
      in
      expect "fold_holding" (want = got))
    pool

(* The level scan at a random level, start and count against one
   [Table.neighbor] read per digit from [start] upwards (mod b). *)
let scan_agrees rng t =
  let { Params.b; d } = Table.params t in
  let level = Rng.int rng d and start = Rng.int rng b and count = Rng.int rng (b + 1) in
  let rec per_digit k =
    if k >= count || Option.is_some (Table.neighbor t ~level ~digit:((start + k) mod b))
    then k
    else per_digit (k + 1)
  in
  expect "scan_filled" (Table.scan_filled t ~level ~start ~count = per_digit 0)

(* Snapshots of the table: the whole of it, levels [lo, hi] for random
   bounds ([lo > hi] gives none), and a filter of the latter. *)
let snapshot_agrees rng t m =
  let { Params.b; d } = Table.params t in
  let agrees what snap cells =
    expect (what ^ " owner") (Id.equal (Table.Snapshot.owner snap) (Table.owner t));
    expect (what ^ " cell_count") (Table.Snapshot.cell_count snap = List.length cells);
    expect (what ^ " iter") (same_cells cells (visited (Table.Snapshot.iter snap)));
    for level = 0 to d - 1 do
      for digit = 0 to b - 1 do
        expect (what ^ " find")
          (Option.equal same_entry
             (List.assoc_opt (level, digit) cells)
             (Table.Snapshot.find snap ~level ~digit))
      done
    done
  in
  agrees "of_table" (Table.Snapshot.of_table t) (Pos.bindings m);
  let lo = Rng.int rng d and hi = Rng.int rng d in
  let within =
    List.filter (fun ((level, _), _) -> lo <= level && level <= hi) (Pos.bindings m)
  in
  let snap = Table.Snapshot.of_table_levels t ~lo ~hi in
  agrees "of_table_levels" snap within;
  let salt = Rng.int rng 3 in
  let keep ~level ~digit node state =
    let s = match state with Table.T -> 0 | S -> 1 in
    (level + digit + salt + Id.hash node + s) mod 3 <> 0
  in
  agrees "filter"
    (Table.Snapshot.filter snap ~f:keep)
    (List.filter
       (fun ((level, digit), (node, state)) -> keep ~level ~digit node state)
       within)

let table_model params =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:(Fmt.str "model %a" Params.pp params)
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let rng = Rng.create seed in
         let owner = Id.random rng params in
         let t = Table.create params ~owner in
         let pool = ref [ owner ] in
         let m = ref Pos.empty in
         for _ = 1 to 60 do
           m := model_step rng t pool !m;
           table_agrees t !pool !m;
           scan_agrees rng t;
           snapshot_agrees rng t !m
         done;
         true))

let suites =
  [
    ( "table",
      [
        Alcotest.test_case "set/get/clear" `Quick set_get;
        Alcotest.test_case "suffix validation" `Quick set_validates_suffix;
        Alcotest.test_case "required suffix" `Quick required_suffix_examples;
        Alcotest.test_case "state transitions" `Quick set_state_transitions;
        Alcotest.test_case "fill_self" `Quick fill_self_diagonal;
        Alcotest.test_case "range checks" `Quick out_of_range_rejected;
        Alcotest.test_case "iter/fold" `Quick iter_order_and_fold;
        Alcotest.test_case "reverse sets" `Quick reverse_sets;
        Alcotest.test_case "snapshots" `Quick snapshot_roundtrip;
        Alcotest.test_case "known nodes" `Quick known_nodes_collects;
        Alcotest.test_case "fold_holding, seeded" `Quick fold_holding_seeded;
        Alcotest.test_case "fold_holding, churned" `Quick fold_holding_churned;
        Alcotest.test_case "bounded removals" `Quick bounded_removals;
        Alcotest.test_case "pp" `Quick pp_table_renders;
        table_model (Params.make ~b:4 ~d:4);
        table_model Params.paper_sim_d8;
      ] );
    ( "table.suffix_index",
      [
        Alcotest.test_case "queries" `Quick suffix_index_queries;
        Alcotest.test_case "brute force" `Quick suffix_index_brute_force;
      ] );
    ( "table.check",
      [
        Alcotest.test_case "accepts consistent" `Quick checker_accepts_consistent;
        Alcotest.test_case "false negative" `Quick checker_detects_false_negative;
        Alcotest.test_case "dangling" `Quick checker_detects_dangling;
        Alcotest.test_case "cleared self-entry" `Quick checker_self_entry_witness;
        Alcotest.test_case "limit" `Quick checker_limit;
        Alcotest.test_case "reachability" `Quick reachability_on_consistent;
        Alcotest.test_case "reachability break" `Quick reachability_detects_break;
      ] );
  ]

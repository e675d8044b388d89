(* The directory against reference copies of its earlier code: the surrogate
   walk that reads one [Table.neighbor] per digit it tries, and the pointer
   index, a (node, object) -> storers map written by install and remove. The
   directory derives its pointers from the publication trails and walks with
   a level scan; both must give exactly what these references give, on
   consistent networks, after leaves and crashes, and on tables holding
   T-state joiners and dangling entries. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Directory = Ntcu_routing.Directory
module Route = Ntcu_routing.Route
module Experiment = Ntcu_harness.Experiment
module Workload = Ntcu_harness.Workload
module Leave_protocol = Ntcu_extensions.Leave_protocol
module Recovery = Ntcu_extensions.Recovery

let fail = QCheck.Test.fail_reportf

(* ---- reference surrogate walk ---- *)

(* One surrogate-routing step: try digit obj[level], then scan upwards (mod
   b) for the first filled entry naming a node that resolves; the self-entry
   resolves to [table] without a lookup. *)
let surrogate_hop lookup table ~obj ~level =
  let p = Table.params table in
  let self = Table.owner table in
  let rec scan tried j =
    if tried >= p.b then None
    else begin
      match Table.neighbor table ~level ~digit:j with
      | Some n when Id.equal n self -> Some (n, table)
      | Some n -> (
        match lookup n with
        | Some next -> Some (n, next)
        | None -> scan (tried + 1) ((j + 1) mod p.b))
      | None -> scan (tried + 1) ((j + 1) mod p.b)
    end
  in
  scan 0 (Id.digit obj level)

let root_path lookup ~from obj =
  let rec go current table level acc =
    let p = Table.params table in
    if level >= p.d then Ok (List.rev (current :: acc))
    else begin
      match surrogate_hop lookup table ~obj ~level with
      | None -> Error (Route.Dead_end { at = current; level })
      | Some (next, next_table) ->
        if Id.equal next current then go current table (level + 1) acc
        else go next next_table (level + 1) (current :: acc)
    end
  in
  match lookup from with
  | None -> Error (Route.Unknown_node from)
  | Some table -> go from table 0 []

let error_equal a b =
  match (a, b) with
  | Route.Unknown_node x, Route.Unknown_node y -> Id.equal x y
  | Route.Dead_end { at; level }, Route.Dead_end { at = at'; level = level' } ->
    Id.equal at at' && level = level'
  | (Route.Unknown_node _ | Route.Dead_end _), _ -> false

let path_result_equal =
  Result.equal ~ok:(List.equal Id.equal) ~error:error_equal

let pp_path_result =
  Fmt.(result ~ok:(Dump.list Id.pp) ~error:Route.pp_error)

(* ---- reference pointer index ---- *)

module Pair_key = struct
  type t = Id.t * Id.t

  let compare (a, b) (c, d) =
    match Id.compare a c with 0 -> Id.compare b d | order -> order
end

module Pair = Map.Make (Pair_key)

type model = {
  lookup : Id.t -> Table.t option;
  mutable index : Id.Set.t Pair.t;  (* (node, object) -> storers pointed to *)
  mutable trails : Id.t list Pair.t;  (* (object, storer) -> storer .. root *)
}

let install m path obj storer =
  List.iter
    (fun node ->
      let at = Option.value (Pair.find_opt (node, obj) m.index) ~default:Id.Set.empty in
      m.index <- Pair.add (node, obj) (Id.Set.add storer at) m.index)
    path

(* Removes one pointer entry; counts 1 when it was there. *)
let remove m node obj storer =
  match Pair.find_opt (node, obj) m.index with
  | Some at when Id.Set.mem storer at ->
    let at = Id.Set.remove storer at in
    m.index <-
      (if Id.Set.is_empty at then Pair.remove (node, obj) m.index
       else Pair.add (node, obj) at m.index);
    1
  | Some _ | None -> 0

let drop_trail m obj storer =
  match Pair.find_opt (obj, storer) m.trails with
  | None -> 0
  | Some path ->
    m.trails <- Pair.remove (obj, storer) m.trails;
    List.fold_left (fun acc node -> acc + remove m node obj storer) 0 path

let model_publish m ~storer obj =
  match root_path m.lookup ~from:storer obj with
  | Error e -> Error e
  | Ok path ->
    ignore (drop_trail m obj storer : int);
    install m path obj storer;
    m.trails <- Pair.add (obj, storer) path m.trails;
    Ok (List.length path - 1)

let model_unpublish m ~storer obj = ignore (drop_trail m obj storer : int)

let model_storers m obj =
  Pair.fold (fun (o, s) _ acc -> if Id.equal o obj then s :: acc else acc) m.trails []
  |> List.rev

let model_objects m =
  Pair.fold (fun (o, _) _ acc -> Id.Set.add o acc) m.trails Id.Set.empty |> Id.Set.elements

(* The stats both maintenance passes report, over the (object, storer)
   snapshot in ascending order. *)
type tally = {
  mutable touched : Id.Set.t;
  mutable dropped : int;
  mutable hops : int;
  mutable revalidated : int;
  mutable errors : int;
  mutable first_error : Route.error option;
}

let new_tally () =
  {
    touched = Id.Set.empty;
    dropped = 0;
    hops = 0;
    revalidated = 0;
    errors = 0;
    first_error = None;
  }

let error tl e =
  tl.errors <- tl.errors + 1;
  if Option.is_none tl.first_error then tl.first_error <- Some e

let stats_of ~objects tl =
  {
    Directory.objects;
    republished = Id.Set.cardinal tl.touched;
    dropped = tl.dropped;
    publish_hops = tl.hops;
    revalidated = tl.revalidated;
    errors = tl.errors;
    first_error = tl.first_error;
  }

let model_maintain m =
  let objects = List.length (model_objects m) in
  let tl = new_tally () in
  Pair.iter
    (fun (obj, storer) trail ->
      if Option.is_none (m.lookup storer) then
        tl.dropped <- tl.dropped + drop_trail m obj storer
      else
        match root_path m.lookup ~from:storer obj with
        | Ok path when List.equal Id.equal path trail ->
          tl.revalidated <- tl.revalidated + 1
        | Ok path ->
          tl.dropped <- tl.dropped + drop_trail m obj storer;
          install m path obj storer;
          m.trails <- Pair.add (obj, storer) path m.trails;
          tl.hops <- tl.hops + List.length path - 1;
          tl.touched <- Id.Set.add obj tl.touched
        | Error e ->
          tl.dropped <- tl.dropped + drop_trail m obj storer;
          error tl e)
    m.trails;
  stats_of ~objects tl

let model_maintain_full m =
  let objects = List.length (model_objects m) in
  let snapshot = m.trails in
  let tl = new_tally () in
  tl.dropped <- Pair.fold (fun _ at acc -> acc + Id.Set.cardinal at) m.index 0;
  m.index <- Pair.empty;
  m.trails <- Pair.empty;
  Pair.iter
    (fun (obj, storer) _ ->
      if Option.is_some (m.lookup storer) then
        match model_publish m ~storer obj with
        | Ok h ->
          tl.hops <- tl.hops + h;
          tl.touched <- Id.Set.add obj tl.touched
        | Error e -> error tl e)
    snapshot;
  stats_of ~objects tl

(* PRR's first-hit answer and the union over the whole walk. *)
let model_locate m ~client obj =
  Result.map
    (fun path ->
      let at node =
        Option.value (Pair.find_opt (node, obj) m.index) ~default:Id.Set.empty
      in
      let all =
        List.fold_left (fun acc node -> Id.Set.union acc (at node)) Id.Set.empty path
      in
      let rec first depth = function
        | [] -> assert false
        | node :: rest ->
          if Id.Set.is_empty (at node) && not (List.is_empty rest) then
            first (depth + 1) rest
          else (node, at node, depth)
      in
      (path, first 0 path, Id.Set.elements all))
    (root_path m.lookup ~from:client obj)

(* ---- the directory against the model ---- *)

let p = Params.make ~b:4 ~d:6

(* Liveness-aware lookup, as the serving layer uses. *)
let live_lookup net id =
  if Network.is_failed net id then None
  else
    match Network.node net id with
    | Some node when Node.status_equal (Node.status node) Node.In_system ->
      Some (Node.table node)
    | Some _ | None -> None

(* Every pointer the directory holds, as ((node, object), storers). *)
let directory_pointers dir =
  List.concat_map
    (fun (node, held) ->
      List.map (fun (obj, storers) -> ((node, obj), Id.Set.of_list storers)) held)
    (Id.Map.bindings (Directory.pointers dir))

let agrees what dir m ~ids ~objs =
  let got = directory_pointers dir and want = Pair.bindings m.index in
  let same (k, s) (k', s') = Pair_key.compare k k' = 0 && Id.Set.equal s s' in
  if not (List.equal same got want) then
    fail "%s: pointers differ: %d entries against %d in the index" what (List.length got)
      (List.length want);
  if not (List.equal Id.equal (Directory.published_objects dir) (model_objects m)) then
    fail "%s: published_objects differ" what;
  List.iter
    (fun obj ->
      if not (List.equal Id.equal (Directory.storers dir obj) (model_storers m obj)) then
        fail "%s: storers of %a differ" what Id.pp obj;
      List.iter
        (fun client ->
          if Option.is_some (m.lookup client) then
            match (Directory.locate dir ~client obj, model_locate m ~client obj) with
            | Ok r, Ok (path, (node, first, depth), all) ->
              if
                not
                  (List.equal Id.equal r.Directory.path path
                  && Id.equal r.Directory.first_node node
                  && r.Directory.first_depth = depth
                  && Id.Set.equal (Id.Set.of_list r.Directory.first_storers) first
                  && List.equal Id.equal r.Directory.all_storers all
                  && not r.Directory.cached)
              then fail "%s: locate %a from %a differs" what Id.pp obj Id.pp client
            | Error e, Error e' when error_equal e e' -> ()
            | _ ->
              fail "%s: locate %a from %a: outcomes differ" what Id.pp obj Id.pp client)
        ids)
    objs

let stats_equal (a : Directory.maintain_stats) (b : Directory.maintain_stats) =
  a.objects = b.objects && a.republished = b.republished && a.dropped = b.dropped
  && a.publish_hops = b.publish_hops && a.revalidated = b.revalidated
  && a.errors = b.errors
  && Option.equal error_equal a.first_error b.first_error

let pp_stats ppf (s : Directory.maintain_stats) =
  Fmt.pf ppf "objects %d republished %d dropped %d hops %d revalidated %d errors %d"
    s.objects s.republished s.dropped s.publish_hops s.revalidated s.errors

(* Leave one live member gracefully, crash another, then repair. *)
let membership_delta rng net =
  let live =
    Array.of_list
      (List.filter (fun id -> Option.is_some (live_lookup net id)) (Network.ids net))
  in
  if Array.length live > 8 then begin
    let idx = Rng.sample_without_replacement rng 2 (Array.length live) in
    let lp = Leave_protocol.create net in
    Leave_protocol.request_leave lp live.(idx.(0));
    Leave_protocol.run lp;
    Network.fail net live.(idx.(1));
    ignore (Recovery.repair net : Recovery.report)
  end

let step rng net dir m ~ids ~objs =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let obj = pick objs in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    let storer = pick ids in
    let got = Directory.publish dir ~storer obj and want = model_publish m ~storer obj in
    if not (Result.equal ~ok:Int.equal ~error:error_equal got want) then
      fail "publish %a from %a: outcomes differ" Id.pp obj Id.pp storer;
    "publish"
  | 4 ->
    let storer =
      match Directory.storers dir obj with
      | [] -> pick ids
      | storers -> List.nth storers (Rng.int rng (List.length storers))
    in
    Directory.unpublish dir ~storer obj;
    model_unpublish m ~storer obj;
    "unpublish"
  | 5 | 6 | 7 ->
    let full = Rng.int rng 3 = 0 in
    let got = if full then Directory.maintain_full dir else Directory.maintain dir in
    let want = if full then model_maintain_full m else model_maintain m in
    if not (stats_equal got want) then
      fail "maintain%s stats: %a, against %a" (if full then "_full" else "") pp_stats got
        pp_stats want;
    if full then "maintain_full" else "maintain"
  | _ ->
    membership_delta rng net;
    "membership delta"

let directory_matches_index =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"pointers from trails = reference index"
       QCheck.(int_range 1 5_000)
       (fun seed ->
         let run = Experiment.concurrent_joins p ~seed ~n:14 ~m:6 () in
         let net = run.Experiment.net in
         let lookup = live_lookup net in
         let dir = Directory.create ~lookup () in
         let m = { lookup; index = Pair.empty; trails = Pair.empty } in
         let ids = Array.of_list (Network.ids net) in
         let rng = Rng.create (seed + 1) in
         let objs =
           Array.of_list
             (Workload.distinct_ids ~avoid:(Id.Set.of_list (Array.to_list ids)) rng p ~n:4)
         in
         for i = 1 to 24 do
           let what = step rng net dir m ~ids ~objs in
           agrees (Fmt.str "step %d (%s)" i what) dir m ~ids:(Array.to_list ids)
             ~objs:(Array.to_list objs)
         done;
         true))

(* Within a pointer, storers ascend whatever order they published in. *)
let storers_ascend () =
  let run = Experiment.concurrent_joins p ~seed:21 ~n:14 ~m:6 () in
  let net = run.Experiment.net in
  let dir = Directory.create ~lookup:(live_lookup net) () in
  let ids = List.sort Id.compare (Network.ids net) in
  let obj =
    List.hd (Workload.distinct_ids ~avoid:(Id.Set.of_list ids) (Rng.create 22) p ~n:1)
  in
  List.iter (fun storer -> ignore (Directory.publish dir ~storer obj : (int, _) result)) ids;
  let ascending what storers =
    Alcotest.(check (list string))
      what
      (List.map Id.to_string (List.sort Id.compare storers))
      (List.map Id.to_string storers)
  in
  Id.Map.iter
    (fun node held ->
      List.iter
        (fun (_, storers) -> ascending (Fmt.str "pointer at %a" Id.pp node) storers)
        held)
    (Directory.pointers dir);
  List.iter
    (fun client ->
      match Directory.locate dir ~client obj with
      | Ok r ->
        ascending (Fmt.str "first storers from %a" Id.pp client) r.Directory.first_storers
      | Error e -> Alcotest.failf "locate: %a" Route.pp_error e)
    ids

(* ---- the walk against the per-digit reference ---- *)

(* Whatever a run leaves registered and not crashed resolves, joiners in
   T-state included. *)
let table_lookup net id =
  if Network.is_failed net id then None else Option.map Node.table (Network.node net id)

(* Both walks from every registered node towards every object, members
   included; counts the outcomes that were errors. *)
let walks_agree what lookup ~froms ~objs =
  let dir = Directory.create ~lookup () in
  List.fold_left
    (fun errors from ->
      List.fold_left
        (fun errors obj ->
          let got = Directory.root_path dir ~from obj
          and want = root_path lookup ~from obj in
          if not (path_result_equal got want) then
            Alcotest.failf "%s: walk %a -> %a: %a, reference %a" what Id.pp from Id.pp obj
              pp_path_result got pp_path_result want;
          if Result.is_error got then errors + 1 else errors)
        errors objs)
    0 froms

(* Joins stopped part-way leave T-state joiners and half-built tables;
   crashing some seeds without repair leaves entries naming departed
   nodes. *)
let interrupted_network params ~seed ~n ~m ~max_events ~crashes =
  let w = Experiment.prepare (Experiment.Joins [||]) params ~seed ~n ~m in
  let net = w.Experiment.w_net in
  (match Network.run ~max_events net with () -> () | exception Failure _ -> ());
  List.iteri (fun i id -> if i < crashes then Network.fail net id) w.Experiment.w_seeds;
  net

(* Tables filled at random from a population in which some nodes have no
   table at all, some entries name those, and some tables lack their
   self-entries, so every level may hold anything from nothing to all b
   entries. *)
let random_tables params ~seed ~n =
  let rng = Rng.create seed in
  let ids = Workload.distinct_ids rng params ~n in
  let tables = Id.Tbl.create n in
  List.iteri
    (fun i owner ->
      if i mod 3 <> 2 then begin
        let t = Table.create params ~owner in
        if Rng.bool rng then Table.fill_self t (if Rng.bool rng then Table.T else S);
        let { Params.b; d } = params in
        for level = 0 to d - 1 do
          for digit = 0 to b - 1 do
            if Rng.int rng 3 = 0 then begin
              match List.filter (fun y -> Table.admits t ~level ~digit y) ids with
              | [] -> ()
              | carriers ->
                let y = List.nth carriers (Rng.int rng (List.length carriers)) in
                Table.set t ~level ~digit y S
            end
          done
        done;
        Id.Tbl.replace tables owner t
      end)
    ids;
  (ids, Id.Tbl.find_opt tables)

let walk_matches_reference () =
  let errors = ref 0 and walks = ref 0 in
  let run what lookup ~froms ~objs =
    errors := !errors + walks_agree what lookup ~froms ~objs;
    walks := !walks + (List.length froms * List.length objs)
  in
  List.iter
    (fun (params, seed, n, m) ->
      let objs rng = Workload.distinct_ids rng params ~n:40 in
      List.iter
        (fun max_events ->
          let net = interrupted_network params ~seed ~n ~m ~max_events ~crashes:3 in
          let froms = Network.ids net in
          let objs = objs (Rng.create (seed + max_events)) @ froms in
          let what =
            Fmt.str "%a seed %d after %d events" Params.pp params seed max_events
          in
          run what (table_lookup net) ~froms ~objs;
          run (what ^ ", live members") (live_lookup net) ~froms ~objs)
        [ 50; 400; 2_000 ];
      let ids, lookup = random_tables params ~seed ~n:(n + m) in
      run (Fmt.str "%a seed %d, random tables" Params.pp params seed) lookup ~froms:ids
        ~objs:(objs (Rng.create seed) @ ids))
    [ (p, 3, 16, 12); (p, 8, 20, 16); (Params.paper_sim_d8, 5, 24, 16) ];
  Alcotest.(check bool) "some walks fail" true (!errors > 0);
  Alcotest.(check bool) "most walks reach a root" true (!errors < !walks / 2)

let suites =
  [
    ( "directory.reference",
      [
        directory_matches_index;
        Alcotest.test_case "storers ascend" `Quick storers_ascend;
        Alcotest.test_case "walk = per-digit walk" `Quick walk_matches_reference;
      ] );
  ]

module Id = Ntcu_id.Id
module Table = Ntcu_table.Table

(* ---- LRU hop-pointer cache -------------------------------------------- *)

(* Entries carry the sorted union of storers along the object's root path.
   Recency is a unique monotonic stamp: eviction picks the stamp argmin, which
   is independent of hashtable iteration order. *)
type cache_entry = { ce_storers : Id.t list; mutable ce_stamp : int }

type cache = {
  c_capacity : int;
  c_entries : cache_entry Id.Tbl.t;
  mutable c_clock : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_evictions : int;
  mutable c_invalidations : int;
}

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  capacity : int;
}

type t = {
  lookup : Id.t -> Table.t option;
  (* node -> (object -> storers) *)
  pointers : Id.t list ref Id.Tbl.t Id.Tbl.t;
  (* object -> (storer, pointer trail storer..root).  Invariant: the pointer
     index holds exactly the entries of these trails, so removal never needs
     a global scan. *)
  trails : (Id.t * Id.t list) list ref Id.Tbl.t;
  cache : cache option;
}

let create ?(cache = 0) ~lookup () =
  if cache < 0 then invalid_arg "Directory.create: cache capacity must be >= 0";
  let cache =
    if cache = 0 then None
    else
      Some
        {
          c_capacity = cache;
          c_entries = Id.Tbl.create (min cache 1024);
          c_clock = 0;
          c_hits = 0;
          c_misses = 0;
          c_evictions = 0;
          c_invalidations = 0;
        }
  in
  { lookup; pointers = Id.Tbl.create 256; trails = Id.Tbl.create 256; cache }

let cache_stats t =
  match t.cache with
  | None ->
    { hits = 0; misses = 0; evictions = 0; invalidations = 0; entries = 0; capacity = 0 }
  | Some c ->
    {
      hits = c.c_hits;
      misses = c.c_misses;
      evictions = c.c_evictions;
      invalidations = c.c_invalidations;
      entries = Id.Tbl.length c.c_entries;
      capacity = c.c_capacity;
    }

let cache_invalidate t obj =
  match t.cache with
  | None -> ()
  | Some c ->
    if Id.Tbl.mem c.c_entries obj then begin
      Id.Tbl.remove c.c_entries obj;
      c.c_invalidations <- c.c_invalidations + 1
    end

let cache_clear t =
  match t.cache with
  | None -> ()
  | Some c ->
    c.c_invalidations <- c.c_invalidations + Id.Tbl.length c.c_entries;
    Id.Tbl.reset c.c_entries

let cache_find c obj =
  match Id.Tbl.find_opt c.c_entries obj with
  | Some e ->
    c.c_hits <- c.c_hits + 1;
    c.c_clock <- c.c_clock + 1;
    e.ce_stamp <- c.c_clock;
    Some e.ce_storers
  | None ->
    c.c_misses <- c.c_misses + 1;
    None

let cache_insert c obj storers =
  if Id.Tbl.length c.c_entries >= c.c_capacity && not (Id.Tbl.mem c.c_entries obj) then begin
    (* Stamps are unique, so the least-recently-used argmin is the same
       whatever order the fold visits entries in. *)
    let victim =
      (Id.Tbl.fold [@ntcu.allow "D002"])
        (fun o e acc ->
          match acc with
          | Some (_, best) when best <= e.ce_stamp -> acc
          | _ -> Some (o, e.ce_stamp))
        c.c_entries None
    in
    match victim with
    | Some (o, _) ->
      Id.Tbl.remove c.c_entries o;
      c.c_evictions <- c.c_evictions + 1
    | None -> ()
  end;
  c.c_clock <- c.c_clock + 1;
  Id.Tbl.replace c.c_entries obj { ce_storers = storers; ce_stamp = c.c_clock }

(* ---- Surrogate routing ------------------------------------------------ *)

(* Bindings of an object-keyed table in ascending Id order: Hashtbl iteration
   order is unspecified, so every consumer that sees a list gets it sorted. *)
let sorted_bindings tbl =
  (Id.Tbl.fold [@ntcu.allow "D002"]) (fun obj v acc -> (obj, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Id.compare a b)

(* One surrogate-routing step from [table]'s owner towards [obj], resolving
   level [level]: try digit obj[level], then scan upwards (mod b) for the
   first filled entry naming a node that still resolves — under churn, table
   entries can dangle towards departed nodes until repair catches up, and the
   directory must route around them rather than die on them (on a consistent
   network every entry resolves and the scan is the plain PRR one). The
   always-live self-entry guarantees the scan terminates; it resolves to
   [table] itself without a lookup. Returns the next hop with its table. *)
let surrogate_hop t table ~obj ~level =
  let p = Table.params table in
  let self = Table.owner table in
  let rec scan tried j =
    if tried >= p.b then None
    else begin
      match Table.neighbor table ~level ~digit:j with
      | Some n when Id.equal n self -> Some (n, table)
      | Some n -> (
        match t.lookup n with
        | Some next -> Some (n, next)
        | None -> scan (tried + 1) ((j + 1) mod p.b))
      | None -> scan (tried + 1) ((j + 1) mod p.b)
    end
  in
  scan 0 (Id.digit obj level)

(* Each hop's table is looked up once, when the previous hop's scan
   resolves it. *)
let root_path t ~from obj =
  let rec go current table level acc =
    let p = Table.params table in
    if level >= p.d then Ok (List.rev (current :: acc))
    else begin
      match surrogate_hop t table ~obj ~level with
      | None -> Error (Route.Dead_end { at = current; level })
      | Some (next, next_table) ->
        if Id.equal next current then go current table (level + 1) acc
        else go next next_table (level + 1) (current :: acc)
    end
  in
  match t.lookup from with
  | None -> Error (Route.Unknown_node from)
  | Some table -> go from table 0 []

let root_of t ~from obj =
  match root_path t ~from obj with
  | Ok path -> begin
    match List.rev path with
    | root :: _ -> Ok root
    | [] -> assert false
  end
  | Error e -> Error e

(* ---- Pointer and trail bookkeeping ------------------------------------ *)

let node_pointers t node =
  match Id.Tbl.find_opt t.pointers node with
  | Some tbl -> tbl
  | None ->
    let tbl = Id.Tbl.create 8 in
    Id.Tbl.add t.pointers node tbl;
    tbl

let install_pointers t path obj storer =
  List.iter
    (fun node ->
      let tbl = node_pointers t node in
      match Id.Tbl.find_opt tbl obj with
      | Some storers ->
        if not (List.exists (Id.equal storer) !storers) then storers := storer :: !storers
      | None -> Id.Tbl.add tbl obj (ref [ storer ]))
    path

let remove_pointer t node obj storer =
  match Id.Tbl.find_opt t.pointers node with
  | None -> 0
  | Some tbl -> (
    match Id.Tbl.find_opt tbl obj with
    | None -> 0
    | Some storers ->
      let before = List.length !storers in
      storers := List.filter (fun s -> not (Id.equal s storer)) !storers;
      let removed = before - List.length !storers in
      if List.is_empty !storers then Id.Tbl.remove tbl obj;
      if Id.Tbl.length tbl = 0 then Id.Tbl.remove t.pointers node;
      removed)

(* Drop the (obj, storer) trail and every pointer it installed; returns the
   number of pointer entries removed. *)
let drop_trail t obj storer =
  match Id.Tbl.find_opt t.trails obj with
  | None -> 0
  | Some r -> (
    match List.find_opt (fun (s, _) -> Id.equal s storer) !r with
    | None -> 0
    | Some (_, path) ->
      r := List.filter (fun (s, _) -> not (Id.equal s storer)) !r;
      if List.is_empty !r then Id.Tbl.remove t.trails obj;
      List.fold_left (fun acc node -> acc + remove_pointer t node obj storer) 0 path)

let set_trail t obj storer path =
  let r =
    match Id.Tbl.find_opt t.trails obj with
    | Some r -> r
    | None ->
      let r = ref [] in
      Id.Tbl.add t.trails obj r;
      r
  in
  r := (storer, path) :: List.filter (fun (s, _) -> not (Id.equal s storer)) !r

(* ---- Publish / unpublish ---------------------------------------------- *)

let publish t ~storer obj =
  match root_path t ~from:storer obj with
  | Error e -> Error e
  | Ok path ->
    ignore (drop_trail t obj storer : int);
    install_pointers t path obj storer;
    set_trail t obj storer path;
    cache_invalidate t obj;
    Ok (List.length path - 1)

let unpublish t ~storer obj =
  ignore (drop_trail t obj storer : int);
  cache_invalidate t obj

let storers t obj =
  match Id.Tbl.find_opt t.trails obj with
  | None -> []
  | Some r -> List.sort Id.compare (List.map fst !r)

(* ---- Queries ----------------------------------------------------------- *)

let pointers_for t node obj =
  match Id.Tbl.find_opt t.pointers node with
  | Some tbl -> Id.Tbl.find_opt tbl obj
  | None -> None

type locate_result = {
  all_storers : Id.t list;
  first_storers : Id.t list;
  first_node : Id.t;
  first_depth : int;
  path : Id.t list;
  cached : bool;
}

let locate t ~client obj =
  let hit = match t.cache with None -> None | Some c -> cache_find c obj in
  match hit with
  | Some storers ->
    Ok
      {
        all_storers = storers;
        first_storers = storers;
        first_node = client;
        first_depth = 0;
        path = [ client ];
        cached = true;
      }
  | None -> (
    match root_path t ~from:client obj with
    | Error e -> Error e
    | Ok path ->
      let first = ref None in
      let union = ref Id.Set.empty in
      List.iteri
        (fun i node ->
          match pointers_for t node obj with
          | Some storers ->
            union := List.fold_left (fun acc s -> Id.Set.add s acc) !union !storers;
            if Option.is_none !first then first := Some (node, !storers, i)
          | None -> ())
        path;
      let all = Id.Set.elements !union in
      let first_node, first_storers, first_depth =
        match !first with
        | Some (node, ss, depth) -> (node, ss, depth)
        | None ->
          let hops = List.length path - 1 in
          (List.nth path hops, [], hops)
      in
      (match t.cache with
      | Some c when not (List.is_empty all) -> cache_insert c obj all
      | _ -> ());
      Ok { all_storers = all; first_storers; first_node; first_depth; path; cached = false })

let pointers_at t node =
  match Id.Tbl.find_opt t.pointers node with
  | Some tbl -> List.map (fun (obj, storers) -> (obj, !storers)) (sorted_bindings tbl)
  | None -> []

let published_objects t =
  (Id.Tbl.fold [@ntcu.allow "D002"]) (fun obj _ acc -> obj :: acc) t.trails []
  |> List.sort Id.compare

(* ---- Maintenance ------------------------------------------------------- *)

type maintain_stats = {
  objects : int;
  republished : int;
  dropped : int;
  publish_hops : int;
  revalidated : int;
  errors : int;
  first_error : Route.error option;
}

(* Commutative sum over every pointer entry: order-independent. *)
let total_pointer_entries t =
  (Id.Tbl.fold [@ntcu.allow "D002"])
    (fun _node tbl acc ->
      (Id.Tbl.fold [@ntcu.allow "D002"])
        (fun _obj storers acc -> acc + List.length !storers)
        tbl acc)
    t.pointers 0

(* Snapshot of the trail index in ascending (object, storer) Id order:
   republishing order decides the order storer lists are rebuilt in, which is
   visible through [pointers_at]/[locate], so maintenance walks a
   sorted snapshot and is deterministic. *)
let sorted_trails t =
  (Id.Tbl.fold [@ntcu.allow "D002"]) (fun obj r acc -> (obj, !r) :: acc) t.trails []
  |> List.sort (fun (a, _) (b, _) -> Id.compare a b)
  |> List.map (fun (obj, ts) ->
         (obj, List.sort (fun (a, _) (b, _) -> Id.compare a b) ts))

let maintain_full t =
  let snapshot = sorted_trails t in
  let dropped = total_pointer_entries t in
  Id.Tbl.reset t.pointers;
  Id.Tbl.reset t.trails;
  cache_clear t;
  let republished = ref 0 in
  let hops = ref 0 in
  let errors = ref 0 in
  let first_error = ref None in
  List.iter
    (fun (obj, ts) ->
      let touched = ref false in
      List.iter
        (fun (storer, _old_trail) ->
          (* Departed storers have no table any more; their replicas are gone. *)
          if Option.is_some (t.lookup storer) then begin
            match publish t ~storer obj with
            | Ok h ->
              hops := !hops + h;
              touched := true
            | Error e ->
              incr errors;
              if Option.is_none !first_error then first_error := Some e
          end)
        ts;
      if !touched then incr republished)
    snapshot;
  {
    objects = List.length snapshot;
    republished = !republished;
    dropped;
    publish_hops = !hops;
    revalidated = 0;
    errors = !errors;
    first_error = !first_error;
  }

let maintain t =
  let snapshot = sorted_trails t in
  let republished = ref 0 in
  let dropped = ref 0 in
  let hops = ref 0 in
  let revalidated = ref 0 in
  let errors = ref 0 in
  let first_error = ref None in
  List.iter
    (fun (obj, ts) ->
      let touched = ref false in
      List.iter
        (fun (storer, trail) ->
          if Option.is_none (t.lookup storer) then begin
            (* The replica departed with its storer: retract its trail. *)
            dropped := !dropped + drop_trail t obj storer;
            cache_invalidate t obj
          end
          else begin
            match root_path t ~from:storer obj with
            | Ok path when List.equal Id.equal path trail ->
              (* The trail still lies on the current surrogate path (same
                 root, same hops): every pointer on it is exactly where a
                 query will look, so nothing moves. *)
              incr revalidated
            | Ok path ->
              dropped := !dropped + drop_trail t obj storer;
              install_pointers t path obj storer;
              set_trail t obj storer path;
              hops := !hops + List.length path - 1;
              cache_invalidate t obj;
              touched := true
            | Error e ->
              dropped := !dropped + drop_trail t obj storer;
              cache_invalidate t obj;
              incr errors;
              if Option.is_none !first_error then first_error := Some e
          end)
        ts;
      if !touched then incr republished)
    snapshot;
  {
    objects = List.length snapshot;
    republished = !republished;
    dropped = !dropped;
    publish_hops = !hops;
    revalidated = !revalidated;
    errors = !errors;
    first_error = !first_error;
  }

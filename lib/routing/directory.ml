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
  (* object -> its publications (storer, trail storer..root), in ascending
     storer order. No pointer index is kept: the pointers at node X for
     object o are exactly the storers whose trail for o passes through X. *)
  mutable trails : (Id.t * Id.t list) list Id.Map.t;
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
  { lookup; trails = Id.Map.empty; cache }

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

(* The surrogate-routing walk from [table]'s owner towards [obj], from level
   [level] on. At each level it tries digit obj[level], then scans upwards
   (mod b) for the first filled entry naming a node that still resolves —
   under churn, table entries can dangle towards departed nodes until repair
   catches up, and the directory must route around them rather than die on
   them (on a consistent network every entry resolves and the scan is the
   plain PRR one). The always-live self-entry ends the scan; it resolves to
   [table] itself without a lookup. [scan] resumes a level at [digit] with
   [left] of its b digits untried. Each hop's table is looked up once, when
   the scan resolves it, and the walk allocates only the path. *)
let rec walk t obj table level acc =
  let { Ntcu_id.Params.b; d } = Table.params table in
  if level >= d then Ok (List.rev (Table.owner table :: acc))
  else scan t obj table level (Id.digit obj level) b acc

and scan t obj table level digit left acc =
  let self = Table.owner table in
  let skipped = Table.scan_filled table ~level ~start:digit ~count:left in
  if skipped >= left then Error (Route.Dead_end { at = self; level })
  else begin
    let b = (Table.params table).b in
    let digit = (digit + skipped) mod b in
    let node = Table.occupant table ~level ~digit in
    if Id.equal node self then walk t obj table (level + 1) acc
    else
      match t.lookup node with
      | Some next -> walk t obj next (level + 1) (self :: acc)
      | None -> scan t obj table level ((digit + 1) mod b) (left - skipped - 1) acc
  end

let root_path t ~from obj =
  match t.lookup from with
  | None -> Error (Route.Unknown_node from)
  | Some table -> walk t obj table 0 []

let root_of t ~from obj =
  match root_path t ~from obj with
  | Ok path -> begin
    match List.rev path with
    | root :: _ -> Ok root
    | [] -> assert false
  end
  | Error e -> Error e

(* ---- Trails ------------------------------------------------------------ *)

let trails_of t obj = Option.value (Id.Map.find_opt obj t.trails) ~default:[]

(* The pointer entries a trail holds: one per distinct node on it. *)
let rec pointer_count = function
  | [] -> 0
  | node :: rest ->
    (if List.exists (Id.equal node) rest then 0 else 1) + pointer_count rest

(* [trails] with the storer's trail set to [path], in ascending storer
   order. *)
let rec with_trail storer path = function
  | (s, _) :: rest when Id.equal s storer -> (storer, path) :: rest
  | ((s, _) as trail) :: rest when Id.compare s storer < 0 ->
    trail :: with_trail storer path rest
  | trails -> (storer, path) :: trails

(* ---- Publish / unpublish ---------------------------------------------- *)

(* Publish from [storer], whose table is [table]. *)
let publish_from t ~storer table obj =
  match walk t obj table 0 [] with
  | Error e -> Error e
  | Ok path ->
    t.trails <- Id.Map.add obj (with_trail storer path (trails_of t obj)) t.trails;
    cache_invalidate t obj;
    Ok (List.length path - 1)

let publish t ~storer obj =
  match t.lookup storer with
  | None -> Error (Route.Unknown_node storer)
  | Some table -> publish_from t ~storer table obj

let unpublish t ~storer obj =
  (match List.partition (fun (s, _) -> Id.equal s storer) (trails_of t obj) with
  | [], _ -> ()
  | _, [] -> t.trails <- Id.Map.remove obj t.trails
  | _, kept -> t.trails <- Id.Map.add obj kept t.trails);
  cache_invalidate t obj

let storers t obj = List.map fst (trails_of t obj)

(* ---- Queries ----------------------------------------------------------- *)

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
      (* Each storer whose trail meets the path, at the depth of the first
         node they share: the walk meets that storer's pointer there. *)
      let met =
        List.filter_map
          (fun (s, trail) ->
            List.find_index (fun node -> List.exists (Id.equal node) trail) path
            |> Option.map (fun depth -> (s, depth)))
          (trails_of t obj)
      in
      let all = List.map fst met in
      (* The first pointer on the path, or the root when there is none. *)
      let first_depth =
        List.fold_left (fun acc (_, depth) -> Int.min acc depth) (List.length path - 1) met
      in
      let first_storers =
        List.filter_map (fun (s, depth) -> if depth = first_depth then Some s else None) met
      in
      let first_node = List.nth path first_depth in
      (match t.cache with
      | Some c when not (List.is_empty all) -> cache_insert c obj all
      | _ -> ());
      Ok { all_storers = all; first_storers; first_node; first_depth; path; cached = false })

let pointers t =
  (* Objects ascend in the fold and storers within each object, so each
     node's list is built newest first and reversed once. A trail that
     revisits a node finds itself already at the head. *)
  let add obj storer map node =
    Id.Map.update node
      (function
        | Some ((o, s :: _) :: _) as held when Id.equal o obj && Id.equal s storer -> held
        | Some ((o, storers) :: rest) when Id.equal o obj ->
          Some ((o, storer :: storers) :: rest)
        | Some held -> Some ((obj, [ storer ]) :: held)
        | None -> Some [ (obj, [ storer ]) ])
      map
  in
  Id.Map.fold
    (fun obj trails map ->
      List.fold_left
        (fun map (storer, trail) -> List.fold_left (add obj storer) map trail)
        map trails)
    t.trails Id.Map.empty
  |> Id.Map.map (List.rev_map (fun (obj, storers) -> (obj, List.rev storers)))

let published_objects t = List.map fst (Id.Map.bindings t.trails)

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

(* Both passes visit the trails in ascending (object, storer) order, which
   decides [first_error]. *)

let maintain_full t =
  let snapshot = t.trails in
  let dropped =
    Id.Map.fold
      (fun _ trails acc ->
        List.fold_left (fun acc (_, trail) -> acc + pointer_count trail) acc trails)
      snapshot 0
  in
  t.trails <- Id.Map.empty;
  cache_clear t;
  let republished = ref 0 in
  let hops = ref 0 in
  let errors = ref 0 in
  let first_error = ref None in
  Id.Map.iter
    (fun obj trails ->
      let touched = ref false in
      List.iter
        (fun (storer, _old_trail) ->
          (* Departed storers have no table any more; their replicas are gone. *)
          match t.lookup storer with
          | None -> ()
          | Some table -> (
            match publish_from t ~storer table obj with
            | Ok h ->
              hops := !hops + h;
              touched := true
            | Error e ->
              incr errors;
              if Option.is_none !first_error then first_error := Some e))
        trails;
      if !touched then incr republished)
    snapshot;
  {
    objects = Id.Map.cardinal snapshot;
    republished = !republished;
    dropped;
    publish_hops = !hops;
    revalidated = 0;
    errors = !errors;
    first_error = !first_error;
  }

let maintain t =
  let objects = Id.Map.cardinal t.trails in
  let republished = ref 0 in
  let dropped = ref 0 in
  let hops = ref 0 in
  let revalidated = ref 0 in
  let errors = ref 0 in
  let first_error = ref None in
  (* The object's trails after the pass, still in ascending storer order. *)
  let revalidate obj trails =
    let touched = ref false in
    let kept =
      List.filter_map
        (fun ((storer, trail) as publication) ->
          match t.lookup storer with
          | None ->
            (* The replica departed with its storer: retract its trail. *)
            dropped := !dropped + pointer_count trail;
            cache_invalidate t obj;
            None
          | Some table -> (
            match walk t obj table 0 [] with
            | Ok path when List.equal Id.equal path trail ->
              (* The trail still lies on the current surrogate path (same
                 root, same hops): every pointer on it is exactly where a
                 query will look, so nothing moves. *)
              incr revalidated;
              Some publication
            | Ok path ->
              dropped := !dropped + pointer_count trail;
              hops := !hops + List.length path - 1;
              cache_invalidate t obj;
              touched := true;
              Some (storer, path)
            | Error e ->
              dropped := !dropped + pointer_count trail;
              cache_invalidate t obj;
              incr errors;
              if Option.is_none !first_error then first_error := Some e;
              None))
        trails
    in
    if !touched then incr republished;
    kept
  in
  t.trails <-
    Id.Map.mapi revalidate t.trails
    |> Id.Map.filter (fun _ kept -> not (List.is_empty kept));
  {
    objects;
    republished = !republished;
    dropped = !dropped;
    publish_hops = !hops;
    revalidated = !revalidated;
    errors = !errors;
    first_error = !first_error;
  }

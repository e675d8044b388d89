module Id = Ntcu_id.Id

(* A trie of suffix groups. The root holds every id; a group of suffix
   length [k] holding two or more ids is split stably by digit [k] into its
   children, so every group lists its carriers in input order. Splitting
   stops at a group of one id (or at length [d], for duplicates): a lone id
   stands for every longer suffix it carries, which [child] resolves by
   comparing digits. Positions index [ids], the input order. *)
type group = {
  pos : int array;
  kids : group array; (* by digit; [||] for a leaf *)
}

type t = {
  ids : Id.t array;
  root : group;
  height : int; (* 1 + the longest suffix length of a split group *)
}

let empty = { pos = [||]; kids = [||] }

let of_ids ids =
  let ids = Array.of_list ids in
  let d = if Array.length ids = 0 then 0 else Id.length ids.(0) in
  if Array.exists (fun id -> Id.length id <> d) ids then
    invalid_arg "Suffix_index.of_ids: identifiers of different lengths";
  let height = ref 0 in
  let rec split pos level =
    if Array.length pos <= 1 || level = d then { pos; kids = [||] }
    else begin
      height := max !height (level + 1);
      let digit i = Id.digit ids.(i) level in
      let width = Array.fold_left (fun w i -> max w (digit i + 1)) 0 pos in
      let sizes = Array.make width 0 in
      Array.iter (fun i -> sizes.(digit i) <- sizes.(digit i) + 1) pos;
      let parts = Array.map (fun size -> Array.make size 0) sizes in
      let next = Array.make width 0 in
      Array.iter
        (fun i ->
          let j = digit i in
          parts.(j).(next.(j)) <- i;
          next.(j) <- next.(j) + 1)
        pos;
      {
        pos;
        kids =
          Array.map
            (fun part -> if Array.length part = 0 then empty else split part (level + 1))
            parts;
      }
    end
  in
  let root = split (Array.init (Array.length ids) Fun.id) 0 in
  { ids; root; height = !height }

let root t = t.root

let child t g ~level digit =
  if Array.length g.kids > 0 then
    if digit >= 0 && digit < Array.length g.kids then g.kids.(digit) else empty
  else if
    Array.length g.pos = 1
    &&
    let id = t.ids.(g.pos.(0)) in
    level < Id.length id && Id.digit id level = digit
  then g
  else empty

let size g = Array.length g.pos

let first t g = if Array.length g.pos = 0 then None else Some t.ids.(g.pos.(0))

let find t suffix =
  let rec go g level =
    if level = Array.length suffix || Array.length g.pos = 0 then g
    else go (child t g ~level suffix.(level)) (level + 1)
  in
  go t.root 0

let members t suffix = Array.fold_left (fun acc i -> t.ids.(i) :: acc) [] (find t suffix).pos

let mem t suffix = size (find t suffix) > 0

let count t suffix = size (find t suffix)

let witness t suffix =
  let g = find t suffix in
  if Array.length g.pos = 0 then None else Some t.ids.(g.pos.(Array.length g.pos - 1))

let mem_id t id =
  let rec go g level =
    if Array.length g.kids = 0 || level >= Id.length id then
      Array.exists (fun i -> Id.equal t.ids.(i) id) g.pos
    else go (child t g ~level (Id.digit id level)) (level + 1)
  in
  go t.root 0

let fill_consistent ~rng ~reverse tables =
  let t = of_ids (List.map Table.owner tables) in
  let tables = Array.of_list tables in
  let h = t.height in
  (* [storers.(q * h + level)]: who stored [ids.(q)] at [level], newest first. *)
  let storers = Array.make (if reverse then Array.length tables * h else 0) [] in
  Array.iteri
    (fun p table ->
      let owner = t.ids.(p) in
      (* [g] is the owner's group at suffix length [level]; once the owner is
         alone in it, every other entry from [level] up has no carrier. *)
      let rec walk g level =
        if Array.length g.pos > 1 && level < Id.length owner then begin
          let own = Id.digit owner level in
          Array.iteri
            (fun digit c ->
              let n = Array.length c.pos in
              if digit <> own && n > 0 then begin
                let q = c.pos.(n - 1 - Ntcu_std.Rng.int rng n) in
                Table.set table ~level ~digit t.ids.(q) S;
                if reverse then storers.((q * h) + level) <- owner :: storers.((q * h) + level)
              end)
            g.kids;
          walk g.kids.(own) (level + 1)
        end
      in
      walk t.root 0)
    tables;
  if reverse then
    Array.iteri
      (fun q table ->
        for level = 0 to h - 1 do
          match storers.((q * h) + level) with
          | [] -> ()
          | ids -> Table.add_reverses table ~level ids
        done)
      tables

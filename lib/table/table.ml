module Id = Ntcu_id.Id
module Params = Ntcu_id.Params

type nstate = T | S

let nstate_equal a b = match (a, b) with T, T | S, S -> true | (T | S), _ -> false

let pp_nstate ppf = function
  | T -> Fmt.string ppf "T"
  | S -> Fmt.string ppf "S"

type slot = { node : Id.t; mutable state : nstate }

type t = {
  params : Params.t;
  owner : Id.t;
  slots : slot option array; (* index = level * b + digit *)
  reverse : Id.Set.t array; (* by level: who stores the owner at (level, owner[level]) *)
  backup : Id.t list array; (* same indexing as [slots]; newest first *)
  backup_capacity : int;
  mutable filled : int;
}

let create (params : Params.t) ~owner =
  if Id.length owner <> params.d then invalid_arg "Table.create: owner ID length mismatch";
  let size = params.d * params.b in
  {
    params;
    owner;
    slots = Array.make size None;
    reverse = Array.make params.d Id.Set.empty;
    backup = Array.make size [];
    backup_capacity = 3;
    filled = 0;
  }

let params t = t.params
let owner t = t.owner

let index t ~level ~digit =
  if level < 0 || level >= t.params.d then
    invalid_arg (Printf.sprintf "Table: level %d out of range" level);
  if digit < 0 || digit >= t.params.b then
    invalid_arg (Printf.sprintf "Table: digit %d out of range" digit);
  (level * t.params.b) + digit

let get t ~level ~digit =
  match t.slots.(index t ~level ~digit) with
  | None -> None
  | Some { node; state } -> Some (node, state)

let neighbor t ~level ~digit =
  match t.slots.(index t ~level ~digit) with
  | None -> None
  | Some { node; _ } -> Some node

let required_suffix t ~level ~digit =
  ignore (index t ~level ~digit);
  Array.init (level + 1) (fun i -> if i = level then digit else Id.digit t.owner i)

let rec same_digits_below x y i =
  i < 0 || (Id.digit x i = Id.digit y i && same_digits_below x y (i - 1))

(* Does [node] end with [required_suffix t ~level ~digit]? Compared in place,
   for callers that have validated the range. *)
let carries t ~level ~digit node =
  level < Id.length node
  && Id.digit node level = digit
  && same_digits_below node t.owner (level - 1)

let admits t ~level ~digit node =
  ignore (index t ~level ~digit);
  carries t ~level ~digit node

let set t ~level ~digit node state =
  let i = index t ~level ~digit in
  if not (carries t ~level ~digit node) then
    invalid_arg
      (Fmt.str "Table.set: node %a lacks required suffix %a for (%d,%d)-entry of %a"
         Id.pp node Id.pp_suffix (required_suffix t ~level ~digit) level digit Id.pp
         t.owner);
  if Option.is_none t.slots.(i) then t.filled <- t.filled + 1;
  t.slots.(i) <- Some { node; state }

let clear t ~level ~digit =
  let i = index t ~level ~digit in
  if Option.is_some t.slots.(i) then t.filled <- t.filled - 1;
  t.slots.(i) <- None

let set_state t ~level ~digit state =
  match t.slots.(index t ~level ~digit) with
  | None -> invalid_arg "Table.set_state: empty entry"
  | Some slot -> slot.state <- state

let fill_self t state =
  for level = 0 to t.params.d - 1 do
    set t ~level ~digit:(Id.digit t.owner level) t.owner state
  done

let iter t f =
  for level = 0 to t.params.d - 1 do
    for digit = 0 to t.params.b - 1 do
      match t.slots.((level * t.params.b) + digit) with
      | None -> ()
      | Some { node; state } -> f ~level ~digit node state
    done
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~level ~digit node state -> acc := f !acc ~level ~digit node state);
  !acc

(* [set] admits [id] at [(i, j)] only when [j = id[i]] and [id] shares the
   owner's digits below [i], so it can occupy only [(i, id[i])] for
   [i <= top_level t id]. The same rule bounds its backup positions and, seen
   from the other side, the levels at which it can store the owner. *)
let top_level t id = min (Id.csuf_len t.owner id) (t.params.d - 1)

(* Each slot is read when the fold reaches it. *)
let fold_holding t id ~init ~f =
  let acc = ref init in
  for level = 0 to top_level t id do
    let digit = Id.digit id level in
    match t.slots.((level * t.params.b) + digit) with
    | Some { node; _ } when Id.equal node id -> acc := f !acc ~level ~digit
    | Some _ | None -> ()
  done;
  !acc

let filled_count t = t.filled

let known_nodes t =
  fold t ~init:Id.Set.empty ~f:(fun acc ~level:_ ~digit:_ node _ -> Id.Set.add node acc)

let backup_capacity t = t.backup_capacity

let add_backup t ~level ~digit id =
  let i = index t ~level ~digit in
  let is_primary =
    match t.slots.(i) with Some { node; _ } -> Id.equal node id | None -> false
  in
  if
    Id.equal id t.owner || is_primary
    || List.exists (Id.equal id) t.backup.(i)
    || (not (carries t ~level ~digit id))
    || List.length t.backup.(i) >= t.backup_capacity
  then false
  else begin
    t.backup.(i) <- id :: t.backup.(i);
    true
  end

let backups t ~level ~digit = t.backup.(index t ~level ~digit)

let remove_backup t id =
  let is_id = Id.equal id in
  for level = 0 to top_level t id do
    let i = (level * t.params.b) + Id.digit id level in
    let l = t.backup.(i) in
    if List.exists is_id l then t.backup.(i) <- List.filter (fun b -> not (is_id b)) l
  done

let filter_backups t ~f =
  Array.iteri (fun i l -> t.backup.(i) <- List.filter f l) t.backup

let promote_backup t ~level ~digit =
  let i = index t ~level ~digit in
  match t.backup.(i) with
  | [] -> None
  | chosen :: rest ->
    t.backup.(i) <- rest;
    set t ~level ~digit chosen S;
    Some chosen

(* A storer holds the owner at [(level, owner[level])] of its own table,
   which [set] admits only when the storer ends with the owner's [level] low
   digits. An out-of-range [level] fails the digit or array access. *)
let check_storer t ~level id =
  if not (same_digits_below id t.owner (level - 1)) then
    invalid_arg
      (Fmt.str "Table.add_reverse: storer %a lacks suffix %a of %a for level %d" Id.pp id
         Id.pp_suffix (Id.suffix t.owner level) Id.pp t.owner level)

let add_reverse t ~level id =
  check_storer t ~level id;
  t.reverse.(level) <- Id.Set.add id t.reverse.(level)

let add_reverses t ~level ids =
  List.iter (check_storer t ~level) ids;
  t.reverse.(level) <- Id.Set.union t.reverse.(level) (Id.Set.of_list ids)

let remove_reverse t id =
  for level = 0 to top_level t id do
    t.reverse.(level) <- Id.Set.remove id t.reverse.(level)
  done

let reverse_at t ~level = t.reverse.(level)

let all_reverse t = Array.fold_left Id.Set.union Id.Set.empty t.reverse

module Snapshot = struct
  type cell = { level : int; digit : int; node : Id.t; state : nstate }

  type t = { owner : Id.t; cells : cell list; count : int }

  let of_table_levels table ~lo ~hi =
    let cells = ref [] and count = ref 0 in
    iter table (fun ~level ~digit node state ->
        if level >= lo && level <= hi then begin
          cells := { level; digit; node; state } :: !cells;
          incr count
        end);
    { owner = table.owner; cells = List.rev !cells; count = !count }

  let of_table table = of_table_levels table ~lo:0 ~hi:(table.params.d - 1)

  let cell_count t = t.count

  let iter t f = List.iter f t.cells

  let find t ~level ~digit =
    List.find_opt (fun c -> c.level = level && c.digit = digit) t.cells

  let filter t ~f =
    let cells = List.filter f t.cells in
    { t with cells; count = List.length cells }
end

let pp ppf t =
  let d = t.params.d and b = t.params.b in
  let cell_width = d + 2 in
  Fmt.pf ppf "Neighbor table of node %a %a@." Id.pp t.owner Params.pp t.params;
  Fmt.pf ppf "      ";
  for level = d - 1 downto 0 do
    Fmt.pf ppf "%*s" cell_width (Printf.sprintf "lvl%d" level)
  done;
  Fmt.pf ppf "@.";
  for digit = 0 to b - 1 do
    Fmt.pf ppf "j=%-3d " digit;
    for level = d - 1 downto 0 do
      match get t ~level ~digit with
      | None -> Fmt.pf ppf "%*s" cell_width "."
      | Some (node, T) -> Fmt.pf ppf "%*s" cell_width (Id.to_string node ^ "*")
      | Some (node, S) -> Fmt.pf ppf "%*s" cell_width (Id.to_string node)
    done;
    Fmt.pf ppf "@."
  done

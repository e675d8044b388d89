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
  reverse : Id.Set.t array; (* same indexing *)
  backup : Id.t list array; (* same indexing; newest first *)
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
    reverse = Array.make size Id.Set.empty;
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
   [i <= |csuf(owner, id)|]. Each slot is read when the fold reaches it. *)
let fold_holding t id ~init ~f =
  let top = min (Id.csuf_len t.owner id) (t.params.d - 1) in
  let acc = ref init in
  for level = 0 to top do
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
  Array.iteri
    (fun i l ->
      if List.exists is_id l then t.backup.(i) <- List.filter (fun b -> not (is_id b)) l)
    t.backup

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

let add_reverse t ~level ~digit id =
  let i = index t ~level ~digit in
  t.reverse.(i) <- Id.Set.add id t.reverse.(i)

let add_reverses t ~level ~digit ids =
  let i = index t ~level ~digit in
  t.reverse.(i) <- Id.Set.union t.reverse.(i) (Id.Set.of_list ids)

(* [Id.Set.remove] returns its argument itself when [id] is absent: only the
   sets that held [id] are written. *)
let remove_reverse t id =
  Array.iteri
    (fun i set ->
      let set' = Id.Set.remove id set in
      if set' != set then t.reverse.(i) <- set')
    t.reverse

let reverse_at t ~level ~digit = t.reverse.(index t ~level ~digit)

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

  let of_cells ~owner cells = { owner; cells; count = List.length cells }

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

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params

type nstate = T | S

let nstate_equal a b = match (a, b) with T, T | S, S -> true | (T | S), _ -> false

let pp_nstate ppf = function
  | T -> Fmt.string ppf "T"
  | S -> Fmt.string ppf "S"

(* An entry's state byte: [vacant] for an empty entry, otherwise its
   occupant's believed state. *)
let vacant = '\000'

let state_byte = function T -> '\001' | S -> '\002'

(* Read only from a filled entry. *)
let state_of_byte c = if Char.equal c '\001' then T else S

type t = {
  params : Params.t;
  owner : Id.t;
  (* Both indexed by level * b + digit. An empty entry's node is the owner,
     never read: every reader tests the state byte first. *)
  nodes : Id.t array;
  states : Bytes.t;
  reverse : Id.Set.t array; (* by level: who stores the owner at (level, owner[level]) *)
  backup : Id.t list array; (* same indexing as [nodes]; newest first *)
  backup_capacity : int;
  mutable filled : int;
}

let create (params : Params.t) ~owner =
  if Id.length owner <> params.d then invalid_arg "Table.create: owner ID length mismatch";
  let size = params.d * params.b in
  {
    params;
    owner;
    nodes = Array.make size owner;
    states = Bytes.make size vacant;
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

let is_vacant t i = Char.equal (Bytes.get t.states i) vacant

let get t ~level ~digit =
  let i = index t ~level ~digit in
  let c = Bytes.get t.states i in
  if Char.equal c vacant then None else Some (t.nodes.(i), state_of_byte c)

let neighbor t ~level ~digit =
  let i = index t ~level ~digit in
  if is_vacant t i then None else Some t.nodes.(i)

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
  if is_vacant t i then t.filled <- t.filled + 1;
  t.nodes.(i) <- node;
  Bytes.set t.states i (state_byte state)

let clear t ~level ~digit =
  let i = index t ~level ~digit in
  if not (is_vacant t i) then begin
    t.filled <- t.filled - 1;
    t.nodes.(i) <- t.owner;
    Bytes.set t.states i vacant
  end

let set_state t ~level ~digit state =
  let i = index t ~level ~digit in
  if is_vacant t i then invalid_arg "Table.set_state: empty entry";
  Bytes.set t.states i (state_byte state)

let fill_self t state =
  for level = 0 to t.params.d - 1 do
    set t ~level ~digit:(Id.digit t.owner level) t.owner state
  done

let iter t f =
  let b = t.params.b in
  for level = 0 to t.params.d - 1 do
    for digit = 0 to b - 1 do
      let i = (level * b) + digit in
      let c = Bytes.get t.states i in
      if not (Char.equal c vacant) then f ~level ~digit t.nodes.(i) (state_of_byte c)
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

(* Does the filled entry [i] hold [id]? *)
let holds t i id = (not (is_vacant t i)) && Id.equal t.nodes.(i) id

(* Each entry is read when the fold reaches it. *)
let fold_holding t id ~init ~f =
  let acc = ref init in
  for level = 0 to top_level t id do
    let digit = Id.digit id level in
    if holds t ((level * t.params.b) + digit) id then acc := f !acc ~level ~digit
  done;
  !acc

let filled_count t = t.filled

let known_nodes t =
  fold t ~init:Id.Set.empty ~f:(fun acc ~level:_ ~digit:_ node _ -> Id.Set.add node acc)

let backup_capacity t = t.backup_capacity

let add_backup t ~level ~digit id =
  let i = index t ~level ~digit in
  if
    Id.equal id t.owner || holds t i id
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
  (* [nodes.(k)] is the occupant of cell [k], and [cells.(k)] packs its
     position and state as [level lsl 7 lor digit lsl 1 lor sbit], [sbit]
     being 1 for [S]. A base is at most 36, so a digit fits in six bits, and
     the cells ascend by (level, digit) in both arrays. *)
  type t = { owner : Id.t; nodes : Id.t array; cells : int array }

  let key ~level ~digit = (level lsl 6) lor digit

  let pack ~level ~digit state =
    (key ~level ~digit lsl 1) lor match state with T -> 0 | S -> 1

  let level_of c = c lsr 7
  let digit_of c = (c lsr 1) land 63
  let state_of c = if c land 1 = 0 then T else S

  let of_table_levels table ~lo ~hi =
    let b = table.params.b in
    let lo = max lo 0 and hi = min hi (table.params.d - 1) in
    let count = ref 0 in
    for i = lo * b to ((hi + 1) * b) - 1 do
      if not (is_vacant table i) then incr count
    done;
    let nodes = Array.make !count table.owner and cells = Array.make !count 0 in
    let k = ref 0 in
    for level = lo to hi do
      for digit = 0 to b - 1 do
        let i = (level * b) + digit in
        let c = Bytes.get table.states i in
        if not (Char.equal c vacant) then begin
          nodes.(!k) <- table.nodes.(i);
          cells.(!k) <- pack ~level ~digit (state_of_byte c);
          incr k
        end
      done
    done;
    { owner = table.owner; nodes; cells }

  let of_table table = of_table_levels table ~lo:0 ~hi:(table.params.d - 1)

  let owner t = t.owner

  let cell_count t = Array.length t.cells

  let iter t f =
    for k = 0 to Array.length t.cells - 1 do
      let c = t.cells.(k) in
      f ~level:(level_of c) ~digit:(digit_of c) t.nodes.(k) (state_of c)
    done

  let find t ~level ~digit =
    let want = key ~level ~digit in
    let rec search lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let c = t.cells.(mid) in
        if c lsr 1 = want then Some (t.nodes.(mid), state_of c)
        else if c lsr 1 < want then search (mid + 1) hi
        else search lo mid
      end
    in
    search 0 (Array.length t.cells)

  let filter t ~f =
    let n = Array.length t.cells in
    let kept = Array.make n 0 and count = ref 0 in
    for k = 0 to n - 1 do
      let c = t.cells.(k) in
      if f ~level:(level_of c) ~digit:(digit_of c) t.nodes.(k) (state_of c) then begin
        kept.(!count) <- k;
        incr count
      end
    done;
    if !count = n then t
    else
      {
        t with
        nodes = Array.init !count (fun j -> t.nodes.(kept.(j)));
        cells = Array.init !count (fun j -> t.cells.(kept.(j)));
      }
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

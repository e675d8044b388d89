module Id = Ntcu_id.Id
module Rng = Ntcu_std.Rng

let distinct_ids ?(suffix = [||]) ?(avoid = Id.Set.empty) rng (p : Ntcu_id.Params.t) ~n =
  if n < 0 then invalid_arg "Workload.distinct_ids: negative n";
  let free_digits = p.d - Array.length suffix in
  if free_digits < 0 then invalid_arg "Workload.distinct_ids: suffix longer than d";
  let space = float_of_int p.b ** float_of_int free_digits in
  if float_of_int (n + Id.Set.cardinal avoid) > space then
    invalid_arg "Workload.distinct_ids: population exceeds the constrained ID space";
  let seen = Id.Tbl.create (2 * n) in
  Id.Set.iter (fun id -> Id.Tbl.replace seen id ()) avoid;
  let out = ref [] in
  let produced = ref 0 in
  while !produced < n do
    let id = Id.random_with_suffix rng p suffix in
    if not (Id.Tbl.mem seen id) then begin
      Id.Tbl.add seen id ();
      out := id :: !out;
      incr produced
    end
  done;
  List.rev !out

let non_gateways ~seed seeds ~gateways k =
  let used = Id.Set.of_list gateways in
  let candidates = Array.of_list (List.filter (fun id -> not (Id.Set.mem id used)) seeds) in
  Rng.shuffle (Rng.create (seed + 5)) candidates;
  Array.to_list (Array.sub candidates 0 (min k (Array.length candidates)))

let host_distance hosts ids =
  let index = Id.Tbl.create 512 in
  List.iteri (fun i id -> Id.Tbl.replace index id i) ids;
  fun a b ->
    Ntcu_topology.Endhosts.distance hosts (Id.Tbl.find index a) (Id.Tbl.find index b)

let parse_suffix ~b s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'z' -> Char.code c - Char.code 'a' + 10
    | _ -> max_int
  in
  match Seq.find (fun c -> digit c >= b) (String.to_seq s) with
  | Some c ->
    Error (Printf.sprintf "suffix %S: %C is not a digit below %d (alphabet 0-9a-z)" s c b)
  | None ->
    let k = String.length s in
    Ok (Array.init k (fun i -> digit s.[k - 1 - i]))

let split k l =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] l

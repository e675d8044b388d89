module Id = Ntcu_id.Id

let distinct_ids ?(suffix = [||]) ?(avoid = Id.Set.empty) rng (p : Ntcu_id.Params.t) ~n =
  if n < 0 then invalid_arg "Workload.distinct_ids: negative n";
  let free_digits = p.d - Array.length suffix in
  if free_digits < 0 then invalid_arg "Workload.distinct_ids: suffix longer than d";
  let space = float_of_int p.b ** float_of_int free_digits in
  if float_of_int (n + Id.Set.cardinal avoid) > space then
    invalid_arg "Workload.distinct_ids: population exceeds the constrained ID space";
  let seen = Hashtbl.create (2 * n) in
  Id.Set.iter (fun id -> Hashtbl.replace seen (Id.to_string id) ()) avoid;
  let out = ref [] in
  let produced = ref 0 in
  while !produced < n do
    let id = Id.random_with_suffix rng p suffix in
    let key = Id.to_string id in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := id :: !out;
      incr produced
    end
  done;
  List.rev !out

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

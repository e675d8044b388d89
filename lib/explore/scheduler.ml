module Rng = Ntcu_std.Rng

type intervention = { seq : int; factor : float }

type kind =
  | Nop
  | Random_delay of { scale : float }
  | Pct of { bands : int; invert : float }
  | Targeted of { probability : float; stretch : float }
  | Fixed of intervention list

let kind_name = function
  | Nop -> "nop"
  | Random_delay _ -> "random"
  | Pct _ -> "pct"
  | Targeted _ -> "targeted"
  | Fixed _ -> "fixed"

type t = {
  kind : kind;
  rng : Rng.t;
  fixed : (int, float) Hashtbl.t; (* only for Fixed *)
  mutable recorded : intervention list; (* newest first *)
  mutable frames : int;
}

let make ~seed kind =
  let fixed = Hashtbl.create 64 in
  (match kind with
  | Fixed interventions ->
    List.iter (fun i -> Hashtbl.replace fixed i.seq i.factor) interventions
  | Nop | Random_delay _ | Pct _ | Targeted _ -> ());
  { kind; rng = Rng.create seed; fixed; recorded = []; frames = 0 }

(* The RNG draws for a frame happen unconditionally (one fixed number per
   kind), so the stream consumed from [rng] is a function of the frame
   sequence alone: a shared prefix of two runs always sees identical
   factors, even if the runs diverge later. *)
let factor_of t ~critical ~seq =
  match t.kind with
  | Nop -> 1.0
  | Fixed _ -> (
    match Hashtbl.find_opt t.fixed seq with Some f -> f | None -> 1.0)
  | Random_delay { scale } ->
    (* log-uniform in [1/scale, scale] *)
    let u = Rng.float t.rng 1.0 in
    scale ** ((2. *. u) -. 1.)
  | Pct { bands; invert } ->
    let band = Rng.int t.rng (max 1 bands) in
    let u = Rng.float t.rng 1.0 in
    if u < invert then 1. /. 16. else Float.of_int (1 lsl band)
  | Targeted { probability; stretch } ->
    let u = Rng.float t.rng 1.0 in
    let coin = Rng.bool t.rng in
    if (not critical) || u >= probability then 1.0
    else if coin then stretch
    else 1. /. stretch

let hook t ~critical ~src:_ ~dst:_ ~seq delay =
  t.frames <- t.frames + 1;
  let factor = factor_of t ~critical ~seq in
  if factor = 1.0 then delay
  else begin
    t.recorded <- { seq; factor } :: t.recorded;
    delay *. factor
  end

let recorded t = List.rev t.recorded

let frames_seen t = t.frames

let min_delay = 1e-6

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float; rng : Ntcu_std.Rng.t }
  | Distance of {
      distance : src:int -> dst:int -> float;
      jitter : float;
      rng : Ntcu_std.Rng.t;
    }

let constant delay =
  if delay <= 0. then invalid_arg "Latency.constant: delay must be positive";
  Constant delay

let uniform ~seed ~lo ~hi =
  if lo <= 0. || hi <= lo then invalid_arg "Latency.uniform: need 0 < lo < hi";
  Uniform { lo; hi; rng = Ntcu_std.Rng.create seed }

let of_distance ?(jitter = 0.) ?(seed = 0) distance =
  if jitter < 0. then invalid_arg "Latency.of_distance: negative jitter";
  Distance { distance; jitter; rng = Ntcu_std.Rng.create seed }

let sample t ~src ~dst =
  match t with
  | Constant delay -> delay
  | Uniform { lo; hi; rng } -> lo +. Ntcu_std.Rng.float rng (hi -. lo)
  | Distance { distance; jitter; rng } ->
    let base = distance ~src ~dst in
    let base = if base <= 0. then min_delay else base in
    if jitter = 0. then base else base *. (1. +. Ntcu_std.Rng.float rng jitter)

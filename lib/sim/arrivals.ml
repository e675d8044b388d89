type t = {
  engine : Engine.t;
  next : unit -> float option;
  action : now:float -> unit;
  mutable handle : Engine.handle option;
  mutable stopped : bool;
}

let rec arm t delay =
  t.handle <- Some (Engine.schedule_cancellable t.engine ~delay (fun () -> fire t))

and fire t =
  t.handle <- None;
  if not t.stopped then begin
    (* Draw the next delay before running the action: the arrival process is
       then a pure function of the sampler's RNG, whatever the action does. *)
    (match t.next () with Some delay -> arm t delay | None -> t.stopped <- true);
    t.action ~now:(Engine.now t.engine)
  end

let start engine ?first ~next action =
  let t = { engine; next; action; handle = None; stopped = false } in
  (match first with
  | Some delay -> arm t delay
  | None -> (
    match next () with Some delay -> arm t delay | None -> t.stopped <- true));
  t

let stop t =
  t.stopped <- true;
  match t.handle with
  | Some h ->
    Engine.cancel t.engine h;
    t.handle <- None
  | None -> ()

let poisson ~rate rng =
  if rate <= 0. then invalid_arg "Arrivals.poisson: rate must be positive";
  fun () ->
    (* Inverse CDF of Exp(rate); [Rng.float rng 1.] is in [0, 1), so
       [log1p (-. u)] is finite and the delay nonnegative. *)
    Some (-.Float.log1p (-.Ntcu_std.Rng.float rng 1.) /. rate)

let every period =
  if period <= 0. then invalid_arg "Arrivals.every: period must be positive";
  fun () -> Some period

let take k next =
  if k < 0 then invalid_arg "Arrivals.take: count must be nonnegative";
  let left = ref k in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      next ()
    end

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Engine = Ntcu_sim.Engine
module Transport = Ntcu_sim.Transport
module Protocol = Ntcu_protocol.Protocol

type config = {
  params : Params.t;
  naive : bool;
  succ_len : int;
  stabilize_every : float;
  rounds : int;
  fingers_per_round : int;
  join_retries : int;
}

let default_config params =
  {
    params;
    naive = false;
    succ_len = 4;
    stabilize_every = 500.;
    rounds = 16;
    fingers_per_round = 2;
    join_retries = 3;
  }

type status = Joining | Active | Dead

type cnode = {
  id : Id.t;
  key : int;
  mutable status : status;
  mutable succs : Id.t list; (* nearest first; correct mode keeps it live *)
  mutable pred : Id.t option;
  fingers : Id.t option array; (* [i] ~ successor of key + 2^i *)
  mutable next_finger : int;
  mutable gateway : Id.t option; (* join gateway, for bounded retries *)
  mutable retries_left : int;
}

type purpose = P_join | P_finger of int

type msg =
  | C_find_succ of { target : int; origin : Id.t; purpose : purpose; hops : int }
  | C_found of { owner : Id.t; purpose : purpose; hops : int }
  | C_get_state
  | C_state of { pred : Id.t option; succs : Id.t list }
  | C_notify
  | C_leave_pred of { succs : Id.t list } (* leaver -> predecessor: my list *)
  | C_leave_succ of { pred : Id.t option } (* leaver -> successor: my pred *)

let msg_label = function
  | C_find_succ { hops; _ } -> Printf.sprintf "find/%d" hops
  | C_found { hops; _ } -> Printf.sprintf "found/%d" hops
  | C_get_state -> "get_state"
  | C_state _ -> "state"
  | C_notify -> "notify"
  | C_leave_pred _ -> "leave_pred"
  | C_leave_succ _ -> "leave_succ"

(* Join lookups and notifies are where delivery order decides which candidate
   a node sees first — the frames a targeted adversary reorders. Periodic
   stabilization traffic is self-correcting and left alone, which keeps
   intervention lists sparse and shrinkable. *)
let critical_msg = function
  | C_find_succ { purpose = P_join; _ } | C_found { purpose = P_join; _ } | C_notify ->
    true
  | C_find_succ _ | C_found _ | C_get_state | C_state _ | C_leave_pred _ | C_leave_succ _
    ->
    false

type t = {
  params : Params.t;
  naive : bool;
  succ_len : int;
  stabilize_every : float;
  rounds : int;
  fingers_per_round : int;
  join_retries : int;
  space : int; (* b^d ring positions *)
  bits : int; (* finger-table size: ceil(log2 space) *)
  hop_limit : int;
  wire : (cnode, msg) Transport.t;
  mutable join_msgs : int;
  mutable maintain_msgs : int;
}

let key_space (p : Params.t) =
  let rec go i acc =
    if i = p.d then acc
    else if acc > max_int / p.b then invalid_arg "Chord: b^d does not fit an int"
    else go (i + 1) (acc * p.b)
  in
  go 0 1

let key_of (p : Params.t) id =
  let k = ref 0 in
  for i = p.d - 1 downto 0 do
    k := (!k * p.b) + Id.digit id i
  done;
  !k

let label ~src ~dst msg = Fmt.str "%a>%a %s" Id.pp src Id.pp dst (msg_label msg)

let create ?latency ?record_trace (cfg : config) =
  let space = key_space cfg.params in
  let bits =
    let rec go b = if 1 lsl b >= space then b else go (b + 1) in
    go 1
  in
  {
    params = cfg.params;
    naive = cfg.naive;
    succ_len = (if cfg.naive then 1 else max 1 cfg.succ_len);
    stabilize_every = cfg.stabilize_every;
    rounds = cfg.rounds;
    fingers_per_round = cfg.fingers_per_round;
    join_retries = cfg.join_retries;
    space;
    bits;
    hop_limit = 8 * bits;
    wire = Transport.create ?latency ?record_trace ~label ();
    join_msgs = 0;
    maintain_msgs = 0;
  }

let engine t = Transport.engine t.wire
let trace t = Transport.trace t.wire
let set_delay_hook t hook = Transport.set_hook t.wire hook

let find t id =
  match Transport.find t.wire id with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Chord: unknown node %a" Id.pp id)

let key t id = (find t id).key

let alive t id =
  match Transport.find t.wire id with
  | Some n -> ( match n.status with Dead -> false | Joining | Active -> true)
  | None -> false

let is_active u = match u.status with Active -> true | Joining | Dead -> false

(* Ring intervals over keys in [0, space). [a = b] denotes the full circle
   (single-member ring), matching the usual Chord convention. *)
let between k a b = if a < b then a < k && k < b else if a > b then k > a || k < b else k <> a

let in_half_open k a b =
  if a < b then a < k && k <= b else if a > b then k > a || k <= b else true

(* First successor the node will actually use: the live head in correct mode;
   the raw head — dead or not — in naive mode (no liveness checking is one of
   the classic bugs). *)
let first_succ t u =
  if t.naive then (match u.succs with s :: _ -> Some s | [] -> None)
  else List.find_opt (fun s -> alive t s) u.succs

let register t node = Transport.register t.wire node.id node

(* [u]'s successor list from candidates in ring order: the first [succ_len]
   that are alive, not [u] itself and not repeats. *)
let successor_list t u candidates =
  let rec take seen n = function
    | [] -> []
    | _ when n >= t.succ_len -> []
    | x :: rest ->
      if alive t x && (not (Id.equal x u.id)) && not (Id.Set.mem x seen) then
        x :: take (Id.Set.add x seen) (n + 1) rest
      else take seen n rest
  in
  take Id.Set.empty 0 candidates

let make_node t ~status id =
  {
    id;
    key = key_of t.params id;
    status;
    succs = [];
    pred = None;
    fingers = Array.make t.bits None;
    next_finger = 0;
    gateway = None;
    retries_left = 0;
  }

let count_msg t msg =
  match msg with
  | C_find_succ { purpose = P_join; _ } | C_found { purpose = P_join; _ } ->
    t.join_msgs <- t.join_msgs + 1
  | C_find_succ _ | C_found _ | C_get_state | C_state _ | C_notify | C_leave_pred _
  | C_leave_succ _ ->
    t.maintain_msgs <- t.maintain_msgs + 1

let rec send t ~src ~dst msg =
  count_msg t msg;
  Transport.send t.wire ~critical:(critical_msg msg) ~src ~dst (fun () ->
      deliver t ~src ~dst msg)

(* Every arrival counts, dead receivers included: the frame reached the
   wire's end even though a fail-stop node ignores it. *)
and deliver t ~src ~dst msg =
  Transport.arrive t.wire ~src ~dst msg;
  let v = find t dst in
  match v.status with
  | Dead -> () (* fail-stop: inbound frames vanish *)
  | Joining | Active -> (
    match msg with
    | C_find_succ { target; origin; purpose; hops } ->
      if is_active v then handle_find_succ t v ~target ~origin ~purpose ~hops
    | C_found { owner; purpose; hops } -> handle_found t v ~owner ~purpose ~hops
    | C_get_state -> send t ~src:dst ~dst:src (C_state { pred = v.pred; succs = v.succs })
    | C_state { pred; succs } -> if is_active v then handle_state t v ~from:src ~pred ~succs
    | C_notify -> handle_notify t v ~candidate:src
    | C_leave_pred { succs } -> handle_leave_pred t v ~succs
    | C_leave_succ { pred } -> handle_leave_succ t v ~leaver:src ~pred)

(* Greedy routing: the finger (or successor) most closely preceding [target].
   Correct mode routes around dead entries; naive mode trusts its state. *)
and closest_preceding t u ~target =
  let ok id = if t.naive then Transport.mem t.wire id else alive t id in
  let rec scan i =
    if i < 0 then None
    else
      match u.fingers.(i) with
      | Some f when ok f && between (key t f) u.key target -> Some f
      | Some _ | None -> scan (i - 1)
  in
  match scan (t.bits - 1) with
  | Some f -> Some f
  | None -> (
    match first_succ t u with
    | Some s when between (key t s) u.key target -> Some s
    | Some _ | None -> None)

and handle_find_succ t v ~target ~origin ~purpose ~hops =
  if hops <= t.hop_limit then
    match first_succ t v with
    | None -> () (* no successor to answer with: the lookup is lost *)
    | Some s ->
      if in_half_open target v.key (key t s) then
        send t ~src:v.id ~dst:origin (C_found { owner = s; purpose; hops })
      else begin
        match closest_preceding t v ~target with
        | Some next when not (Id.equal next v.id) ->
          send t ~src:v.id ~dst:next
            (C_find_succ { target; origin; purpose; hops = hops + 1 })
        | Some _ | None -> (
          (* Fall through the ring when no finger precedes the target. *)
          match first_succ t v with
          | Some s when not (Id.equal s v.id) && hops < t.hop_limit ->
            send t ~src:v.id ~dst:s
              (C_find_succ { target; origin; purpose; hops = hops + 1 })
          | Some _ | None -> ())
      end

and handle_found t x ~owner ~purpose ~hops =
  ignore hops;
  match purpose with
  | P_finger i -> if is_active x then x.fingers.(i) <- Some owner
  | P_join -> (
    match x.status with
    | Active | Dead -> () (* duplicate answer after a retry: already joined *)
    | Joining ->
      x.succs <- [ owner ];
      x.status <- Active;
      x.gateway <- None;
      send t ~src:x.id ~dst:owner C_notify;
      (* Zave: a member must hold a real successor list, not a lone pointer —
         fetch the head's list right away instead of waiting a full round.
         The naive variant keeps the lone pointer (the classic join). *)
      if not t.naive then send t ~src:x.id ~dst:owner C_get_state)

and handle_state t u ~from ~pred ~succs =
  let vkey = key t from in
  (if t.naive then begin
     (* Classic stabilize: adopt the successor's predecessor when it sits in
        the interval — no liveness check, single-pointer "list". *)
     match pred with
     | Some w when between (key t w) u.key vkey -> u.succs <- [ w ]
     | Some _ | None -> ()
   end
   else begin
     let adopted =
       match pred with
       | Some w when between (key t w) u.key vkey && alive t w -> [ w ]
       | Some _ | None -> []
     in
     (* Refresh the successor list through the live head. *)
     u.succs <- successor_list t u (adopted @ (from :: succs))
   end);
  match first_succ t u with
  | Some s when not (Id.equal s u.id) -> send t ~src:u.id ~dst:s C_notify
  | Some _ | None -> ()

and handle_notify t v ~candidate =
  if t.naive then begin
    (* Classic notify: in-interval check only — a dead predecessor is never
       evicted, so its poison is permanent. *)
    match v.pred with
    | None -> v.pred <- Some candidate
    | Some w ->
      if between (key t candidate) (key t w) v.key then v.pred <- Some candidate
  end
  else if alive t candidate then begin
    (* Rectify: replace a missing, dead or out-of-interval predecessor. *)
    match v.pred with
    | None -> v.pred <- Some candidate
    | Some w ->
      if (not (alive t w)) || between (key t candidate) (key t w) v.key then
        v.pred <- Some candidate
  end

(* [leave] marks the leaver dead right after sending, so [alive] already
   drops it from the merged list. *)
and handle_leave_pred t p ~succs =
  if is_active p then p.succs <- successor_list t p (p.succs @ succs)

and handle_leave_succ t s ~leaver ~pred =
  match s.pred with
  | Some w when Id.equal w leaver -> (
    match pred with Some p when alive t p -> s.pred <- Some p | Some _ | None -> s.pred <- None)
  | Some _ | None -> ()

(* ---- periodic maintenance (bounded rounds) ---- *)

let stabilize t u =
  (if not t.naive then begin
     u.succs <- List.filter (alive t) u.succs;
     match (u.succs, u.pred) with
     | [], Some p when alive t p ->
       (* Emergency fallback: a fully dead list walks back through pred. *)
       u.succs <- [ p ]
     | _, _ -> ()
   end);
  match u.succs with
  | [] -> ()
  | s :: _ -> if not (Id.equal s u.id) then send t ~src:u.id ~dst:s C_get_state

let fix_fingers t u =
  for _ = 1 to t.fingers_per_round do
    let i = u.next_finger in
    u.next_finger <- (i + 1) mod t.bits;
    let target = (u.key + (1 lsl i)) mod t.space in
    handle_find_succ t u ~target ~origin:u.id ~purpose:(P_finger i) ~hops:0
  done

let schedule_rounds t u ~from =
  (* Deterministic per-node phase: registration order staggers rounds so the
     population does not stabilize in lockstep. *)
  let phase = float_of_int (Transport.host t.wire u.id) *. 1e-3 in
  for r = 1 to t.rounds do
    Engine.schedule_at (engine t)
      ~time:(from +. (float_of_int r *. t.stabilize_every) +. phase)
      (fun () ->
        if is_active u then begin
          stabilize t u;
          fix_fingers t u
        end)
  done

(* ---- workload entry points ---- *)

let sorted_by_key nodes = List.sort (fun a b -> compare a.key b.key) nodes

let seed_ring t ids =
  if List.is_empty ids then invalid_arg "Chord.seed_ring: empty member list";
  List.iter (fun id -> register t (make_node t ~status:Active id)) ids;
  let ring = Array.of_list (sorted_by_key (List.map (find t) ids)) in
  let n = Array.length ring in
  let succ_of_key k =
    (* First member at or clockwise after ring position [k]. *)
    let rec bsearch lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if ring.(mid).key < k then bsearch (mid + 1) hi else bsearch lo mid
    in
    let i = bsearch 0 n in
    ring.(i mod n)
  in
  Array.iteri
    (fun i u ->
      let succs = ref [] in
      for j = min (t.succ_len) (n - 1) downto 1 do
        succs := ring.((i + j) mod n).id :: !succs
      done;
      u.succs <- !succs;
      u.pred <- (if n > 1 then Some ring.((i + n - 1) mod n).id else None);
      for b = 0 to t.bits - 1 do
        let target = (u.key + (1 lsl b)) mod t.space in
        u.fingers.(b) <- Some (succ_of_key target).id
      done)
    ring;
  Array.iter (fun u -> schedule_rounds t u ~from:(Engine.now (engine t))) ring

let start_join t ?at ~id ~gateway () =
  let u = make_node t ~status:Joining id in
  register t u;
  ignore (find t gateway);
  u.gateway <- Some gateway;
  u.retries_left <- t.join_retries;
  let time = match at with Some time -> time | None -> Engine.now (engine t) in
  let ask () =
    if (match u.status with Joining -> true | Active | Dead -> false) then
      match u.gateway with
      | Some gw when alive t gw ->
        send t ~src:u.id ~dst:gw
          (C_find_succ { target = u.key; origin = u.id; purpose = P_join; hops = 0 })
      | Some _ | None -> ()
  in
  Engine.schedule_at (engine t) ~time ask;
  for r = 1 to t.join_retries do
    Engine.schedule_at (engine t) ~time:(time +. (float_of_int r *. t.stabilize_every))
      (fun () ->
        if
          (match u.status with Joining -> true | Active | Dead -> false)
          && u.retries_left > 0
        then begin
          u.retries_left <- u.retries_left - 1;
          ask ()
        end)
  done;
  schedule_rounds t u ~from:time

let leave t ?at id =
  let u = find t id in
  let time = match at with Some time -> time | None -> Engine.now (engine t) in
  Engine.schedule_at (engine t) ~time (fun () ->
      if is_active u then begin
        (if not t.naive then begin
           (match u.pred with
           | Some p when alive t p && not (Id.equal p u.id) ->
             send t ~src:u.id ~dst:p (C_leave_pred { succs = u.succs })
           | Some _ | None -> ());
           match first_succ t u with
           | Some s when not (Id.equal s u.id) ->
             send t ~src:u.id ~dst:s (C_leave_succ { pred = u.pred })
           | Some _ | None -> ()
         end);
        u.status <- Dead
      end
      else u.status <- Dead)

let crash t id = (find t id).status <- Dead

let run ?max_events t = Engine.run ?max_events (engine t)

(* ---- end-state queries ---- *)

let all_nodes t = List.map (find t) (Transport.ids t.wire)

let live_nodes t =
  List.filter (fun u -> match u.status with Dead -> false | _ -> true) (all_nodes t)

let actives t = sorted_by_key (List.filter is_active (live_nodes t))

let members t =
  List.sort Id.compare (List.map (fun u -> u.id) (actives t))

let is_member t id =
  match Transport.find t.wire id with Some u -> is_active u | None -> false

(* The live head of a node's successor list — monitor-side semantics, the
   same in both modes (monitors judge the state, not the protocol). *)
let first_live_succ t u = List.find_opt (alive t) u.succs

let ring_next ring i = ring.((i + 1) mod Array.length ring)

let ring_ok t =
  let ring = Array.of_list (actives t) in
  let n = Array.length ring in
  n = 0
  || (n = 1 && (match first_live_succ t ring.(0) with None -> true | Some s -> Id.equal s ring.(0).id))
  || begin
    let ok = ref (n > 1) in
    Array.iteri
      (fun i u ->
        match first_live_succ t u with
        | Some s when Id.equal s (ring_next ring i).id -> ()
        | Some _ | None -> ok := false)
      ring;
    !ok
  end

let ring_consistent = ring_ok

let check t =
  let violations = ref [] in
  let add name detail = violations := { Protocol.name; detail } :: !violations in
  (* chord-liveness: every live node finished joining. *)
  (match List.filter (fun u -> match u.status with Joining -> true | _ -> false) (live_nodes t) with
  | [] -> ()
  | stuck ->
    add "chord-liveness"
      (Fmt.str "%d joiner(s) never became members (first: %a)" (List.length stuck) Id.pp
         (List.hd stuck).id));
  let ring = Array.of_list (actives t) in
  let n = Array.length ring in
  if n > 0 then begin
    (* chord-ring: first live successor is the clockwise neighbor. *)
    (let offender = ref None in
     Array.iteri
       (fun i u ->
         if Option.is_none !offender then
           let expect = if n = 1 then u.id else (ring_next ring i).id in
           match first_live_succ t u with
           | None -> offender := Some (u, None, expect)
           | Some s when n = 1 && Id.equal s u.id -> ()
           | Some s when n > 1 && Id.equal s expect -> ()
           | Some s -> offender := Some (u, Some s, expect))
       ring;
     match !offender with
     | None -> ()
     | Some (u, None, _) ->
       add "chord-ring" (Fmt.str "%a has no live successor" Id.pp u.id)
     | Some (u, Some s, expect) ->
       add "chord-ring"
         (Fmt.str "%a's first live successor is %a, expected %a" Id.pp u.id Id.pp s Id.pp
            expect));
    (* chord-succlist: live entries duplicate-free, self-free, ring-ordered. *)
    (let offender = ref None in
     Array.iter
       (fun u ->
         if Option.is_none !offender then begin
           let live = List.filter (alive t) u.succs in
           let dist x = (key t x - u.key + t.space) mod t.space in
           let rec ordered last = function
             | [] -> true
             | x :: rest ->
               let dx = dist x in
               dx > last && ordered dx rest
           in
           if List.exists (Id.equal u.id) live then
             offender := Some (u, "contains itself")
           else if not (ordered 0 live) then
             offender := Some (u, "entries out of ring order or duplicated")
         end)
       ring;
     match !offender with
     | None -> ()
     | Some (u, why) -> add "chord-succlist" (Fmt.str "%a's successor list %s" Id.pp u.id why));
    (* chord-appendage: one cycle covering all members, reachable from every
       live node's successor chain. *)
    (let cycle = ref Id.Set.empty in
     let rec walk u steps =
       if steps > n then ()
       else if Id.Set.mem u.id !cycle then ()
       else begin
         cycle := Id.Set.add u.id !cycle;
         match first_live_succ t u with
         | Some s when is_member t s -> walk (find t s) (steps + 1)
         | Some _ | None -> ()
       end
     in
     walk ring.(0) 0;
     if Id.Set.cardinal !cycle <> n then
       add "chord-appendage"
         (Fmt.str "successor cycle covers %d of %d members" (Id.Set.cardinal !cycle) n)
     else begin
       let live = live_nodes t in
       let stranded =
         List.find_opt
           (fun u ->
             let rec reaches u steps =
               steps <= n + 1
               && (Id.Set.mem u.id !cycle
                  ||
                  match first_live_succ t u with
                  | Some s -> reaches (find t s) (steps + 1)
                  | None -> false)
             in
             not (reaches u 0))
           live
       in
       match stranded with
       | None -> ()
       | Some u ->
         add "chord-appendage"
           (Fmt.str "%a's successor chain never reaches the ring" Id.pp u.id)
     end);
    (* chord-pred: predecessors live and exact. *)
    if n > 1 then begin
      let offender = ref None in
      Array.iteri
        (fun i u ->
          if Option.is_none !offender then
            let expect = ring.((i + n - 1) mod n).id in
            match u.pred with
            | None -> offender := Some (u, "none", expect)
            | Some p when not (alive t p) -> offender := Some (u, Fmt.str "dead %a" Id.pp p, expect)
            | Some p when not (Id.equal p expect) ->
              offender := Some (u, Fmt.str "%a" Id.pp p, expect)
            | Some _ -> ())
        ring;
      match !offender with
      | None -> ()
      | Some (u, got, expect) ->
        add "chord-pred"
          (Fmt.str "%a's predecessor is %s, expected %a" Id.pp u.id got Id.pp expect)
    end
  end;
  List.rev !violations

let lookup t ~src ~target =
  let u = find t src and tgt = find t target in
  if not (is_active u) then None
  else if Id.equal src target then Some [ src ]
  else begin
    let rec walk v path steps =
      if steps > t.hop_limit then None
      else
        match List.find_opt (alive t) v.succs with
        | None -> None
        | Some s ->
          if in_half_open tgt.key v.key (key t s) then
            if Id.equal s target then Some (List.rev (target :: path)) else None
          else begin
            let next =
              match closest_preceding t v ~target:tgt.key with
              | Some f when alive t f -> Some f
              | Some _ | None -> if alive t s then Some s else None
            in
            match next with
            | Some w when not (Id.equal w v.id) ->
              walk (find t w) (w :: path) (steps + 1)
            | Some _ | None -> None
          end
    in
    walk u [ src ] 0
  end

let messages_delivered t = Transport.delivered t.wire

let traffic t =
  {
    Protocol.join = t.join_msgs;
    maintain = t.maintain_msgs;
    total = t.join_msgs + t.maintain_msgs;
  }

let protocol ?(naive = false) () : (module Protocol.S) =
  (module struct
    let name = if naive then "chord-naive" else "chord"
    let supports_leave = true

    type nonrec t = t

    let create ?latency ?record_trace (cfg : Protocol.config) =
      create ?latency ?record_trace
        ({
           (default_config cfg.params) with
           naive;
           stabilize_every = cfg.maintain_every;
           rounds = cfg.rounds;
         }
          : config)

    let engine = engine
    let trace = trace
    let set_delay_hook = set_delay_hook

    let seed_network t ~seed ids =
      ignore seed;
      seed_ring t ids

    let start_join t ~at ~id ~gateway = start_join t ~at ~id ~gateway ()
    let leave t ~at id = leave t ~at id
    let run = run
    let members = members
    let in_system = is_member
    let consistent = ring_consistent
    let check = check
    let lookup = lookup
    let traffic = traffic
  end)

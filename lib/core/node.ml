module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Snapshot = Table.Snapshot

type status = Copying | Waiting | Notifying | In_system

let status_equal a b =
  match (a, b) with
  | Copying, Copying | Waiting, Waiting | Notifying, Notifying | In_system, In_system ->
    true
  | (Copying | Waiting | Notifying | In_system), _ -> false

type config = { params : Ntcu_id.Params.t; size_mode : Message.size_mode }

type action = { dst : Id.t; msg : Message.t }

(* Test-only protocol mutations for the schedule-exploration harness: each
   reintroduces a plausible ordering bug (the kind Figure 13's careful
   bookkeeping exists to prevent) whose trigger window only opens under
   particular message interleavings. Production paths never set these. *)
type fault =
  | Drop_queued_join_waits
      (* Switch_To_S_Node forgets Q_j: JoinWaitMsgs that arrived while the
         node was still joining are silently discarded instead of answered. *)
  | Forget_negative_forward
      (* A waiting node that receives a negative JoinWaitRlyMsg does not
         forward its JoinWaitMsg to the named occupant — it just keeps
         waiting. Only dependent joins racing for one entry open the
         window. *)

let fault_equal a b =
  match (a, b) with
  | Drop_queued_join_waits, Drop_queued_join_waits
  | Forget_negative_forward, Forget_negative_forward ->
    true
  | (Drop_queued_join_waits | Forget_negative_forward), _ -> false

type t = {
  config : config;
  id : Id.t;
  table : Table.t;
  stats : Stats.t;
  joiner : bool;
  mutable status : status;
  mutable noti_level : int;
  mutable q_r : Id.Set.t; (* nodes whose reply we await *)
  mutable q_n : Id.Set.t; (* nodes we have notified *)
  mutable q_j : Id.t list; (* deferred JoinWaitMsg senders, FIFO *)
  mutable q_sr : Id.Set.t; (* SpeNoti subjects whose reply we await *)
  mutable q_sn : Id.Set.t; (* SpeNoti subjects already handled *)
  mutable suspects : Id.Set.t; (* peers presumed crashed (retry budget spent) *)
  mutable spe_pending : (Id.t * Id.t) list; (* (first-hop target, subject) *)
  (* Copying-phase cursor (Figure 5's i, p, g). *)
  mutable copy_level : int;
  mutable copy_from : Id.t option; (* the node whose table we are copying *)
  mutable t_begin : float option;
  mutable t_end : float option;
  mutable fault : fault option; (* injected bug, exploration tests only *)
}

let make config id ~joiner ~status =
  {
    config;
    id;
    table = Table.create config.params ~owner:id;
    stats = Stats.create ();
    joiner;
    status;
    noti_level = 0;
    q_r = Id.Set.empty;
    q_n = Id.Set.empty;
    q_j = [];
    q_sr = Id.Set.empty;
    q_sn = Id.Set.empty;
    suspects = Id.Set.empty;
    spe_pending = [];
    copy_level = 0;
    copy_from = None;
    t_begin = None;
    t_end = None;
    fault = None;
  }

let create_seed config id =
  let t = make config id ~joiner:false ~status:In_system in
  Table.fill_self t.table S;
  t

let create_joiner config id = make config id ~joiner:true ~status:Copying

let id t = t.id
let status t = t.status
let table t = t.table
let stats t = t.stats
let noti_level t = t.noti_level
let is_joiner t = t.joiner
let t_begin t = t.t_begin
let t_end t = t.t_end
let pending_replies t = Id.Set.cardinal t.q_r + Id.Set.cardinal t.q_sr
let queued_join_waits t = List.length t.q_j
let set_fault t f = t.fault <- f
let has_fault t f = match t.fault with Some g -> fault_equal g f | None -> false

let digit_of _t other level = Id.digit other level

let csuf t other = Id.csuf_len t.id other

(* Write [node] into the (level, digit)-entry and emit the RvNghNotiMsg that
   the paper's pseudo-code elides ("when any node x sets Nx(i,j) = y, y <> x,
   x needs to send a RvNghNotiMsg"). *)
let set_entry t ~level ~digit node state acts =
  Table.set t.table ~level ~digit node state;
  if Id.equal node t.id then acts
  else { dst = node; msg = Message.Rv_ngh_noti { level; digit; recorded = state } } :: acts

(* ---- Snapshot construction per the configured size mode (Section 6.2) ---- *)

let snap_full t = Snapshot.of_table t.table

let snap_cp_rly t ~level =
  match t.config.size_mode with
  | Message.Full -> snap_full t
  | Message.Level_range | Message.Bit_vector ->
    (* The joining node copies only the requested level, so that is all we
       send. Safe: Figure 5 reads nothing else from the reply. *)
    Snapshot.of_table_levels t.table ~lo:level ~hi:level

let snap_join_noti t ~recipient =
  match t.config.size_mode with
  | Message.Full -> snap_full t
  | Message.Level_range | Message.Bit_vector ->
    (* "Only including level-i, i = x.noti_level, to level-k,
       k = |csuf(x.ID, y.ID)|, is enough." *)
    Snapshot.of_table_levels t.table ~lo:t.noti_level ~hi:(csuf t recipient)

(* One flag per table position, at [level * b + digit]: '1' where the entry
   is filled. *)
let filled_flags t =
  let b = t.config.params.b in
  let flags = Bytes.make (t.config.params.d * b) '0' in
  Table.iter t.table (fun ~level ~digit _ _ -> Bytes.set flags ((level * b) + digit) '1');
  Bytes.unsafe_to_string flags

let snap_join_noti_rly t ~sender_noti_level ~sender_filled =
  match (t.config.size_mode, sender_filled) with
  | (Message.Full | Message.Level_range), _ | Message.Bit_vector, None -> snap_full t
  | Message.Bit_vector, Some filled ->
    (* The reply omits low-level entries the sender already has: include
       level >= the sender's noti_level, or positions marked '0' in its bit
       vector. *)
    let b = t.config.params.b in
    Snapshot.filter (snap_full t) ~f:(fun ~level ~digit _ _ ->
        level >= sender_noti_level || Char.equal filled.[(level * b) + digit] '0')

let join_noti_msg t ~recipient =
  let filled =
    match t.config.size_mode with
    | Message.Full | Message.Level_range -> None
    | Message.Bit_vector -> Some (filled_flags t)
  in
  Message.Join_noti
    { table = snap_join_noti t ~recipient; noti_level = t.noti_level; filled }

(* ---- Switch_To_S_Node (Figure 13) ---- *)

let switch_to_s_node t ~now acts =
  assert (status_equal t.status Notifying || status_equal t.status Waiting);
  t.status <- In_system;
  t.t_end <- Some now;
  let p = t.config.params in
  for level = 0 to p.d - 1 do
    Table.set_state t.table ~level ~digit:(Id.digit t.id level) S
  done;
  let acts =
    Id.Set.fold
      (fun v acc ->
        if Id.equal v t.id then acc else { dst = v; msg = Message.In_sys_noti } :: acc)
      (Table.all_reverse t.table) acts
  in
  let acts =
    if has_fault t Drop_queued_join_waits then acts
    else
    List.fold_left
      (fun acc u ->
        let k = csuf t u in
        match Table.neighbor t.table ~level:k ~digit:(digit_of t u k) with
        | None ->
          let acc = set_entry t ~level:k ~digit:(digit_of t u k) u T acc in
          {
            dst = u;
            msg =
              Message.Join_wait_rly
                { sign = Positive; occupant = u; table = snap_full t };
          }
          :: acc
        | Some occupant when Id.equal occupant u ->
          (* The entry already holds u (filled via another path while we were
             still joining): u is stored, so the reply is positive. Figure 13
             would send a negative reply naming u itself, which would make u
             forward a JoinWaitMsg to itself. *)
          {
            dst = u;
            msg =
              Message.Join_wait_rly
                { sign = Positive; occupant = u; table = snap_full t };
          }
          :: acc
        | Some occupant ->
          {
            dst = u;
            msg = Message.Join_wait_rly { sign = Negative; occupant; table = snap_full t };
          }
          :: acc)
      acts (List.rev t.q_j)
  in
  t.q_j <- [];
  acts

let maybe_switch t ~now acts =
  if status_equal t.status Notifying && Id.Set.is_empty t.q_r && Id.Set.is_empty t.q_sr then
    switch_to_s_node t ~now acts
  else acts

(* ---- Check_Ngh_Table (Figure 8) ---- *)

let check_ngh_table t snapshot acts =
  let acts = ref acts in
  Snapshot.iter snapshot (fun ~level:_ ~digit:_ u state ->
      (* Skip suspects: stale snapshots keep circulating after a crash, and
         re-adding a dead node would just restart the suspicion cycle. *)
      if not (Id.equal u t.id) && not (Id.Set.mem u t.suspects) then begin
        let k = csuf t u in
        let j = digit_of t u k in
        (match Table.neighbor t.table ~level:k ~digit:j with
        | None -> acts := set_entry t ~level:k ~digit:j u state !acts
        | Some _ ->
          (* Entry taken: keep the extra suffix-holder as a backup neighbor
             for fault-tolerant routing (Section 2.1). *)
          ignore (Table.add_backup t.table ~level:k ~digit:j u));
        if status_equal t.status Notifying && k >= t.noti_level && not (Id.Set.mem u t.q_n)
        then begin
          acts := { dst = u; msg = join_noti_msg t ~recipient:u } :: !acts;
          t.q_n <- Id.Set.add u t.q_n;
          t.q_r <- Id.Set.add u t.q_r
        end
      end);
  !acts

(* Best alternative contact: the known node (primary or backup) sharing the
   longest common suffix with us, excluding self and suspects. Ties broken by
   Id.compare for determinism. *)
let pick_candidate t =
  let better cur cand =
    match cur with
    | None -> Some cand
    | Some best ->
      let cb = csuf t best and cc = csuf t cand in
      if cc > cb || (cc = cb && Id.compare cand best < 0) then Some cand else Some best
  in
  let consider acc u =
    if Id.equal u t.id || Id.Set.mem u t.suspects then acc else better acc u
  in
  let acc =
    Table.fold t.table ~init:None ~f:(fun acc ~level:_ ~digit:_ u _ -> consider acc u)
  in
  let p = t.config.params in
  let acc = ref acc in
  for level = 0 to p.d - 1 do
    for digit = 0 to p.b - 1 do
      List.iter (fun u -> acc := consider !acc u) (Table.backups t.table ~level ~digit)
    done
  done;
  !acc

(* The node we were waiting on is gone: ask the best remaining contact to
   store us instead. *)
let rewait t acts =
  match pick_candidate t with
  | Some target ->
    t.q_n <- Id.Set.add target t.q_n;
    t.q_r <- Id.Set.add target t.q_r;
    { dst = target; msg = Message.Join_wait } :: acts
  | None -> acts

(* ---- Action in status copying (Figure 5) ---- *)

let begin_join t ~now ~gateway =
  if (not (status_equal t.status Copying)) || Option.is_some t.t_begin then
    invalid_arg "Node.begin_join: join already started";
  if Id.equal gateway t.id then invalid_arg "Node.begin_join: gateway is the node itself";
  t.t_begin <- Some now;
  t.copy_level <- 0;
  t.copy_from <- Some gateway;
  [ { dst = gateway; msg = Message.Cp_rst { level = 0 } } ]

(* Stop copying: install self-entries, move to waiting, send the JoinWaitMsg
   (to the last copied node when no next-level node exists, or to the T-node
   that blocked the copy walk). *)
let finish_copying t ~join_wait_target acts =
  let p = t.config.params in
  for level = 0 to p.d - 1 do
    Table.set t.table ~level ~digit:(Id.digit t.id level) t.id T
  done;
  t.status <- Waiting;
  t.copy_from <- None;
  t.q_n <- Id.Set.add join_wait_target t.q_n;
  t.q_r <- Id.Set.add join_wait_target t.q_r;
  { dst = join_wait_target; msg = Message.Join_wait } :: acts

let on_cp_rly t ~src snapshot =
  if
    (not (status_equal t.status Copying))
    || (match t.copy_from with Some g -> not (Id.equal g src) | None -> true)
  then
    (* Stale: we suspected the sender and failed over to another copy source
       before this (possibly retransmitted) reply got through. *)
    []
  else begin
    let level = t.copy_level in
    (* Copy level-i neighbors of g into level-i of our table. *)
    let acts = ref [] in
    Snapshot.iter snapshot (fun ~level:l ~digit node state ->
        if l = level && (not (Id.equal node t.id)) && not (Id.Set.mem node t.suspects) then
          acts := set_entry t ~level ~digit node state !acts);
    (* g' = Np(i, x[i]); continue while it exists and is an S-node. *)
    let own_digit = Id.digit t.id level in
    match Snapshot.find snapshot ~level ~digit:own_digit with
    | Some (next, _) when Id.Set.mem next t.suspects ->
      finish_copying t ~join_wait_target:src !acts
    | Some (next, S) when not (Id.equal next t.id) ->
      t.copy_level <- level + 1;
      t.copy_from <- Some next;
      { dst = next; msg = Message.Cp_rst { level = level + 1 } } :: !acts
    | Some (next, T) when not (Id.equal next t.id) ->
      finish_copying t ~join_wait_target:next !acts
    | Some _ | None -> finish_copying t ~join_wait_target:src !acts
  end

(* ---- Action on receiving JoinWaitMsg (Figure 6) ---- *)

let on_join_wait t ~src =
  let k = csuf t src in
  let j = digit_of t src k in
  if status_equal t.status In_system then begin
    match Table.neighbor t.table ~level:k ~digit:j with
    | Some occupant when not (Id.equal occupant src) ->
      (* Refused as primary, but a valid holder of the suffix: keep it as a
         backup neighbor. *)
      ignore (Table.add_backup t.table ~level:k ~digit:j src);
      [
        {
          dst = src;
          msg = Message.Join_wait_rly { sign = Negative; occupant; table = snap_full t };
        };
      ]
    | Some _ | None ->
      let acts = set_entry t ~level:k ~digit:j src T [] in
      {
        dst = src;
        msg = Message.Join_wait_rly { sign = Positive; occupant = src; table = snap_full t };
      }
      :: acts
  end
  else begin
    if not (List.exists (Id.equal src) t.q_j) then t.q_j <- t.q_j @ [ src ];
    []
  end

(* ---- Action on receiving JoinWaitRlyMsg (Figure 7) ---- *)

let on_join_wait_rly t ~now ~src sign occupant snapshot =
  t.q_r <- Id.Set.remove src t.q_r;
  let k = csuf t src in
  (match Table.neighbor t.table ~level:k ~digit:(digit_of t src k) with
  | Some n when Id.equal n src -> Table.set_state t.table ~level:k ~digit:(digit_of t src k) S
  | Some _ | None -> ());
  let acts =
    if not (status_equal t.status Waiting) then
      (* Stale: a failover already moved us past the waiting phase; keep the
         table upkeep above but do not re-enter it. *)
      []
    else
      match sign with
    | Message.Positive ->
      t.status <- Notifying;
      t.noti_level <- k;
      Table.add_reverse t.table ~level:k src;
      []
    | Message.Negative ->
      if Id.equal occupant t.id then
        (* Defensive: a negative reply naming ourselves means we are stored;
           treat as positive (see switch_to_s_node). *)
        begin
          t.status <- Notifying;
          t.noti_level <- k;
          []
        end
      else if Id.Set.mem occupant t.suspects then
        (* The replier named an occupant we already suspect is dead (it has
           not learned yet); fail over to a live contact directly. *)
        rewait t []
      else if has_fault t Forget_negative_forward then []
      else begin
        t.q_n <- Id.Set.add occupant t.q_n;
        t.q_r <- Id.Set.add occupant t.q_r;
        [ { dst = occupant; msg = Message.Join_wait } ]
      end
  in
  let acts = check_ngh_table t snapshot acts in
  maybe_switch t ~now acts

(* ---- Action on receiving JoinNotiMsg (Figure 9) ---- *)

let on_join_noti t ~src (snapshot : Snapshot.t) =
  let k = csuf t src in
  let j = digit_of t src k in
  let acts =
    if Option.is_none (Table.neighbor t.table ~level:k ~digit:j) then
      set_entry t ~level:k ~digit:j src T []
    else []
  in
  (* f: the sender's table does not name us as its (k, y[k])-neighbor even
     though we are an S-node, so the actual occupant must be told about us. *)
  let flag =
    status_equal t.status In_system
    &&
    match Snapshot.find snapshot ~level:k ~digit:(Id.digit t.id k) with
    | Some (node, _) -> not (Id.equal node t.id)
    | None -> true
  in
  let sign =
    match Table.neighbor t.table ~level:k ~digit:j with
    | Some n when Id.equal n src -> Message.Positive
    | Some _ | None -> Message.Negative
  in
  (acts, sign, flag)

(* ---- Action on receiving JoinNotiRlyMsg (Figure 10) ---- *)

let on_join_noti_rly t ~now ~src sign snapshot flag =
  t.q_r <- Id.Set.remove src t.q_r;
  let k = csuf t src in
  if Message.sign_equal sign Message.Positive then
    Table.add_reverse t.table ~level:k src;
  let acts =
    if flag && k > t.noti_level && not (Id.Set.mem src t.q_sn) then begin
      match Table.neighbor t.table ~level:k ~digit:(digit_of t src k) with
      | Some occupant when not (Id.equal occupant src) ->
        t.q_sn <- Id.Set.add src t.q_sn;
        t.q_sr <- Id.Set.add src t.q_sr;
        t.spe_pending <- (occupant, src) :: t.spe_pending;
        [ { dst = occupant; msg = Message.Spe_noti { origin = t.id; subject = src } } ]
      | Some _ | None -> []
    end
    else []
  in
  let acts = check_ngh_table t snapshot acts in
  maybe_switch t ~now acts

(* ---- Action on receiving SpeNotiMsg (Figure 11) ---- *)

let on_spe_noti t origin subject =
  if Id.Set.mem subject t.suspects then
    (* The subject crashed: do not store it, just let the origin's wait
       drain. *)
    if Id.equal origin t.id then begin
      t.q_sr <- Id.Set.remove subject t.q_sr;
      []
    end
    else [ { dst = origin; msg = Message.Spe_noti_rly { origin; subject } } ]
  else begin
    let k = Id.csuf_len subject t.id in
    let j = Id.digit subject k in
    let acts =
      if Option.is_none (Table.neighbor t.table ~level:k ~digit:j) then
        set_entry t ~level:k ~digit:j subject S []
      else []
    in
    match Table.neighbor t.table ~level:k ~digit:j with
    | Some n when not (Id.equal n subject) ->
      { dst = n; msg = Message.Spe_noti { origin; subject } } :: acts
    | Some _ | None ->
      { dst = origin; msg = Message.Spe_noti_rly { origin; subject } } :: acts
  end

let on_spe_noti_rly t ~now subject =
  t.q_sr <- Id.Set.remove subject t.q_sr;
  t.spe_pending <- List.filter (fun (_, s) -> not (Id.equal s subject)) t.spe_pending;
  maybe_switch t ~now []

(* ---- Action on receiving InSysNotiMsg (Figure 14) ---- *)

let on_in_sys_noti t ~src =
  let k = csuf t src in
  let j = digit_of t src k in
  (match Table.neighbor t.table ~level:k ~digit:j with
  | Some n when Id.equal n src -> Table.set_state t.table ~level:k ~digit:j S
  | Some _ | None -> ());
  []

(* ---- Reverse-neighbor bookkeeping (Figure 4's RvNghNotiMsg) ---- *)

let on_rv_ngh_noti t ~src ~level ~digit recorded =
  Table.add_reverse t.table ~level src;
  let actual : Ntcu_table.Table.nstate = if status_equal t.status In_system then S else T in
  if not (Table.nstate_equal actual recorded) then
    [ { dst = src; msg = Message.Rv_ngh_noti_rly { level; digit; state = actual } } ]
  else []

let on_rv_ngh_noti_rly t ~src ~level ~digit state =
  (match Table.neighbor t.table ~level ~digit with
  | Some n when Id.equal n src -> Table.set_state t.table ~level ~digit state
  | Some _ | None -> ());
  []

(* ---- Failure suspicion (the transport's retry budget was exhausted) ---- *)

(* Remove every trace of [peer] from local state, promoting backups into the
   holes it leaves behind. *)
let scrub_peer t peer acts =
  Table.remove_backup t.table peer;
  Table.remove_reverse t.table peer;
  let holes =
    Table.fold_holding t.table peer ~init:[] ~f:(fun acc ~level ~digit ->
        (level, digit) :: acc)
  in
  let acts =
    List.fold_left
      (fun acc (level, digit) ->
        Table.clear t.table ~level ~digit;
        match Table.promote_backup t.table ~level ~digit with
        | Some promoted when not (Id.equal promoted t.id) ->
          (* Register with the promoted node as any other write would. *)
          { dst = promoted; msg = Message.Rv_ngh_noti { level; digit; recorded = S } }
          :: acc
        | Some _ | None -> acc)
      acts holes
  in
  t.q_r <- Id.Set.remove peer t.q_r;
  t.q_n <- Id.Set.remove peer t.q_n;
  t.q_sr <- Id.Set.remove peer t.q_sr;
  t.q_sn <- Id.Set.remove peer t.q_sn;
  t.q_j <- List.filter (fun u -> not (Id.equal u peer)) t.q_j;
  t.spe_pending <- List.filter (fun (_, s) -> not (Id.equal s peer)) t.spe_pending;
  acts

(* Re-route SpeNotiMsgs whose first hop was [peer]: the entry it occupied has
   just been scrubbed, so either a promoted backup takes the message or the
   hole is ours to fill with the subject directly. *)
let respe t peer acts =
  let stale, keep = List.partition (fun (tgt, _) -> Id.equal tgt peer) t.spe_pending in
  t.spe_pending <- keep;
  List.fold_left
    (fun acc (_, subject) ->
      let k = Id.csuf_len subject t.id in
      let j = Id.digit subject k in
      match Table.neighbor t.table ~level:k ~digit:j with
      | Some occupant when not (Id.equal occupant subject) ->
        t.spe_pending <- (occupant, subject) :: t.spe_pending;
        { dst = occupant; msg = Message.Spe_noti { origin = t.id; subject } } :: acc
      | Some _ ->
        (* The subject itself now holds the entry; nothing left to tell. *)
        t.q_sr <- Id.Set.remove subject t.q_sr;
        acc
      | None ->
        t.q_sr <- Id.Set.remove subject t.q_sr;
        set_entry t ~level:k ~digit:j subject S acc)
    acts stale

(* The node we were copying from died: resume the copy walk at another known
   node, re-copying from the longest level its suffix supports. *)
let recopy t peer acts =
  match t.copy_from with
  | Some g when Id.equal g peer -> (
    match pick_candidate t with
    | Some next ->
      let level = min t.copy_level (csuf t next) in
      t.copy_level <- level;
      t.copy_from <- Some next;
      { dst = next; msg = Message.Cp_rst { level } } :: acts
    | None ->
      (* No live contact known — with the gateway gone before any reply, the
         paper's assumption (ii) is genuinely unsatisfiable. *)
      acts)
  | Some _ | None -> acts

let on_suspect t ~now ~peer ~failed =
  let first = not (Id.Set.mem peer t.suspects) in
  let waiting_on = Id.Set.mem peer t.q_r in
  t.suspects <- Id.Set.add peer t.suspects;
  let acts = if first then respe t peer (scrub_peer t peer []) else [] in
  let acts =
    if first then
      match t.status with
      | Copying -> recopy t peer acts
      | Waiting when waiting_on -> rewait t acts
      | Waiting | Notifying | In_system -> acts
    else acts
  in
  (* A SpeNotiMsg we were forwarding on behalf of another node must still
     reach a holder of the subject's suffix (or be answered ourselves). *)
  let acts =
    match failed with
    | Some (Message.Spe_noti { origin; subject }) when not (Id.equal origin t.id) ->
      on_spe_noti t origin subject @ acts
    | Some _ | None -> acts
  in
  maybe_switch t ~now acts

let handle t ~now ~src msg =
  match msg with
  | Message.Cp_rst { level } ->
    [ { dst = src; msg = Message.Cp_rly { table = snap_cp_rly t ~level } } ]
  | Message.Cp_rly { table } -> on_cp_rly t ~src table
  | Message.Join_wait -> on_join_wait t ~src
  | Message.Join_wait_rly { sign; occupant; table } ->
    on_join_wait_rly t ~now ~src sign occupant table
  | Message.Join_noti { table; noti_level; filled } ->
    let acts, sign, flag = on_join_noti t ~src table in
    let reply =
      {
        dst = src;
        msg =
          Message.Join_noti_rly
            {
              sign;
              table = snap_join_noti_rly t ~sender_noti_level:noti_level ~sender_filled:filled;
              flag;
            };
      }
    in
    let acts = reply :: acts in
    check_ngh_table t table acts
  | Message.Join_noti_rly { sign; table; flag } ->
    on_join_noti_rly t ~now ~src sign table flag
  | Message.In_sys_noti -> on_in_sys_noti t ~src
  | Message.Spe_noti { origin; subject } -> on_spe_noti t origin subject
  | Message.Spe_noti_rly { origin = _; subject } -> on_spe_noti_rly t ~now subject
  | Message.Rv_ngh_noti { level; digit; recorded } ->
    on_rv_ngh_noti t ~src ~level ~digit recorded
  | Message.Rv_ngh_noti_rly { level; digit; state } ->
    on_rv_ngh_noti_rly t ~src ~level ~digit state

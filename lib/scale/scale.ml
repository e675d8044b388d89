module Packed = Ntcu_id.Packed
module Rng = Ntcu_std.Rng
module Parallel = Ntcu_std.Parallel
module Itbl = Hashtbl.Make (Int)

(* Sharded epoch engine.

   Nodes are partitioned over [shards] arenas by the low bits of their packed
   id, and time advances in integer epochs. Each shard keeps a ring of
   [max_latency + 1] frame buffers: slot [e mod depth] holds the frames due at
   epoch [e]. Processing a frame may emit new frames — intra-shard emissions
   go straight into a future ring slot, cross-shard ones into a per-destination
   outbox that is wire-encoded at the end of the shard's turn and moved to the
   destination's pending queue at the epoch barrier (in ascending source-shard
   order, so delivery order is a function of the configuration alone).

   Latency is [1 + hash (src, dst) mod max_latency]: pure, so replaying the
   run — serially or with any worker count — reproduces every delivery. *)

type config = {
  params : Ntcu_id.Params.t;
  n : int;
  seeds : int;
  seed : int;
  shards : int;
  inject_per_epoch : int;
  max_epochs : int;
}

type summary = {
  population : int;
  seed_count : int;
  shard_count : int;
  epochs : int;
  injected : int;
  events : int;
  kind_counts : (string * int) list;
  cross_batches : int;
  cross_bytes : int;
  redirects : int;
  deferrals : int;
  stuck : int;
  stabilize_fills : int;
  violations : int;
  store_words : int;
  shard_events : int array;
}

let ring_depth = Wire.max_latency + 1

type shard = {
  store : Node_store.t;
  ring : Intbuf.t array; (* ring_depth slots of due frames *)
  ring_frames : int array; (* frame count per slot, for quiescence *)
  pending : (int * string) Queue.t; (* (send epoch, batch bytes) *)
  outbox : Intbuf.t array; (* per destination shard, this epoch *)
  outbuf : Buffer.t array; (* wire image of [outbox], moved at barrier *)
  (* per-slot protocol bookkeeping, grown alongside the store *)
  mutable copy_level : int array;
  mutable noti_pending : int array;
  mutable gateway : int array;
  (* counters *)
  mutable events : int;
  kinds : int array;
  mutable switched : int;
  mutable redirects : int;
  mutable deferrals : int;
  mutable ehdr : int; (* header index of the frame being emitted *)
  (* scratch reused across deliveries *)
  scratch_seen : (int, unit) Hashtbl.t;
  scratch : Intbuf.t;
}

type t = {
  cfg : config;
  ctx : Wire.ctx;
  lay : Packed.layout;
  d : int;
  b : int;
  bits : int;
  dmask : int;
  smask : int;
  shards : shard array;
  seeds_arr : int array;
  joiners : int array;
  mutable next_join : int;
  mutable injected : int;
  mutable cross_batches : int;
  mutable cross_bytes : int;
}

(* ---- deterministic mixing ---- *)

let mix2 a b =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca6b) in
  let h = h lxor (h lsr 16) in
  let h = h * 0xc2b2ae35 in
  (h lxor (h lsr 13)) land max_int

let latency src dst = 1 + (mix2 src dst mod Wire.max_latency)
let gateway_pick x n = mix2 x 0x27d4eb2f mod n

(* ---- frame emission ---- *)

(* Begin a frame from [src] (a node of shard [si]) to [dst]. Returns the
   buffer to push payload ints into and remembers the header index for
   {!emit_end}, so a frame allocates nothing; frames are emitted one at a
   time. The two in-memory layouts (ring vs outbox, see {!Wire}) share the
   nargs formula [len - hdr - 4]. *)
let emit_begin t sh si ~epoch ~kind ~src ~dst =
  let dshard = dst land t.smask in
  if dshard = si then begin
    let slot = (epoch + latency src dst) mod ring_depth in
    let buf = sh.ring.(slot) in
    sh.ehdr <- Intbuf.length buf;
    Intbuf.push buf 0;
    Intbuf.push3 buf kind src dst;
    sh.ring_frames.(slot) <- sh.ring_frames.(slot) + 1;
    buf
  end
  else begin
    let buf = sh.outbox.(dshard) in
    sh.ehdr <- Intbuf.length buf;
    Intbuf.push buf 0;
    Intbuf.push3 buf kind src dst;
    Intbuf.push buf (latency src dst);
    buf
  end

let emit_end sh buf = Intbuf.set buf sh.ehdr (Intbuf.length buf - sh.ehdr - 4)

let emit0 t sh si ~epoch ~kind ~src ~dst =
  emit_end sh (emit_begin t sh si ~epoch ~kind ~src ~dst)

let cell_pos t level digit = (level * t.b) + digit
let csuf t x y = Packed.csuf_len t.lay (Packed.unsafe_of_int x) (Packed.unsafe_of_int y)
let pdigit t x i = Packed.digit t.lay (Packed.unsafe_of_int x) i

(* ---- cell installation ---- *)

(* Install a batch of (pos*2+sbit, occupant) pairs into [xs]'s table,
   skipping the owner itself, already-filled entries and occupants that lack
   the entry's required suffix. Most entries a reply carries are already
   filled, so that test comes first, on the position alone. Installing an
   occupant still believed joining (T) notifies it with RvNghNoti so it can
   flip us to S when it completes. *)
let install_cells t sh si ~epoch xs ~count fr a =
  let store = sh.store in
  let owner = (Node_store.id_of store xs :> int) in
  let p = ref a in
  for _ = 1 to count do
    let ps = fr.(!p) in
    let occ = fr.(!p + 1) in
    p := !p + 2;
    let posn = ps lsr 1 in
    if occ <> owner && Node_store.cell store xs posn = -1 then begin
      let level = posn / t.b and digit = posn mod t.b and sbit = ps land 1 in
      let low_mask = (1 lsl (level * t.bits)) - 1 in
      if
        occ land low_mask = owner land low_mask
        && (occ lsr (level * t.bits)) land t.dmask = digit
      then begin
        Node_store.set store xs ~level ~digit (Packed.unsafe_of_int occ) sbit;
        if sbit = Node_store.state_t then begin
          let f =
            emit_begin t sh si ~epoch ~kind:Wire.kind_rv_ngh_noti ~src:owner ~dst:occ
          in
          Intbuf.push3 f level digit sbit;
          emit_end sh f
        end
      end
    end
  done;
  !p

(* ---- join protocol ---- *)

(* Answer a JoinWait from joiner [x] at node [ys] — directly on delivery, or
   from the deferred queue when [ys] completes its own join. *)
let answer_join_wait t sh si ~epoch ys ~x =
  let store = sh.store in
  let y = (Node_store.id_of store ys :> int) in
  let st = Node_store.status store ys in
  if st = Node_store.status_in_system then begin
    let l = csuf t y x in
    let xd = pdigit t x l in
    let occ = Node_store.cell store ys (cell_pos t l xd) in
    if occ <> -1 && occ <> x then begin
      (* the slot already holds a node sharing one more digit with [x]:
         redirect the joiner there *)
      sh.redirects <- sh.redirects + 1;
      let f = emit_begin t sh si ~epoch ~kind:Wire.kind_join_wait_rly ~src:y ~dst:x in
      Intbuf.push3 f 0 occ 0;
      emit_end sh f
    end
    else begin
      if occ = -1 then begin
        Node_store.set store ys ~level:l ~digit:xd (Packed.unsafe_of_int x)
          Node_store.state_t;
        let f = emit_begin t sh si ~epoch ~kind:Wire.kind_rv_ngh_noti ~src:y ~dst:x in
        Intbuf.push3 f l xd Node_store.state_t;
        emit_end sh f
      end;
      let f = emit_begin t sh si ~epoch ~kind:Wire.kind_join_wait_rly ~src:y ~dst:x in
      Intbuf.push2 f 1 y;
      Node_store.push_rows store ys ~lo:0 ~hi:l f;
      emit_end sh f
    end
  end
  else if st = Node_store.status_notifying then begin
    (* about to complete: hold the joiner and answer at the switch *)
    sh.deferrals <- sh.deferrals + 1;
    Node_store.defer_wait store ys x
  end
  else begin
    (* still copying or waiting ourselves: bounce the joiner to our gateway,
       which is in-system by construction *)
    let f = emit_begin t sh si ~epoch ~kind:Wire.kind_join_wait_rly ~src:y ~dst:x in
    Intbuf.push3 f 0 sh.gateway.(ys) 0;
    emit_end sh f
  end

(* Complete [xs]'s join: flip the self-diagonal to S, tell every node holding
   a T entry for us, and answer the JoinWaits deferred while notifying. *)
let switch_in_system t sh si ~epoch xs =
  let store = sh.store in
  Node_store.set_status store xs Node_store.status_in_system;
  sh.switched <- sh.switched + 1;
  let owner = Node_store.id_of store xs in
  let ow = (owner :> int) in
  for level = 0 to t.d - 1 do
    Node_store.set_state store xs ~level ~digit:(Packed.digit t.lay owner level)
      Node_store.state_s
  done;
  Hashtbl.reset sh.scratch_seen;
  Node_store.iter_reverse store xs (fun storer ->
      let s = (storer :> int) in
      if not (Hashtbl.mem sh.scratch_seen s) then begin
        Hashtbl.add sh.scratch_seen s ();
        emit0 t sh si ~epoch ~kind:Wire.kind_in_sys_noti ~src:ow ~dst:s
      end);
  List.iter
    (fun x -> answer_join_wait t sh si ~epoch xs ~x)
    (Node_store.take_waits store xs)

(* Start [xs]'s notify round: one JoinNoti per distinct table occupant, in
   cell-scan order. With nothing to notify the node completes immediately. *)
let begin_notify t sh si ~epoch xs =
  let store = sh.store in
  Node_store.set_status store xs Node_store.status_notifying;
  let owner = (Node_store.id_of store xs :> int) in
  Hashtbl.reset sh.scratch_seen;
  Intbuf.clear sh.scratch;
  for p = 0 to (t.d * t.b) - 1 do
    let occ = Node_store.cell store xs p in
    if occ <> -1 && occ <> owner && not (Hashtbl.mem sh.scratch_seen occ) then begin
      Hashtbl.add sh.scratch_seen occ ();
      Intbuf.push sh.scratch occ
    end
  done;
  let cnt = Intbuf.length sh.scratch in
  sh.noti_pending.(xs) <- cnt;
  if cnt = 0 then switch_in_system t sh si ~epoch xs
  else
    for i = 0 to cnt - 1 do
      let tgt = Intbuf.get sh.scratch i in
      let f = emit_begin t sh si ~epoch ~kind:Wire.kind_join_noti ~src:owner ~dst:tgt in
      Intbuf.push2 f (csuf t owner tgt) 0;
      emit_end sh f
    done

(* ---- frame handlers (receiver side) ---- *)

let handle_cp_rst t sh si ~epoch gs ~src fr a =
  let level = fr.(a) in
  let g = (Node_store.id_of sh.store gs :> int) in
  let f = emit_begin t sh si ~epoch ~kind:Wire.kind_cp_rly ~src:g ~dst:src in
  Intbuf.push f level;
  Node_store.push_rows sh.store gs ~lo:level ~hi:level f;
  emit_end sh f

let handle_cp_rly t sh si ~epoch xs ~src fr a =
  let store = sh.store in
  let level = fr.(a) in
  if
    Node_store.status store xs = Node_store.status_copying
    && sh.copy_level.(xs) = level
  then begin
    let count = fr.(a + 1) in
    let x = (Node_store.id_of store xs :> int) in
    let xd = pdigit t x level in
    (* the next hop is the replier's entry matching our own next digit *)
    let z = ref (-1) in
    let p = ref (a + 2) in
    for _ = 1 to count do
      if fr.(!p) lsr 1 = cell_pos t level xd then z := fr.(!p + 1);
      p := !p + 2
    done;
    ignore (install_cells t sh si ~epoch xs ~count fr (a + 2) : int);
    if !z <> -1 && !z <> x && level + 1 < t.d then begin
      sh.copy_level.(xs) <- level + 1;
      let f = emit_begin t sh si ~epoch ~kind:Wire.kind_cp_rst ~src:x ~dst:!z in
      Intbuf.push f (level + 1);
      emit_end sh f
    end
    else begin
      let y = if !z <> -1 && !z <> x then !z else src in
      Node_store.set_status store xs Node_store.status_waiting;
      emit0 t sh si ~epoch ~kind:Wire.kind_join_wait ~src:x ~dst:y
    end
  end

let handle_join_wait_rly t sh si ~epoch xs ~src:_ fr a =
  let store = sh.store in
  if Node_store.status store xs = Node_store.status_waiting then begin
    let sign = fr.(a) in
    let occupant = fr.(a + 1) in
    if sign = 0 then begin
      let x = (Node_store.id_of store xs :> int) in
      emit0 t sh si ~epoch ~kind:Wire.kind_join_wait ~src:x ~dst:occupant
    end
    else begin
      let count = fr.(a + 2) in
      ignore (install_cells t sh si ~epoch xs ~count fr (a + 3) : int);
      begin_notify t sh si ~epoch xs
    end
  end

let handle_join_noti t sh si ~epoch ts ~src fr a =
  let store = sh.store in
  let _noti_level = fr.(a) in
  let tid = (Node_store.id_of store ts :> int) in
  let l = csuf t tid src in
  (* No notified-set bookkeeping: a joiner notifies each distinct target
     exactly once, and a re-delivery would find its cell already occupied —
     the occupancy test is the dedup. A membership list here would grow with
     a target's popularity and turn hot nodes quadratic. *)
  let xd = pdigit t src l in
  if Node_store.cell store ts (cell_pos t l xd) = -1 then begin
    Node_store.set store ts ~level:l ~digit:xd (Packed.unsafe_of_int src)
      Node_store.state_t;
    let f = emit_begin t sh si ~epoch ~kind:Wire.kind_rv_ngh_noti ~src:tid ~dst:src in
    Intbuf.push3 f l xd Node_store.state_t;
    emit_end sh f
  end;
  let f = emit_begin t sh si ~epoch ~kind:Wire.kind_join_noti_rly ~src:tid ~dst:src in
  Intbuf.push f 1;
  Node_store.push_rows store ts ~lo:0 ~hi:l f;
  emit_end sh f

let handle_join_noti_rly t sh si ~epoch xs ~src:_ fr a =
  let store = sh.store in
  if Node_store.status store xs = Node_store.status_notifying then begin
    let count = fr.(a + 1) in
    ignore (install_cells t sh si ~epoch xs ~count fr (a + 2) : int);
    sh.noti_pending.(xs) <- sh.noti_pending.(xs) - 1;
    if sh.noti_pending.(xs) = 0 then switch_in_system t sh si ~epoch xs
  end

let handle_in_sys_noti t sh ts ~src =
  let store = sh.store in
  let tid = (Node_store.id_of store ts :> int) in
  let l = csuf t tid src in
  for l' = 0 to l do
    let xd = pdigit t src l' in
    if Node_store.cell store ts (cell_pos t l' xd) = src then
      Node_store.set_state store ts ~level:l' ~digit:xd Node_store.state_s
  done

let handle_rv_ngh_noti t sh si ~epoch os ~src fr a =
  let store = sh.store in
  let level = fr.(a) in
  let digit = fr.(a + 1) in
  let sbit = fr.(a + 2) in
  Node_store.add_reverse store os ~storer:(Packed.unsafe_of_int src);
  if
    sbit = Node_store.state_t
    && Node_store.status store os = Node_store.status_in_system
  then begin
    (* the storer believes we are still joining; correct it *)
    let o = (Node_store.id_of store os :> int) in
    let f = emit_begin t sh si ~epoch ~kind:Wire.kind_rv_fix ~src:o ~dst:src in
    Intbuf.push2 f level digit;
    emit_end sh f
  end

let handle_rv_fix t sh ts ~src fr a =
  let store = sh.store in
  let level = fr.(a) in
  let digit = fr.(a + 1) in
  if Node_store.cell store ts (cell_pos t level digit) = src then
    Node_store.set_state store ts ~level ~digit Node_store.state_s

let process_frame t sh si ~epoch fr pos =
  let nargs = fr.(pos) in
  let kind = fr.(pos + 1) in
  let src = fr.(pos + 2) in
  let dst = fr.(pos + 3) in
  let a = pos + 4 in
  sh.events <- sh.events + 1;
  sh.kinds.(kind) <- sh.kinds.(kind) + 1;
  (match Node_store.find sh.store (Packed.unsafe_of_int dst) with
  | -1 -> () (* destination departed; drop, as the record engine does *)
  | ds ->
    if kind = Wire.kind_cp_rst then handle_cp_rst t sh si ~epoch ds ~src fr a
    else if kind = Wire.kind_cp_rly then handle_cp_rly t sh si ~epoch ds ~src fr a
    else if kind = Wire.kind_join_wait then answer_join_wait t sh si ~epoch ds ~x:src
    else if kind = Wire.kind_join_wait_rly then
      handle_join_wait_rly t sh si ~epoch ds ~src fr a
    else if kind = Wire.kind_join_noti then handle_join_noti t sh si ~epoch ds ~src fr a
    else if kind = Wire.kind_join_noti_rly then
      handle_join_noti_rly t sh si ~epoch ds ~src fr a
    else if kind = Wire.kind_in_sys_noti then handle_in_sys_noti t sh ds ~src
    else if kind = Wire.kind_rv_ngh_noti then
      handle_rv_ngh_noti t sh si ~epoch ds ~src fr a
    else handle_rv_fix t sh ds ~src fr a);
  pos + 4 + nargs

(* ---- epoch execution ---- *)

(* One shard's turn at [epoch]: deliver last epoch's cross-shard batches into
   the ring, drain the due slot, wire-encode this epoch's outboxes. Touches
   only shard [si]'s state (plus its own outboxes), so shard turns run on any
   worker without synchronization. *)
let process_epoch t ~epoch si =
  let sh = t.shards.(si) in
  while not (Queue.is_empty sh.pending) do
    let es, data = Queue.pop sh.pending in
    ignore
      (Wire.decode t.ctx data ~select:(fun ~delta ->
           let slot = (es + delta) mod ring_depth in
           sh.ring_frames.(slot) <- sh.ring_frames.(slot) + 1;
           sh.ring.(slot))
        : int)
  done;
  let slot = epoch mod ring_depth in
  let buf = sh.ring.(slot) in
  (* Handlers read the due frames straight from the slot's array: they append
     only to later slots (latency 1 .. ring_depth - 1) and to outboxes. *)
  let fr = buf.Intbuf.a and n = Intbuf.length buf in
  let pos = ref 0 in
  while !pos < n do
    pos := process_frame t sh si ~epoch fr !pos
  done;
  Intbuf.clear buf;
  sh.ring_frames.(slot) <- 0;
  for dst = 0 to Array.length t.shards - 1 do
    let ob = sh.outbox.(dst) in
    if not (Intbuf.is_empty ob) then begin
      Wire.encode t.ctx ob sh.outbuf.(dst);
      Intbuf.clear ob
    end
  done

let ensure_meta sh =
  let hi = Node_store.high_slot sh.store in
  if hi > Array.length sh.copy_level then begin
    let ncap = max hi (2 * Array.length sh.copy_level) in
    let gr a def =
      let n = Array.make ncap def in
      Array.blit a 0 n 0 (Array.length a);
      n
    in
    sh.copy_level <- gr sh.copy_level 0;
    sh.noti_pending <- gr sh.noti_pending 0;
    sh.gateway <- gr sh.gateway (-1)
  end

(* Start up to [inject_per_epoch] joiners: allocate the slot, self-fill, and
   hand the gateway a CpRst at level 0. Runs between epochs on the
   coordinator, so it may write any shard's ring. *)
let inject t ~epoch =
  let budget = ref t.cfg.inject_per_epoch in
  while !budget > 0 && t.next_join < Array.length t.joiners do
    let x = t.joiners.(t.next_join) in
    t.next_join <- t.next_join + 1;
    decr budget;
    t.injected <- t.injected + 1;
    let sh = t.shards.(x land t.smask) in
    let xs = Node_store.add sh.store (Packed.unsafe_of_int x) in
    Node_store.fill_self sh.store xs Node_store.state_t;
    ensure_meta sh;
    sh.copy_level.(xs) <- 0;
    sh.noti_pending.(xs) <- 0;
    let g = t.seeds_arr.(gateway_pick x (Array.length t.seeds_arr)) in
    sh.gateway.(xs) <- g;
    let gsh = t.shards.(g land t.smask) in
    let slot = (epoch + latency x g) mod ring_depth in
    let buf = gsh.ring.(slot) in
    let hdr = Intbuf.length buf in
    Intbuf.push buf 0;
    Intbuf.push3 buf Wire.kind_cp_rst x g;
    Intbuf.push buf 0;
    Intbuf.set buf hdr (Intbuf.length buf - hdr - 4);
    gsh.ring_frames.(slot) <- gsh.ring_frames.(slot) + 1
  done

let total_remaining t =
  Array.fold_left
    (fun acc sh ->
      acc
      + Array.fold_left ( + ) 0 sh.ring_frames
      + Queue.length sh.pending)
    0 t.shards

(* ---- witness index and stabilize ---- *)

(* Smallest id carrying each suffix, per suffix length — the serial oracle
   both the seed tables and the stabilize fill draw witnesses from. *)
let witness_index t ids =
  let sorted = Array.copy ids in
  Array.sort Int.compare sorted;
  let wit = Array.init (t.d + 1) (fun _ -> Itbl.create (Array.length ids)) in
  Array.iter
    (fun id ->
      for len = 1 to t.d do
        let key = Packed.suffix_value t.lay (Packed.unsafe_of_int id) len in
        if not (Itbl.mem wit.(len) key) then Itbl.add wit.(len) key id
      done)
    sorted;
  wit

(* The witness for entry (level, digit) of [owner]'s table, [-1] if no id
   carries the entry's required suffix. *)
let witness t wit owner ~level ~digit =
  let key = (owner land ((1 lsl (level * t.bits)) - 1)) lor (digit lsl (level * t.bits)) in
  match Itbl.find_opt wit.(level + 1) key with Some w -> w | None -> -1

(* Fill every empty entry that has a witness in [wit]; with [count_only] just
   count them (the post-stabilize violation scan). *)
let sweep_holes t wit ~count_only si =
  let sh = t.shards.(si) in
  let store = sh.store in
  let hits = ref 0 in
  for s = 0 to Node_store.high_slot store - 1 do
    if Node_store.status store s <> Node_store.status_free then begin
      let owner = (Node_store.id_of store s :> int) in
      for level = 0 to t.d - 1 do
        for digit = 0 to t.b - 1 do
          if Node_store.cell store s (cell_pos t level digit) = -1 then begin
            let w = witness t wit owner ~level ~digit in
            if w <> -1 then begin
              incr hits;
              if not count_only then
                Node_store.set store s ~level ~digit (Packed.unsafe_of_int w)
                  Node_store.state_s
            end
          end
        done
      done
    end
  done;
  !hits

(* ---- setup and run ---- *)

let make_shard t_params ~shards:_ ~cap =
  {
    store = Node_store.create ~cap t_params;
    ring = Array.init ring_depth (fun _ -> Intbuf.create ());
    ring_frames = Array.make ring_depth 0;
    pending = Queue.create ();
    outbox = [||];
    outbuf = [||];
    copy_level = Array.make cap 0;
    noti_pending = Array.make cap 0;
    gateway = Array.make cap (-1);
    events = 0;
    kinds = Array.make Wire.kind_count 0;
    switched = 0;
    redirects = 0;
    deferrals = 0;
    ehdr = 0;
    scratch_seen = Hashtbl.create 64;
    scratch = Intbuf.create ();
  }

let validate (cfg : config) =
  if not (Packed.packable cfg.params) then
    invalid_arg "Scale.run: parameter space is not packable";
  if cfg.shards < 1 || cfg.shards land (cfg.shards - 1) <> 0 then
    invalid_arg "Scale.run: shard count must be a power of two";
  if cfg.seeds < 1 || cfg.seeds > cfg.n then
    invalid_arg "Scale.run: seeds must be within 1 .. n";
  if cfg.inject_per_epoch < 1 then invalid_arg "Scale.run: inject_per_epoch < 1";
  if cfg.max_epochs < 1 then invalid_arg "Scale.run: max_epochs < 1"

let run ?(jobs = 1) (cfg : config) =
  validate cfg;
  let lay = Packed.layout cfg.params in
  let d = cfg.params.d and b = cfg.params.b in
  (* distinct population, in a deterministic draw order *)
  let rng = Rng.create cfg.seed in
  let seen = Hashtbl.create (2 * cfg.n) in
  let all_ids =
    Array.init cfg.n (fun _ ->
        let rec draw () =
          let id = (Packed.random rng lay :> int) in
          if Hashtbl.mem seen id then draw ()
          else begin
            Hashtbl.add seen id ();
            id
          end
        in
        draw ())
  in
  let seeds_arr = Array.sub all_ids 0 cfg.seeds in
  let joiners = Array.sub all_ids cfg.seeds (cfg.n - cfg.seeds) in
  let per_shard_cap = max 16 (2 * (cfg.n / cfg.shards)) in
  let shards =
    Array.init cfg.shards (fun _ ->
        let sh = make_shard cfg.params ~shards:cfg.shards ~cap:per_shard_cap in
        {
          sh with
          outbox = Array.init cfg.shards (fun _ -> Intbuf.create ());
          outbuf = Array.init cfg.shards (fun _ -> Buffer.create 256);
        })
  in
  let t =
    {
      cfg;
      ctx = Wire.ctx cfg.params;
      lay;
      d;
      b;
      bits = Packed.bits lay;
      dmask = (1 lsl Packed.bits lay) - 1;
      smask = cfg.shards - 1;
      shards;
      seeds_arr;
      joiners;
      next_join = 0;
      injected = 0;
      cross_batches = 0;
      cross_bytes = 0;
    }
  in
  (* seeds form a witness-filled in-system network *)
  let seed_wit = witness_index t seeds_arr in
  Array.iter
    (fun sid ->
      let sh = t.shards.(sid land t.smask) in
      let store = sh.store in
      let xs = Node_store.add store (Packed.unsafe_of_int sid) in
      Node_store.set_status store xs Node_store.status_in_system;
      Node_store.fill_self store xs Node_store.state_s;
      ensure_meta sh;
      sh.gateway.(xs) <- sid;
      for level = 0 to d - 1 do
        for digit = 0 to b - 1 do
          if Node_store.cell store xs (cell_pos t level digit) = -1 then begin
            let w = witness t seed_wit sid ~level ~digit in
            if w <> -1 then
              Node_store.set store xs ~level ~digit (Packed.unsafe_of_int w)
                Node_store.state_s
          end
        done
      done)
    seeds_arr;
  let shard_ixs = List.init cfg.shards Fun.id in
  Parallel.with_pool ~jobs (fun pool ->
      (* epoch loop: inject, run every shard's turn, move batches *)
      let epoch = ref 0 in
      let live () = t.next_join < Array.length t.joiners || total_remaining t > 0 in
      while live () && !epoch < cfg.max_epochs do
        inject t ~epoch:!epoch;
        ignore
          (Parallel.map pool (fun si -> process_epoch t ~epoch:!epoch si) shard_ixs
            : unit list);
        Array.iter
          (fun sh_src ->
            Array.iteri
              (fun dsti buf ->
                if Buffer.length buf > 0 then begin
                  t.cross_batches <- t.cross_batches + 1;
                  t.cross_bytes <- t.cross_bytes + Buffer.length buf;
                  Queue.add (!epoch, Buffer.contents buf) t.shards.(dsti).pending;
                  Buffer.clear buf
                end)
              sh_src.outbuf)
          t.shards;
        incr epoch
      done;
      (* stabilize: force-complete stragglers, then fill residual holes from
         a whole-population witness index *)
      let stuck = ref 0 in
      Array.iter
        (fun sh ->
          let store = sh.store in
          for s = 0 to Node_store.high_slot store - 1 do
            let st = Node_store.status store s in
            if st <> Node_store.status_free && st <> Node_store.status_in_system
            then begin
              incr stuck;
              Node_store.set_status store s Node_store.status_in_system
            end
          done)
        t.shards;
      let wit = witness_index t all_ids in
      let fills =
        Parallel.map pool (fun si -> sweep_holes t wit ~count_only:false si) shard_ixs
      in
      let holes =
        Parallel.map pool (fun si -> sweep_holes t wit ~count_only:true si) shard_ixs
      in
      let sum = List.fold_left ( + ) 0 in
      let kinds = Array.make Wire.kind_count 0 in
      Array.iter
        (fun sh -> Array.iteri (fun k c -> kinds.(k) <- kinds.(k) + c) sh.kinds)
        t.shards;
      {
        population = cfg.n;
        seed_count = cfg.seeds;
        shard_count = cfg.shards;
        epochs = !epoch;
        injected = t.injected;
        events = Array.fold_left (fun acc sh -> acc + sh.events) 0 t.shards;
        kind_counts =
          List.init Wire.kind_count (fun k -> (Wire.kind_name k, kinds.(k)));
        cross_batches = t.cross_batches;
        cross_bytes = t.cross_bytes;
        redirects = Array.fold_left (fun acc sh -> acc + sh.redirects) 0 t.shards;
        deferrals = Array.fold_left (fun acc sh -> acc + sh.deferrals) 0 t.shards;
        stuck = !stuck;
        stabilize_fills = sum fills;
        violations = sum holes;
        store_words =
          Array.fold_left (fun acc sh -> acc + Node_store.words sh.store) 0 t.shards;
        shard_events = Array.map (fun sh -> sh.events) t.shards;
      })

module Params = Ntcu_id.Params
module Packed = Ntcu_id.Packed
module Intbuf = Ntcu_std.Intbuf

(* Struct-of-arrays arena for node hot state.

   The record-based simulator spends its memory on one [Node.t] record, one
   [Table.t] (an occupant pointer and a state byte per entry, plus
   [Id.Set.t] reverse sets) and several [Id.Tbl] entries per node — every
   occupant pointer reaches a boxed id record with its own digit array. Here
   the same state is flat columns of a single arena:

   - [ids]: packed id per slot ([-1] past [high]);
   - [status]: one byte per slot;
   - [cells]: [d*b] ints per slot, the (level, digit) entry's occupant as a
     packed id or [-1];
   - [cstate]: one bit per cell, the occupant's believed T/S state;
   - a shared pool of list cells carrying two linked lists per node: its
     reverse pointers (the storers that registered it) and the JoinWaits
     deferred while it was notifying, each with its own head column.

   Per-node cost is dominated by [d*b] cell words — 8 bytes per entry, the
   id itself rather than a pointer to a boxed id and its digit array — and
   everything is indexed by slot int, so the only remaining hashing is one
   int-keyed [slot_of] lookup per delivered message.

   Cell [level * b + digit] of a slot is its table position: reads and the
   frame copy ({!push_rows}) take that position, the index frames carry;
   writes take (level, digit), which [set] checks against the owner's
   suffix.

   Slots are handed out in order and never freed: no engine removes a node
   from the arena. *)

type t = {
  lay : Packed.layout;
  d : int;
  b : int;
  mutable cap : int; (* allocated slots *)
  mutable high : int; (* slots handed out; scan bound for iteration *)
  mutable ids : int array;
  mutable status : Bytes.t;
  mutable cells : int array;
  mutable cstate : Bytes.t; (* bit per cell *)
  mutable rev_head : int array; (* storers, newest first *)
  mutable wait_head : int array; (* deferred JoinWaits, newest first *)
  slot_of : (int, int) Hashtbl.t;
  (* shared pool of (value, next) cells for both linked lists *)
  mutable pool_val : int array;
  mutable pool_next : int array;
  mutable pool_free : int; (* head of pool free list, -1 = none *)
  mutable pool_used : int; (* high-water mark of pool slots handed out *)
}

let state_t = 0
let state_s = 1

(* Node statuses, one byte each; 0 marks a slot not yet handed out. *)
let status_copying = 1
let status_waiting = 2
let status_notifying = 3
let status_in_system = 4

let create ?(cap = 1024) (p : Params.t) =
  if not (Packed.packable p) then
    invalid_arg "Node_store.create: parameter space is not packable";
  let cap = max cap 1 in
  let lay = Packed.layout p in
  {
    lay;
    d = p.d;
    b = p.b;
    cap;
    high = 0;
    ids = Array.make cap (-1);
    status = Bytes.make cap '\000';
    cells = Array.make (cap * p.d * p.b) (-1);
    cstate = Bytes.make ((cap * p.d * p.b / 8) + 1) '\000';
    rev_head = Array.make cap (-1);
    wait_head = Array.make cap (-1);
    slot_of = Hashtbl.create (2 * cap);
    pool_val = Array.make cap 0;
    pool_next = Array.make cap (-1);
    pool_free = -1;
    pool_used = 0;
  }

let high_slot t = t.high

(* ---- growth ---- *)

let grow_slots t =
  let ncap = 2 * t.cap in
  let nids = Array.make ncap (-1) in
  Array.blit t.ids 0 nids 0 t.cap;
  t.ids <- nids;
  let nstatus = Bytes.make ncap '\000' in
  Bytes.blit t.status 0 nstatus 0 t.cap;
  t.status <- nstatus;
  let stride = t.d * t.b in
  let ncells = Array.make (ncap * stride) (-1) in
  Array.blit t.cells 0 ncells 0 (t.cap * stride);
  t.cells <- ncells;
  let ncstate = Bytes.make ((ncap * stride / 8) + 1) '\000' in
  Bytes.blit t.cstate 0 ncstate 0 (Bytes.length t.cstate) ;
  t.cstate <- ncstate;
  let copy_col col =
    let ncol = Array.make ncap (-1) in
    Array.blit col 0 ncol 0 t.cap;
    ncol
  in
  t.rev_head <- copy_col t.rev_head;
  t.wait_head <- copy_col t.wait_head;
  t.cap <- ncap

(* ---- pool (linked lists of ints) ---- *)

let pool_alloc t v next =
  match t.pool_free with
  | -1 ->
    let i = t.pool_used in
    if i = Array.length t.pool_val then begin
      let ncap = 2 * Array.length t.pool_val in
      let gr a = let n = Array.make ncap 0 in Array.blit a 0 n 0 i; n in
      t.pool_val <- gr t.pool_val;
      t.pool_next <- gr t.pool_next
    end;
    t.pool_used <- i + 1;
    t.pool_val.(i) <- v;
    t.pool_next.(i) <- next;
    i
  | i ->
    t.pool_free <- t.pool_next.(i);
    t.pool_val.(i) <- v;
    t.pool_next.(i) <- next;
    i

let pool_release_list t head =
  let i = ref head in
  while !i <> -1 do
    let next = t.pool_next.(!i) in
    t.pool_next.(!i) <- t.pool_free;
    t.pool_free <- !i;
    i := next
  done

(* ---- slots ---- *)

let find t pid =
  match Hashtbl.find t.slot_of (pid : Packed.t :> int) with
  | s -> s
  | exception Not_found -> -1

let id_of t slot = Packed.unsafe_of_int t.ids.(slot)

let add t pid =
  let key = (pid : Packed.t :> int) in
  if Hashtbl.mem t.slot_of key then invalid_arg "Node_store.add: id already present";
  if t.high = t.cap then grow_slots t;
  let slot = t.high in
  t.high <- slot + 1;
  t.ids.(slot) <- key;
  Bytes.set t.status slot (Char.chr status_copying);
  Hashtbl.replace t.slot_of key slot;
  slot

let cell_base t slot = slot * t.d * t.b

let status t slot = Char.code (Bytes.get t.status slot)
let set_status t slot st = Bytes.set t.status slot (Char.chr st)

(* ---- cells ---- *)

let cell_index t slot ~level ~digit =
  if level < 0 || level >= t.d || digit < 0 || digit >= t.b then
    invalid_arg "Node_store: cell position out of range";
  cell_base t slot + (level * t.b) + digit

(* The cell index of table position [pos] (= level * b + digit). *)
let pos_index t slot pos =
  if pos < 0 || pos >= t.d * t.b then invalid_arg "Node_store: cell position out of range";
  cell_base t slot + pos

let cell t slot pos = t.cells.(pos_index t slot pos)

let cell_state t idx =
  Char.code (Bytes.get t.cstate (idx lsr 3)) lsr (idx land 7) land 1

let set_cell_state t idx st =
  let byte = Char.code (Bytes.get t.cstate (idx lsr 3)) in
  let bit = 1 lsl (idx land 7) in
  let byte = if st = state_s then byte lor bit else byte land lnot bit in
  Bytes.set t.cstate (idx lsr 3) (Char.chr byte)

let state t slot pos =
  let idx = pos_index t slot pos in
  if t.cells.(idx) = -1 then invalid_arg "Node_store.state: empty entry";
  cell_state t idx

(* One pass over the rows' cells, straight from the columns: the count, then
   a (pos*2+sbit, occupant) pair per filled entry — the cell-list image of
   every table-carrying frame. *)
let push_rows t slot ~lo ~hi buf =
  if lo < 0 || hi >= t.d || lo > hi then invalid_arg "Node_store.push_rows: row out of range";
  let base = cell_base t slot in
  let cnt_pos = Intbuf.length buf in
  Intbuf.push buf 0;
  let c = ref 0 in
  for pos = lo * t.b to ((hi + 1) * t.b) - 1 do
    let occ = t.cells.(base + pos) in
    if occ <> -1 then begin
      Intbuf.push2 buf ((pos lsl 1) lor cell_state t (base + pos)) occ;
      incr c
    end
  done;
  Intbuf.set buf cnt_pos !c

(* The occupant of the (level, digit) entry must share the owner's low
   [level] digits and have [digit] at position [level] — same validation as
   [Table.set], expressed on packed values. *)
let required_ok t slot ~level ~digit pid =
  let key = (pid : Packed.t :> int) in
  let owner = t.ids.(slot) in
  let bits = Packed.bits t.lay in
  let low_mask = (1 lsl (level * bits)) - 1 in
  key land low_mask = owner land low_mask && (key lsr (level * bits)) land ((1 lsl bits) - 1) = digit

let set t slot ~level ~digit pid st =
  if not (required_ok t slot ~level ~digit pid) then
    invalid_arg "Node_store.set: node does not carry the entry's required suffix";
  let idx = cell_index t slot ~level ~digit in
  t.cells.(idx) <- (pid : Packed.t :> int);
  set_cell_state t idx st

let set_state t slot ~level ~digit st =
  let idx = cell_index t slot ~level ~digit in
  if t.cells.(idx) = -1 then invalid_arg "Node_store.set_state: empty entry";
  set_cell_state t idx st

let fill_self t slot st =
  let owner = Packed.unsafe_of_int t.ids.(slot) in
  for level = 0 to t.d - 1 do
    set t slot ~level ~digit:(Packed.digit t.lay owner level) owner st
  done

(* ---- reverse neighbors ---- *)

(* One list entry per registration, newest first: the storers, as in
   [Table]'s reverse sets. The level a storer registered at is not kept
   ([Scale] never reads it). Duplicate registrations are the caller's
   concern (the protocol installs into an empty cell exactly once per
   position). *)
let add_reverse t slot ~storer =
  t.rev_head.(slot) <- pool_alloc t (storer : Packed.t :> int) t.rev_head.(slot)

let iter_reverse t slot f =
  let i = ref t.rev_head.(slot) in
  while !i <> -1 do
    f (Packed.unsafe_of_int t.pool_val.(!i));
    i := t.pool_next.(!i)
  done

(* ---- deferred JoinWaits ---- *)

let defer_wait t slot x = t.wait_head.(slot) <- pool_alloc t x t.wait_head.(slot)

let take_waits t slot =
  let rec take i acc =
    if i = -1 then acc else take t.pool_next.(i) (t.pool_val.(i) :: acc)
  in
  let waits = take t.wait_head.(slot) [] in
  pool_release_list t t.wait_head.(slot);
  t.wait_head.(slot) <- -1;
  waits

(* ---- memory accounting ---- *)

(* Deterministic structural size in words: every column counted exactly, the
   int-keyed hashtable estimated at 4 words per live binding (bucket pointer
   amortized + 3-word bucket cell), which slightly undercounts its internal
   array slack. Host-side [Gc] measurements complement this in the bench. *)
let words t =
  let arr (a : int array) = Array.length a + 1 in
  let bytes (b : Bytes.t) = (Bytes.length b / 8) + 2 in
  arr t.ids + bytes t.status + arr t.cells + bytes t.cstate + arr t.rev_head
  + arr t.wait_head + arr t.pool_val + arr t.pool_next
  + (4 * Hashtbl.length t.slot_of)

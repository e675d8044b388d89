(* Array-based 4-ary min-heap with an index back-pointer per entry, so that
   entries can be removed (timer cancellation) in O(log n) without
   lazy-deletion tombstones accumulating in the queue.

   Each element carries a monotonically increasing sequence number so that
   equal keys pop in insertion order; the sequence number is a total
   tie-break, which makes the pop order independent of the heap's internal
   layout (and hence of its arity and of any removals in between). *)

type 'a entry = {
  key : float;
  seq : int;
  value : 'a;
  mutable pos : int; (* slot in [heap]; -1 once popped or removed *)
  owner : 'a t; (* queue the entry was pushed to; guards cross-queue misuse *)
}

and 'a t = {
  mutable heap : 'a entry array; (* slots [0, size) are live *)
  mutable size : int;
  mutable next_seq : int;
}

type 'a handle = 'a entry

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size

let is_empty q = q.size = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* Extend the backing array, using [fill] (the entry about to be pushed) as
   the dummy for unused slots so no unsafe placeholder value is needed. *)
let grow q fill =
  let cap = Array.length q.heap in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let nh = Array.make ncap fill in
  Array.blit q.heap 0 nh 0 cap;
  q.heap <- nh

let set q i e =
  q.heap.(i) <- e;
  e.pos <- i

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if less q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      set q i q.heap.(parent);
      set q parent tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let first = (4 * i) + 1 in
  if first < q.size then begin
    let smallest = ref i in
    let last = min (first + 3) (q.size - 1) in
    for c = first to last do
      if less q.heap.(c) q.heap.(!smallest) then smallest := c
    done;
    if !smallest <> i then begin
      let tmp = q.heap.(i) in
      set q i q.heap.(!smallest);
      set q !smallest tmp;
      sift_down q !smallest
    end
  end

let push_handle q key value =
  let entry = { key; seq = q.next_seq; value; pos = q.size; owner = q } in
  if q.size = Array.length q.heap then grow q entry;
  q.heap.(q.size) <- entry;
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  sift_up q (q.size - 1);
  entry

let push q key value = ignore (push_handle q key value)

(* Bulk insertion: append the entries in list order (so sequence numbers
   match what n pushes would have assigned — the pop order is the total
   (key, seq) order either way) and heapify bottom-up in O(size + n) instead
   of n O(log n) sifts. Existing entries keep their handles: they only move
   within the array, and [set] maintains their back-pointers. *)
let add_list q items =
  match items with
  | [] -> ()
  | (k0, v0) :: _ ->
      let n = List.length items in
      let total = q.size + n in
      if total > Array.length q.heap then begin
        let dummy = { key = k0; seq = 0; value = v0; pos = 0; owner = q } in
        let nh = Array.make (max 16 (max total (2 * Array.length q.heap))) dummy in
        Array.blit q.heap 0 nh 0 q.size;
        q.heap <- nh
      end;
      List.iteri
        (fun i (key, value) ->
          let pos = q.size + i in
          q.heap.(pos) <- { key; seq = q.next_seq + i; value; pos; owner = q })
        items;
      q.next_seq <- q.next_seq + n;
      q.size <- total;
      for i = (total - 2) / 4 downto 0 do
        sift_down q i
      done

let of_list items =
  let q = create () in
  add_list q items;
  q

let peek q = if q.size = 0 then None else Some (q.heap.(0).key, q.heap.(0).value)

(* Slots past [size] keep pointing at entries that have left the queue, and
   through them at their values. A drained queue drops its array, as [clear]
   does, so it holds none of them. *)
let release_if_drained q = if q.size = 0 then q.heap <- [||]

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    top.pos <- -1;
    q.size <- q.size - 1;
    if q.size > 0 then begin
      set q 0 q.heap.(q.size);
      sift_down q 0
    end;
    release_if_drained q;
    Some (top.key, top.value)
  end

let mem q h = h.owner == q && h.pos >= 0

let remove q h =
  if h.owner != q then invalid_arg "Pqueue.remove: handle from another queue";
  let i = h.pos in
  if i < 0 then false
  else begin
    h.pos <- -1;
    q.size <- q.size - 1;
    if i < q.size then begin
      set q i q.heap.(q.size);
      (* The relocated entry may violate the heap property in either
         direction relative to its new neighbourhood. *)
      sift_up q i;
      sift_down q i
    end;
    release_if_drained q;
    true
  end

let clear q =
  for i = 0 to q.size - 1 do
    q.heap.(i).pos <- -1
  done;
  q.heap <- [||];
  q.size <- 0;
  q.next_seq <- 0

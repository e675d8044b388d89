(* Growable int buffer — the workhorse of the sharded engine. Event frames,
   outboxes and scratch rows are all flat int sequences appended in place and
   cleared (not freed) between epochs, so the steady state allocates
   nothing. Hot readers index [a] below [len] directly; only a push can
   replace [a], and the replaced array keeps what it held. *)

type t = { mutable a : int array; mutable len : int }

let create ?(cap = 64) () = { a = Array.make (max 1 cap) 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let clear t = t.len <- 0

let grow t needed =
  let cap = max needed (2 * Array.length t.a) in
  let na = Array.make cap 0 in
  Array.blit t.a 0 na 0 t.len;
  t.a <- na

let push t v =
  if t.len = Array.length t.a then grow t (t.len + 1);
  t.a.(t.len) <- v;
  t.len <- t.len + 1

let push2 t v1 v2 =
  if t.len + 2 > Array.length t.a then grow t (t.len + 2);
  t.a.(t.len) <- v1;
  t.a.(t.len + 1) <- v2;
  t.len <- t.len + 2

let push3 t v1 v2 v3 =
  if t.len + 3 > Array.length t.a then grow t (t.len + 3);
  t.a.(t.len) <- v1;
  t.a.(t.len + 1) <- v2;
  t.a.(t.len + 2) <- v3;
  t.len <- t.len + 3

let get t i = t.a.(i)
let set t i v = t.a.(i) <- v

let words t = Array.length t.a + 3

(* An identifier is its digit array, index 0 = rightmost digit, never
   mutated after construction, plus two values computed from it once:
   - [hash], the FNV-1a fold of [fnv];
   - [key], the [key_digits] most significant digits (all of them when
     [d <= key_digits]), [key_bits] bits each, the most significant highest.
     Bases are at most 36, so ten digits fit the tagged-int range, and
     integer order on keys is the textual order of those digits. [equal]
     and [compare] read the array only when the keys are equal. *)

type t = { hash : int; key : int; digits : int array }

let key_digits = 10
let key_bits = 6

(* Deterministic FNV-1a fold over the digit sequence. [Packed.hash] replays
   the same fold over its shift/mask digits, so the two representations of an
   identifier agree as hash-table keys; the 30-bit mask keeps the fold inside
   the tagged-int range on every word size. *)
let fnv digits =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length digits - 1 do
    h := (!h lxor digits.(i)) * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let pack_key digits =
  let d = Array.length digits in
  let key = ref 0 in
  for i = d - 1 downto max 0 (d - key_digits) do
    key := (!key lsl key_bits) lor digits.(i)
  done;
  !key

(* Takes ownership of [digits]. *)
let of_digits digits = { hash = fnv digits; key = pack_key digits; digits }

let digit_of_char c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'z' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'Z' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Id.of_string: bad digit character %C" c)

let char_of_digit v =
  if v < 10 then Char.chr (Char.code '0' + v) else Char.chr (Char.code 'a' + v - 10)

let validate (p : Params.t) digits =
  if Array.length digits <> p.d then
    invalid_arg
      (Printf.sprintf "Id.make: expected %d digits, got %d" p.d (Array.length digits));
  Array.iter
    (fun v ->
      if v < 0 || v >= p.b then
        invalid_arg (Printf.sprintf "Id.make: digit %d out of range for base %d" v p.b))
    digits

let make p digits =
  validate p digits;
  of_digits (Array.copy digits)

let of_string (p : Params.t) s =
  if String.length s <> p.d then
    invalid_arg
      (Printf.sprintf "Id.of_string: expected %d characters, got %d" p.d (String.length s));
  (* Character 0 of the string is the most significant digit, i.e. index d-1. *)
  let digits = Array.init p.d (fun i -> digit_of_char s.[p.d - 1 - i]) in
  validate p digits;
  of_digits digits

let to_string x =
  let d = Array.length x.digits in
  String.init d (fun i -> char_of_digit x.digits.(d - 1 - i))

let length x = Array.length x.digits

let digit x i = x.digits.(i)

(* The digit loops below are top-level functions of their arrays, so a call
   allocates no closure. *)

(* Index of the first digit, counting up from [i], where [x] and [y]
   differ, or [d]. *)
let rec first_diff x y d i = if i < d && x.(i) = y.(i) then first_diff x y d (i + 1) else i

let csuf_len x y =
  let d = Array.length x.digits in
  if x == y then d else first_diff x.digits y.digits d 0

let suffix x k = Array.sub x.digits 0 k

(* Do [x] and [y] agree on digits [i] down to 0? *)
let rec same_below x y i = i < 0 || (x.(i) = y.(i) && same_below x y (i - 1))

let has_suffix x suf =
  let k = Array.length suf in
  k <= Array.length x.digits && same_below x.digits suf (k - 1)

let random rng (p : Params.t) =
  of_digits (Array.init p.d (fun _ -> Ntcu_std.Rng.int rng p.b))

let random_with_suffix rng (p : Params.t) suf =
  let k = Array.length suf in
  if k > p.d then invalid_arg "Id.random_with_suffix: suffix longer than d";
  Array.iter
    (fun v ->
      if v < 0 || v >= p.b then invalid_arg "Id.random_with_suffix: digit out of range")
    suf;
  of_digits (Array.init p.d (fun i -> if i < k then suf.(i) else Ntcu_std.Rng.int rng p.b))

(* Identifiers are hash-table keys on the message delivery path. Equal keys
   and hashes leave only the digits below the key to compare, none at all
   when [d <= key_digits]. *)
let equal x y =
  x == y
  || x.key = y.key
     && x.hash = y.hash
     &&
     let d = Array.length x.digits in
     d = Array.length y.digits && same_below x.digits y.digits (d - key_digits - 1)

(* [compare] of the digits [i] down to 0, most significant first. *)
let rec compare_below x y i =
  if i < 0 then 0
  else begin
    let c = Int.compare x.(i) y.(i) in
    if c <> 0 then c else compare_below x y (i - 1)
  end

(* Most-significant-digit-first order, matching the textual order. *)
let compare x y =
  if x == y then 0
  else begin
    let c = Int.compare x.key y.key in
    if c <> 0 then c
    else compare_below x.digits y.digits (Array.length x.digits - key_digits - 1)
  end

let hash x = x.hash

let pp ppf x = Fmt.string ppf (to_string x)

let pp_suffix ppf suf =
  let k = Array.length suf in
  for i = k - 1 downto 0 do
    Fmt.char ppf (char_of_digit suf.(i))
  done

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Tbl = Hashtbl.Make (Hashed)

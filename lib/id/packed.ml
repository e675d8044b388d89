(* Bit-packed identifiers: one id = one tagged OCaml [int].

   Digit [i] (0 = rightmost, as everywhere in this repo) occupies bits
   [i*bits .. (i+1)*bits - 1] where [bits = ceil(log2 b)]. Because the most
   significant digit lands in the highest bits, plain integer comparison of
   packed values coincides with [Id.compare] (most-significant-digit-first
   lexicographic order), and [x lxor y] exposes the common suffix as trailing
   zero digit groups.

   Only parameter spaces with [d * bits <= 62] are packable (the value must
   fit a non-negative tagged int); [Params.paper_sim_d8] (16^8 = 32 bits) is,
   [Params.paper_sim_d40] (160 bits) is not, so every consumer keeps the
   [int array] representation as the general path and treats this as an
   opt-in fast path gated on {!packable}. *)

type t = int

type layout = { params : Params.t; bits : int; mask : int }

let bits_per_digit b =
  if b < 2 then invalid_arg "Packed.bits_per_digit: base must be >= 2";
  let rec go n acc = if n >= b then acc else go (n * 2) (acc + 1) in
  go 1 0

let packable (p : Params.t) = p.d * bits_per_digit p.b <= 62

let layout (p : Params.t) =
  if not (packable p) then
    invalid_arg
      (Printf.sprintf "Packed.layout: %d digits of base %d exceed 62 bits" p.d p.b);
  let bits = bits_per_digit p.b in
  { params = p; bits; mask = (1 lsl bits) - 1 }

let params l = l.params
let bits l = l.bits
let id_bits l = l.params.Params.d * l.bits

let digit l x i = (x lsr (i * l.bits)) land l.mask

let of_id l id =
  let d = l.params.Params.d in
  let v = ref 0 in
  for i = d - 1 downto 0 do
    v := (!v lsl l.bits) lor Id.digit id i
  done;
  !v

let to_id l x = Id.make l.params (Array.init l.params.Params.d (digit l x))

let make l digits = of_id l (Id.make l.params digits)
let of_string l s = of_id l (Id.of_string l.params s)
let to_string l x = Id.to_string (to_id l x)

(* Range check plus a per-digit bound check: for non-power-of-two bases some
   bit patterns inside the range encode digits >= b. *)
let of_int l v =
  let d = l.params.Params.d and b = l.params.Params.b in
  if v < 0 || (id_bits l < 62 && v lsr id_bits l <> 0) then
    invalid_arg "Packed.of_int: value out of range";
  for i = 0 to d - 1 do
    if digit l v i >= b then invalid_arg "Packed.of_int: digit out of range"
  done;
  v

let unsafe_of_int v = v
let to_int x = x

let csuf_len l x y =
  if x = y then l.params.Params.d
  else begin
    let diff = ref (x lxor y) and i = ref 0 in
    while !diff land l.mask = 0 do
      diff := !diff lsr l.bits;
      incr i
    done;
    !i
  end

let suffix_value l x k = x land ((1 lsl (k * l.bits)) - 1)

let suffix l x k =
  if k > l.params.Params.d then invalid_arg "Packed.suffix: longer than d";
  Array.init k (digit l x)

let has_suffix l x suf =
  let k = Array.length suf in
  k <= l.params.Params.d
  &&
  let rec go i = i >= k || (digit l x i = suf.(i) && go (i + 1)) in
  go 0

(* Same generator-consumption order as [Id.random] / [Id.random_with_suffix]
   so both representations draw identical ids from an equal-state [Rng.t]. *)
let random rng l =
  let d = l.params.Params.d and b = l.params.Params.b in
  let v = ref 0 in
  for i = 0 to d - 1 do
    v := !v lor (Ntcu_std.Rng.int rng b lsl (i * l.bits))
  done;
  !v

let random_with_suffix rng l suf =
  let d = l.params.Params.d and b = l.params.Params.b in
  let k = Array.length suf in
  if k > d then invalid_arg "Packed.random_with_suffix: suffix longer than d";
  Array.iter
    (fun v ->
      if v < 0 || v >= b then invalid_arg "Packed.random_with_suffix: digit out of range")
    suf;
  let v = ref 0 in
  for i = 0 to d - 1 do
    let dg = if i < k then suf.(i) else Ntcu_std.Rng.int rng b in
    v := !v lor (dg lsl (i * l.bits))
  done;
  !v

let equal (x : t) (y : t) = Int.equal (x :> int) (y :> int)
let compare (x : t) (y : t) = Int.compare x y

(* Must stay in lockstep with [Id.hash]: the same FNV-1a fold over the digit
   sequence, so the two representations agree as hash-table keys
   (checked by the QCheck agreement suite). *)
let hash l x =
  let d = l.params.Params.d in
  let h = ref 0x811c9dc5 in
  for i = 0 to d - 1 do
    h := (!h lxor digit l x i) * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let pp l ppf x = Fmt.string ppf (to_string l x)

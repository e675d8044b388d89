(** Node and object identifiers.

    An identifier is a fixed-length string of [d] digits of base [b]. Following
    PRR and the paper, digits are counted from the right: [digit x 0] is the
    rightmost digit, written last in the textual form. Routing proceeds by
    suffix matching. *)

type t
(** Immutable identifier. Besides its digits it caches two values, computed
    once when it is built: its {!hash}, and its ten most significant digits
    (all of them when [d <= 10]) packed into one int. So {!hash} is a field
    read, and {!equal} and {!compare} cost one int comparison for ids whose
    ten leading digits differ. *)

val make : Params.t -> int array -> t
(** [make p digits] builds an identifier from [digits], where [digits.(i)] is
    the [i]th digit counted from the right. The array is copied.
    @raise Invalid_argument if the length differs from [p.d] or any digit is
    outside [\[0, p.b)]. *)

val of_string : Params.t -> string -> t
(** [of_string p s] parses the textual form: [p.d] characters, most-significant
    digit first, alphabet [0-9] then [a-z] (case-insensitive). With
    [b = 8, d = 5], ["10261"] has rightmost digit [1].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Inverse of {!of_string} (lowercase alphabet). *)

val length : t -> int
(** Number of digits, i.e. [d]. *)

val digit : t -> int -> int
(** [digit x i] is the [i]th digit from the right, [0 <= i < length x]. *)

val csuf_len : t -> t -> int
(** [csuf_len x y] is the number of digits in the longest common suffix of the
    two identifiers — the paper's [|csuf(x, y)|]. Equals [length x] iff
    [equal x y]. *)

val suffix : t -> int -> int array
(** [suffix x k] is the rightmost [k] digits, index 0 = rightmost. *)

val has_suffix : t -> int array -> bool
(** [has_suffix x suf] tests whether [x] ends with [suf] (index 0 of [suf]
    being the rightmost digit). *)

val random : Ntcu_std.Rng.t -> Params.t -> t
(** Uniformly random identifier. *)

val random_with_suffix : Ntcu_std.Rng.t -> Params.t -> int array -> t
(** Uniformly random identifier constrained to end with the given suffix.
    Used to build adversarial dependent-join workloads.
    @raise Invalid_argument if the suffix is longer than [d] or has an
    out-of-range digit. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** Deterministic FNV-1a fold over the digit sequence — independent of the
    in-memory representation and in lockstep with {!Packed.hash}. Cached:
    reading it costs no digit loop. *)
val hash : t -> int
val pp : t Fmt.t

val pp_suffix : int array Fmt.t
(** Prints a suffix most-significant digit first, e.g. [|1;6;2|] as ["261"]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t

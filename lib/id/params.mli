(** Hypercube-routing namespace parameters.

    Every identifier is a string of [d] digits of base [b] (paper, Section 2).
    The paper's simulations use [b = 16] with [d = 8] or [d = 40]; the paper's
    running examples use [b = 4, d = 5] (Figure 1) and [b = 8, d = 5]
    (Figure 2). *)

type t = private { b : int; d : int }

val make : b:int -> d:int -> t
(** [make ~b ~d] validates [2 <= b <= 36] and [1 <= d <= 64].
    @raise Invalid_argument otherwise. *)

val pp : t Fmt.t

(** Presets used throughout the paper. *)

val paper_example_fig1 : t (* b = 4,  d = 5 *)
val paper_example_fig2 : t (* b = 8,  d = 5 *)
val paper_sim_d8 : t (* b = 16, d = 8 *)
val paper_sim_d40 : t (* b = 16, d = 40 *)

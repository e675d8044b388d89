(** Paper-style rendering of experiment results. *)

val pp_join_run : Experiment.join_run Fmt.t
(** One-paragraph summary: size, liveness, consistency, message stats. *)

val pp_fault_run : Experiment.fault_run Fmt.t
(** {!pp_join_run} plus crash/transport/online-repair counters. *)

val pp_fig15a_curve :
  label:string -> (int * float) list Fmt.t
(** A Figure 15(a) data series, one "[n] [bound]" row per point. *)

val pp_cdf : label:string -> (int * float) list Fmt.t
(** A Figure 15(b) CDF series, one "[J] [fraction]" row per point. *)

val pp_avg_vs_bound :
  (string * float * float * float) list Fmt.t
(** Rows of (setup label, measured average, Theorem-5 bound, paper's measured
    average) — the Section 5.2 in-text comparison. *)

val table : header:string list -> string list list Fmt.t
(** Aligned plain-text table. *)

(** Minimal JSON emitter for machine-readable bench artifacts
    ([BENCH_*.json]). Emission only — the repo never parses JSON — so a
    hand-rolled printer keeps the dependency set unchanged.
    Floats are rendered with [%.17g] (lossless round-trip); NaN and
    infinities become [null]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val to_file : string -> t -> unit
end

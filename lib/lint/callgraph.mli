(** Cross-module call graph over the dune-produced .cmt set (phase 1).

    Definitions are the module-level values of every scanned unit, keyed by
    their {!Shape.Uid} (printed form, e.g. ["Ntcu_core__Codec.12"]). Edges
    come from [Texp_ident] uid resolution, with three over-approximating
    extensions: functor-parameter calls resolve to every recorded
    application argument, first-class-module calls ([Texp_pack] /
    [Protocol.S] packing) resolve to every packed implementation with a
    matching name, and [module M = F (Arg)] / [module M = N] bindings
    resolve by name into the functor body or aliased module. References
    that resolve to nothing scanned (Stdlib, external libraries) are kept
    as {!ext} records for name-pattern matching by rules. *)

type def = {
  uid : string;
  name : string;  (** Unqualified binder name. *)
  qual : string;  (** Module-path-qualified within the unit, e.g. ["Codec.encode_frames"]. *)
  unit_name : string;  (** Compilation unit, e.g. ["Ntcu_core__Codec"]. *)
  cls : Classify.t;
  loc : Location.t;  (** Location of the binder name. *)
  body : Typedtree.expression;
}

type call = { target : string;  (** Callee def uid. *) site : Location.t }
type ext = { ext_name : string;  (** Dotted path, e.g. ["Stdlib.Hashtbl.iter"]. *) ext_site : Location.t }

type t

val build : (Classify.t * string * Typedtree.structure * Location.t Shape.Uid.Tbl.t) list -> t
(** [build units] scans [(classification, unit_name, structure, uid_to_loc)]
    tuples — one per .cmt — and resolves all edges. Deterministic: defs and
    adjacency lists are sorted by (source, offset, uid). *)

val defs : t -> def list
val defs_in_unit : t -> string -> def list
val find : t -> string -> def option

val find_qual : t -> string -> def list
(** Defs whose ["Unit.qual"] name ends with the given dotted suffix. *)

val calls_of : t -> def -> call list
val exts_of : t -> def -> ext list

val reachable : t -> roots:def list -> def list
(** Every def reachable from [roots] (inclusive), sorted. *)

val path : t -> from:def -> dest:(def -> bool) -> ((def * Location.t) list * def) option
(** Shortest call chain from [from] to a def satisfying [dest]. The list
    pairs each intermediate caller with its call site; the returned def is
    the destination. [Some ([], from)] when [from] itself satisfies [dest]. *)

val trace : t -> from:def -> dest:(def -> bool) -> (Finding.step list * def) option
(** Like {!path} but rendered as finding trace steps ("A.f calls B.g"). *)

val compare_def : def -> def -> int

val dotted : string -> string
(** ["Ntcu_core__Codec"] -> ["Ntcu_core.Codec"]: dune's wrapped-unit alias. *)

val full_name : def -> string
(** Dotted unit name joined with the qualified binder, e.g.
    ["Ntcu_sim.Engine.cancel"]. *)

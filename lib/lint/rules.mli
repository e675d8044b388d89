(** The determinism & domain-safety rule set.

    Each rule has a stable code, a one-line title, and a checker over the
    typed tree of one compilation unit. Codes are append-only: a code is
    never reused for a different hazard, so baselines and [[@ntcu.allow]]
    annotations stay meaningful across versions.

    - {b D001} polymorphic [=]/[<>]/[compare]/[Hashtbl.hash] instantiated at
      an abstract protocol type (anything outside ints, strings, floats, and
      containers thereof) — polymorphic compare on abstract representations
      is representation-dependent and breaks when the representation changes.
    - {b D002} [Hashtbl.iter]/[Hashtbl.fold] (including [Id.Tbl] instances):
      unordered iteration whose order leaks into output is only accidentally
      stable. Sort the keys, or annotate sites that are provably
      order-insensitive.
    - {b D003} wall clock ([Sys.time], [Unix.gettimeofday], …) or the global
      [Random] state in protocol code; the harness/test allowlist is
      expressed through {!Classify.t.clock_allowed}.
    - {b D004} toplevel mutable state ([ref], [Hashtbl.create],
      [Buffer.create]) in library code shared across the [Parallel] domain
      pool without an owner-domain guard.
    - {b D005} lossy float formatting ([%f], [string_of_float]) in emitter
      modules whose output must round-trip ({!Classify.t.emitter}). *)

type rule = {
  code : string;
  title : string;
  check : Classify.t -> Typedtree.structure -> Finding.t list;
}

val all : rule list
(** The registry, in code order. *)

val run_all : Classify.t -> Typedtree.structure -> Finding.t list
(** Run every rule, apply [[@ntcu.allow]] regions, dedupe and sort. *)

(** {2 Shared site predicates}

    The interprocedural rule families (Taint, Escape, Proto) reuse the exact
    site definitions of their intraprocedural counterparts, so D002/T002,
    D003/T003 and D005/T005 agree on what a nondeterminism source is. *)

val d002_targets : string -> bool
(** Dotted path name is an unordered [Hashtbl.iter]/[fold] (incl. [Tbl]). *)

val d003_target : string -> bool
(** Dotted path name is a wall-clock read or the global [Random] state. *)

val d004_creators : string -> bool
(** Dotted path name creates mutable state ([ref], [Hashtbl.create], ...). *)

val d005_site : Typedtree.expression -> bool
(** Expression is a lossy float-formatting site ([string_of_float], or the
    elaborated [%f]/[%F] format constructor). *)

val dedupe_sorted : Finding.t list -> Finding.t list
(** Sort by {!Finding.compare} and drop duplicates. *)

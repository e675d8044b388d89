(** Scope classification of a source file.

    Rules are scoped: D003 has a wall-clock/Random allowlist (the measurement
    harness and the test suite legitimately read host time), D004 only
    concerns library code reachable from the [Parallel] domain pool, D005
    only concerns emitter modules whose float output is diffed byte-for-byte,
    P001 only protocol state machines, and P002 only wire codec units. The
    driver derives the classification from the repo-relative source path;
    tests construct records directly to exercise every rule on fixtures. *)

type t = {
  source : string;  (** Repo-relative source path as recorded in the .cmt. *)
  in_lib : bool;  (** Under [lib/]: D004 (toplevel mutable state) applies. *)
  in_test : bool;  (** Under [test/]: scanned by CI but not protocol code. *)
  clock_allowed : bool;
      (** Under [lib/harness/] or [test/]: D003 (wall clock, global Random)
          is suppressed — these measure host performance or drive property
          generators by design. Such sites remain T003 taint
          sources: ambient nondeterminism that {e reaches an emitter} is
          flagged interprocedurally even where the local rule is allowlisted. *)
  emitter : bool;
      (** Report/trace/codec/repro module: D005 (lossy float formatting)
          applies, and every def in the unit is a T-rule sink. *)
  codec : bool;
      (** Wire codec unit ([codec.ml], [wire.ml]): P002 encoder/decoder
          constructor-coverage parity applies. *)
  dispatch : bool;
      (** Protocol state machine (lib/core, lib/protocol, lib/chord,
          lib/baseline, lib/extensions, lib/scale): P001 wildcard-dispatch
          totality applies. *)
}

val of_source : string -> t
(** Classification used by the driver for real repo paths. *)

(** Two-phase driver over the dune-produced .cmt set.

    Phase 1 (summary build): discover and load every .cmt under the target
    dirs into {!unit_info} summaries — classification, typed tree, uid table
    and [[@ntcu.allow]] regions. Phase 2 (rule evaluation): run the
    intraprocedural registry ({!Rules.all}) per unit, build the
    cross-module {!Callgraph.t} once, and evaluate the interprocedural
    families ({!Proto}, {!Taint}, {!Escape}) over it.

    The engine reads the typed trees dune already produced ([bin_annot] is
    forced on project-wide), so linting never re-typechecks: [dune build
    @lint] is build + a fast tree walk (phase 1) + one graph pass. *)

type unit_info = {
  u_cls : Classify.t;
  u_name : string;  (** Compilation unit name, e.g. ["Ntcu_core__Codec"]. *)
  u_str : Typedtree.structure;
  u_uid_to_loc : Location.t Shape.Uid.Tbl.t;
  u_regions : Allow.region list;
}

type report = {
  fresh : Finding.t list;  (** Non-baselined findings — these fail the gate. *)
  baselined : Finding.t list;  (** Grandfathered by the baseline file. *)
  unused_baseline : Baseline.entry list;  (** Stale baseline lines. *)
  files_scanned : int;
  allow_debt : (string * Allow.region list) list;
      (** [[@ntcu.allow]] regions per source file, for the debt report. *)
  baseline_total : int;
}

val build_root : string -> string
(** [build_root root] is [root ^ "/_build/default"] when that exists, else
    [root] itself — so the engine works both from a source checkout and from
    inside a dune action whose cwd is already the build context root. *)

val find_cmts : build_root:string -> dirs:string list -> string list
(** All [.cmt] files under [dirs] (recursively, including dot-directories
    like [.ntcu_core.objs], excluding [.formatted] and the deliberately-buggy
    [lint_fixtures] tree), sorted. *)

val load_cmt : ?classify:(string -> Classify.t) -> string -> unit_info option
(** Phase-1 summary for one .cmt. Interfaces, packed modules, generated
    [.ml-gen] wrappers, and unreadable files yield [None]. *)

val analyze : unit_info list -> Finding.t list
(** Phase 2: intraprocedural rules per unit plus the P/T/C families over the
    shared call graph, allow-filtered (interprocedural findings against the
    regions of the file they are located in), deduped, sorted. *)

val lint_cmt : ?classify:(string -> Classify.t) -> string -> Finding.t list
(** Intraprocedural findings for one .cmt in isolation (allow-filtered,
    sorted) — the single-unit fast path used by tests. *)

val run :
  ?classify:(string -> Classify.t) ->
  ?dirs:string list ->
  baseline:Baseline.t ->
  root:string ->
  unit ->
  report
(** Lint every target under [root]; [dirs] defaults to [["lib"; "bin"]]. *)

val pp_report : report Fmt.t
(** Human-readable report (findings with traces, baseline stats, verdict). *)

val report_to_json : report -> string
(** Stable JSON encoding, findings sorted; schema ["ntcu-lint/2"] (findings
    carry a ["trace"] array of [{file, line, col, note}] steps). *)

val suppressions_to_json : report -> string
(** Suppression-debt report, schema ["ntcu-lint-suppressions/1"]: allow
    regions per file and per code, baseline size, stale baseline entries. *)

val exit_code : ?strict_baseline:bool -> report -> int
(** 0 when [fresh] is empty; 1 otherwise; 2 when clean but
    [strict_baseline] and stale baseline entries exist. *)

(** Replacement-candidate search for table repair.

    When an entry's occupant is gone (failed, or departed in a race), the
    entry's owner must find another live node carrying the entry's required
    suffix. The search escalates:

    + {b one-hop}: scan the tables of the owner's live neighbors and reverse
      neighbors (pure local information);
    + {b two-hop}: extend the scan to those nodes' neighbors;
    + {b suffix flood}: query the whole live membership — the expensive
      last resort a deployment would implement as a scoped multicast within
      the suffix set, modeled here by a global scan and counted separately.

    Every consulted table is counted so experiments can report the cost of
    each escalation tier.

    Every table refill in the extensions goes through {!refill}: offline
    {!Recovery}, per-suspicion {!Online_repair} and the {!Leave_protocol}
    fallback differ only in how they install the candidate it finds. *)

type outcome =
  | Found_local of { candidate : Ntcu_id.Id.t; tables_consulted : int; hops : int }
  | Found_flood of { candidate : Ntcu_id.Id.t; tables_consulted : int }
  | Not_found of { tables_consulted : int }
      (** No live node carries the suffix: the entry must stay empty. *)

val find_live :
  ?exclude:(Ntcu_id.Id.t -> bool) ->
  Ntcu_core.Network.t ->
  owner:Ntcu_table.Table.t ->
  suffix:int array ->
  outcome
(** Search for a live node (other than the owner, and not [exclude]d — e.g.
    nodes known to be leaving) whose ID ends with [suffix].

    The outcome, candidate and [hops] are those of the escalation above:
    ring 1 and then ring 2 are scanned contact by contact in [Id.Set] order,
    each contact itself first and then its table's entries by level and
    digit; the flood returns the first carrier in registration order.
    [tables_consulted] counts one table per contact scanned up to the hit,
    plus one for the flood: a miss costs [|ring 1| + |ring 2| + 1].

    A miss is settled from the live membership before any table is read, as
    no tier can find a carrier the membership lacks. Its [tables_consulted]
    is still the escalation's full count, taken without building or scanning
    the rings, so repair-cost figures do not depend on the shortcut. The
    rings hold distinct live nodes other than the owner, so the count stops
    as soon as it has counted every one of them
    ({!Ntcu_core.Network.live_count}, less the owner when live). *)

val pp_outcome : outcome Fmt.t

val install :
  Ntcu_core.Network.t ->
  Ntcu_table.Table.t ->
  level:int ->
  digit:int ->
  Ntcu_id.Id.t ->
  unit
(** [install net table ~level ~digit cand] sets the entry to [cand] in state
    [S] and adds the table's owner to [cand]'s reverse set at that position,
    as the [RvNghNotiMsg] the write implies would record. *)

(** Outcome counts of a series of {!refill}s. *)
type tally = {
  mutable local : int;  (** Entries refilled from ring 1 or ring 2. *)
  mutable flood : int;  (** Entries refilled by the suffix flood. *)
  mutable emptied : int;  (** Entries no live node could fill. *)
  mutable tables_consulted : int;  (** Summed over every search. *)
}

val tally : unit -> tally
(** A zeroed tally. *)

val refill :
  ?exclude:(Ntcu_id.Id.t -> bool) ->
  Ntcu_core.Network.t ->
  tally ->
  Ntcu_table.Table.t ->
  level:int ->
  digit:int ->
  fill:(Ntcu_id.Id.t -> unit) ->
  unit
(** One refill step for the entry at [(level, digit)]: search with
    {!find_live} for its required suffix, count the outcome and its
    [tables_consulted] in the tally, then call [fill] with the candidate on
    a hit. A miss leaves the entry as it is. [fill] is usually
    {!install}. *)

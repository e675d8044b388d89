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
    each escalation tier. *)

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
    the rings, so repair-cost figures do not depend on the shortcut. *)

val pp_outcome : outcome Fmt.t

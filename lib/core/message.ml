module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Snapshot = Ntcu_table.Table.Snapshot

type sign = Negative | Positive

let sign_equal a b =
  match (a, b) with
  | Negative, Negative | Positive, Positive -> true
  | (Negative | Positive), _ -> false

type t =
  | Cp_rst of { level : int }
  | Cp_rly of { table : Snapshot.t }
  | Join_wait
  | Join_wait_rly of { sign : sign; occupant : Id.t; table : Snapshot.t }
  | Join_noti of {
      table : Snapshot.t;
      noti_level : int;
      filled : string option;
    }
  | Join_noti_rly of { sign : sign; table : Snapshot.t; flag : bool }
  | In_sys_noti
  | Spe_noti of { origin : Id.t; subject : Id.t }
  | Spe_noti_rly of { origin : Id.t; subject : Id.t }
  | Rv_ngh_noti of { level : int; digit : int; recorded : Ntcu_table.Table.nstate }
  | Rv_ngh_noti_rly of { level : int; digit : int; state : Ntcu_table.Table.nstate }

type kind =
  | K_cp_rst
  | K_cp_rly
  | K_join_wait
  | K_join_wait_rly
  | K_join_noti
  | K_join_noti_rly
  | K_in_sys_noti
  | K_spe_noti
  | K_spe_noti_rly
  | K_rv_ngh_noti
  | K_rv_ngh_noti_rly

let kind = function
  | Cp_rst _ -> K_cp_rst
  | Cp_rly _ -> K_cp_rly
  | Join_wait -> K_join_wait
  | Join_wait_rly _ -> K_join_wait_rly
  | Join_noti _ -> K_join_noti
  | Join_noti_rly _ -> K_join_noti_rly
  | In_sys_noti -> K_in_sys_noti
  | Spe_noti _ -> K_spe_noti
  | Spe_noti_rly _ -> K_spe_noti_rly
  | Rv_ngh_noti _ -> K_rv_ngh_noti
  | Rv_ngh_noti_rly _ -> K_rv_ngh_noti_rly

let kind_count = 11

let kind_index = function
  | K_cp_rst -> 0
  | K_cp_rly -> 1
  | K_join_wait -> 2
  | K_join_wait_rly -> 3
  | K_join_noti -> 4
  | K_join_noti_rly -> 5
  | K_in_sys_noti -> 6
  | K_spe_noti -> 7
  | K_spe_noti_rly -> 8
  | K_rv_ngh_noti -> 9
  | K_rv_ngh_noti_rly -> 10

let kind_name = function
  | K_cp_rst -> "CpRstMsg"
  | K_cp_rly -> "CpRlyMsg"
  | K_join_wait -> "JoinWaitMsg"
  | K_join_wait_rly -> "JoinWaitRlyMsg"
  | K_join_noti -> "JoinNotiMsg"
  | K_join_noti_rly -> "JoinNotiRlyMsg"
  | K_in_sys_noti -> "InSysNotiMsg"
  | K_spe_noti -> "SpeNotiMsg"
  | K_spe_noti_rly -> "SpeNotiRlyMsg"
  | K_rv_ngh_noti -> "RvNghNotiMsg"
  | K_rv_ngh_noti_rly -> "RvNghNotiRlyMsg"

(* The copy walk (CpRst/CpRly) is a strictly sequential request/reply chain
   private to one joiner; every other message participates in a cross-node
   ordering the consistency argument constrains (who is stored first, when a
   T-entry flips to S, which repair notification lands before which scrub).
   Adversarial schedulers target exactly these. *)
let ordering_critical m =
  match kind m with
  | K_cp_rst | K_cp_rly -> false
  | K_join_wait | K_join_wait_rly | K_join_noti | K_join_noti_rly | K_in_sys_noti
  | K_spe_noti | K_spe_noti_rly | K_rv_ngh_noti | K_rv_ngh_noti_rly ->
    true

let pp ppf m =
  match m with
  | Cp_rst { level } -> Fmt.pf ppf "CpRstMsg(level=%d)" level
  | Cp_rly { table } -> Fmt.pf ppf "CpRlyMsg(%d cells)" (Snapshot.cell_count table)
  | Join_wait -> Fmt.string ppf "JoinWaitMsg"
  | Join_wait_rly { sign; occupant; table } ->
    Fmt.pf ppf "JoinWaitRlyMsg(%s, %a, %d cells)"
      (match sign with Negative -> "neg" | Positive -> "pos")
      Id.pp occupant (Snapshot.cell_count table)
  | Join_noti { table; noti_level; _ } ->
    Fmt.pf ppf "JoinNotiMsg(%d cells, noti_level=%d)" (Snapshot.cell_count table)
      noti_level
  | Join_noti_rly { sign; table; flag } ->
    Fmt.pf ppf "JoinNotiRlyMsg(%s, %d cells, f=%b)"
      (match sign with Negative -> "neg" | Positive -> "pos")
      (Snapshot.cell_count table) flag
  | In_sys_noti -> Fmt.string ppf "InSysNotiMsg"
  | Spe_noti { origin; subject } ->
    Fmt.pf ppf "SpeNotiMsg(origin=%a, subject=%a)" Id.pp origin Id.pp subject
  | Spe_noti_rly { origin = _; subject } -> Fmt.pf ppf "SpeNotiRlyMsg(%a)" Id.pp subject
  | Rv_ngh_noti { level; digit; recorded } ->
    Fmt.pf ppf "RvNghNotiMsg(%d,%d,%a)" level digit Ntcu_table.Table.pp_nstate recorded
  | Rv_ngh_noti_rly { level; digit; state } ->
    Fmt.pf ppf "RvNghNotiRlyMsg(%d,%d,%a)" level digit Ntcu_table.Table.pp_nstate state

type size_mode = Full | Level_range | Bit_vector

(* Wire-size model: a fixed per-message header, 4-byte IPv4 address + 2-byte
   port per node reference, packed digits for identifiers, and three bytes of
   level, digit and state per table cell. *)

let header_bytes = 16
let addr_bytes = 6

let id_bytes (p : Params.t) = ((p.d * Ntcu_id.Packed.bits_per_digit p.b) + 7) / 8

let node_ref_bytes p = id_bytes p + addr_bytes

let cell_bytes p = node_ref_bytes p + 3 (* level, digit, state *)

let snapshot_bytes p snap = Snapshot.cell_count snap * cell_bytes p

let bit_vector_bytes (p : Params.t) = ((p.d * p.b) + 7) / 8

let size_bytes (p : Params.t) m =
  header_bytes
  +
  match m with
  | Cp_rst _ -> 1
  | Cp_rly { table } -> snapshot_bytes p table
  | Join_wait -> 0
  | Join_wait_rly { table; _ } -> 1 + node_ref_bytes p + snapshot_bytes p table
  | Join_noti { table; filled; _ } ->
    1 + snapshot_bytes p table
    + (match filled with None -> 0 | Some _ -> bit_vector_bytes p)
  | Join_noti_rly { table; _ } -> 2 + snapshot_bytes p table
  | In_sys_noti -> 0
  | Spe_noti _ | Spe_noti_rly _ -> 2 * node_ref_bytes p
  | Rv_ngh_noti _ | Rv_ngh_noti_rly _ -> 3

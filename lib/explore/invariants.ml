module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Check = Ntcu_table.Check
module Suffix_index = Ntcu_table.Suffix_index
module Cset = Ntcu_cset.Cset
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Stats = Ntcu_core.Stats

type violation = Ntcu_protocol.Protocol.violation = { name : string; detail : string }

let signature v = v.name ^ ": " ^ v.detail

let liveness net =
  if Network.all_in_system net then []
  else
    let stuck = Network.stuck_joiners net in
    [
      {
        name = "liveness";
        detail =
          Fmt.str "%d joiner(s) short of in_system: %a" (List.length stuck)
            Fmt.(list ~sep:comma Id.pp)
            (List.map Node.id stuck);
      };
    ]

let consistency net =
  match Network.check_consistent ~limit:3 net with
  | [] -> []
  | first :: _ as vs ->
    [
      {
        name = "consistency";
        detail =
          Fmt.str "%d+ violation(s), first: %a" (List.length vs) Check.pp_violation
            first;
      };
    ]

(* The Section 3.3 C-set tree conditions, per notification-suffix group of
   joiners (the proof's induction unit; see test_cset.ml for the manual
   version of this walk). *)
let cset net ~seeds ~joiners =
  let p = Network.params net in
  let idx = Suffix_index.of_ids seeds in
  let lookup x = Option.map Node.table (Network.node net x) in
  let groups = ref [] in
  List.iter
    (fun x ->
      let omega = Cset.noti_suffix idx x in
      let key = Fmt.str "%a" Id.pp_suffix omega in
      groups :=
        (match List.assoc_opt key !groups with
        | Some (o, l) -> (key, (o, x :: l)) :: List.remove_assoc key !groups
        | None -> (key, (omega, [ x ])) :: !groups))
    joiners;
  List.concat_map
    (fun (key, (omega, w)) ->
      let v_root = List.filter (fun v -> Id.has_suffix v omega) seeds in
      if List.is_empty v_root then []
      else begin
        let template = Cset.template p ~root:omega ~w in
        let realized = Cset.realized ~lookup ~v_root ~root:omega ~w in
        let fail cond e =
          [ { name = "cset"; detail = Fmt.str "group '%s' %s: %s" key cond e } ]
        in
        match Cset.check_condition1 ~template ~realized with
        | Error e -> fail "condition 1" e
        | Ok () -> (
          match Cset.check_condition2 ~lookup ~v_root ~realized with
          | Error e -> fail "condition 2" e
          | Ok () -> (
            match Cset.check_condition3 ~lookup ~realized ~w with
            | Error e -> fail "condition 3" e
            | Ok () -> []))
      end)
    (List.rev !groups)

(* Every non-self store emits a RvNghNotiMsg and its receiver registers the
   storer (Node.set_entry / on_rv_ngh_noti), so at quiescence each filled
   entry of a live node must be mirrored in the occupant's reverse set.
   Occupants that are not live nodes are the consistency check's business. *)
let reverse_symmetry net =
  let first = ref None in
  List.iter
    (fun n ->
      let x = Node.id n in
      Table.iter (Node.table n) (fun ~level ~digit y _state ->
          if !first = None && not (Id.equal x y) then
            match Network.node net y with
            | Some yn when not (Network.is_failed net y) ->
              if not (Id.Set.mem x (Table.reverse_at (Node.table yn) ~level))
              then
                first :=
                  Some
                    (Fmt.str "%a stores %a at (%d,%d) but is not a reverse neighbor"
                       Id.pp x Id.pp y level digit)
            | Some _ | None -> ()))
    (Network.nodes net);
  match !first with
  | None -> []
  | Some detail -> [ { name = "reverse"; detail } ]

(* With the reliable transport, every copy that reached a live receiver was
   acked exactly once, then either delivered or suppressed as a duplicate. *)
let reliability net =
  if not (Network.reliable net) then []
  else begin
    let acks = Network.acks_sent net in
    let delivered = Network.messages_delivered net in
    let duplicates = Stats.duplicates_suppressed (Network.global_stats net) in
    if acks = delivered + duplicates then []
    else
      [
        {
          name = "reliability";
          detail =
            Fmt.str "acks_sent %d <> delivered %d + duplicates %d" acks delivered
              duplicates;
        };
      ]
  end

let budget_violation net joiner =
  match Network.node net joiner with
  | None -> None
  | Some n ->
    let bound = Ntcu_analysis.Join_cost.theorem3_bound (Network.params net) in
    let sent = Stats.copy_and_wait_sent (Node.stats n) in
    if sent <= bound then None
    else
      Some
        {
          name = "budget";
          detail =
            Fmt.str "joiner %a sent %d CpRst+JoinWait > Theorem 3 bound %d" Id.pp
              joiner sent bound;
        }

let budget net ~joiners =
  match List.find_map (budget_violation net) joiners with
  | Some v -> [ v ]
  | None -> []

let quiescent ?(expect_budget = true) ?(expect_consistency = true) ~net ~seeds ~joiners
    () =
  liveness net
  @ (if expect_consistency then consistency net @ cset net ~seeds ~joiners else [])
  @ reverse_symmetry net @ reliability net
  @ if expect_budget then budget net ~joiners else []

let midflight ?(stride = 64) ?(expect_budget = true) ~net ~joiners () =
  let events = ref 0 in
  let found = ref None in
  fun () ->
    if Option.is_none !found then begin
      incr events;
      if !events mod stride = 0 then begin
        (if expect_budget then found := List.find_map (budget_violation net) joiners);
        if Option.is_none !found then
          found :=
            List.find_map
              (fun n ->
                if
                  Node.status_equal (Node.status n) Node.In_system
                  && Node.pending_replies n > 0
                then
                  Some
                    {
                      name = "liveness";
                      detail =
                        Fmt.str "in_system node %a holds %d pending replies" Id.pp
                          (Node.id n) (Node.pending_replies n);
                    }
                else None)
              (Network.nodes net)
      end
    end;
    !found

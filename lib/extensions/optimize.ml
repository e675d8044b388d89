module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Rng = Ntcu_std.Rng

(* Candidate substitutes for x's (level, digit)-entry: nodes with the entry's
   required suffix found in the tables of x's current neighbors (one-hop
   local sampling, as in Castro et al.). *)
let candidates net table ~level ~digit =
  let suffix = Table.required_suffix table ~level ~digit in
  let owner = Table.owner table in
  let found = ref Id.Set.empty in
  let scan_table other_table =
    Table.iter other_table (fun ~level:_ ~digit:_ node _ ->
        if (not (Id.equal node owner)) && Id.has_suffix node suffix then
          found := Id.Set.add node !found)
  in
  Id.Set.iter
    (fun neighbor ->
      if not (Id.equal neighbor owner) then begin
        match Network.node net neighbor with
        | Some n -> scan_table (Node.table n)
        | None -> ()
      end)
    (Table.known_nodes table);
  !found

let pass net ~dist =
  if not (Network.is_quiescent net) then invalid_arg "Optimize.pass: network not quiescent";
  let improved = ref 0 in
  List.iter
    (fun node ->
      let table = Node.table node in
      let owner = Node.id node in
      let p = Table.params table in
      for level = 0 to p.d - 1 do
        for digit = 0 to p.b - 1 do
          match Table.neighbor table ~level ~digit with
          | Some current when not (Id.equal current owner) ->
            let best = ref current in
            let best_dist = ref (dist owner current) in
            Id.Set.iter
              (fun cand ->
                if Network.mem net cand then begin
                  let cd = dist owner cand in
                  if cd < !best_dist then begin
                    best := cand;
                    best_dist := cd
                  end
                end)
              (candidates net table ~level ~digit);
            if not (Id.equal !best current) then begin
              Repair.install net table ~level ~digit !best;
              incr improved
            end
          | Some _ | None -> ()
        done
      done)
    (Network.nodes net);
  !improved

let optimize ?(max_passes = 10) net ~dist =
  let total = ref 0 in
  let continue = ref true in
  let passes = ref 0 in
  while !continue && !passes < max_passes do
    let n = pass net ~dist in
    total := !total + n;
    incr passes;
    if n = 0 then continue := false
  done;
  !total

let average_route_stretch net ~dist ~seed ~samples =
  let rng = Rng.create seed in
  let ids = Array.of_list (Network.ids net) in
  if Array.length ids < 2 then invalid_arg "Optimize.average_route_stretch: too few nodes";
  let lookup id = Option.map Node.table (Network.node net id) in
  let total = ref 0. in
  let counted = ref 0 in
  let attempts = ref 0 in
  while !counted < samples && !attempts < 100 * samples do
    incr attempts;
    let a = Rng.pick rng ids and b = Rng.pick rng ids in
    if not (Id.equal a b) then begin
      let direct = dist a b in
      if direct > 0. then begin
        match Ntcu_routing.Route.route ~lookup ~src:a ~dst:b with
        | Ok path ->
          let cost = Ntcu_routing.Route.path_cost ~dist path in
          total := !total +. (cost /. direct);
          incr counted
        | Error _ -> ()
      end
    end
  done;
  if !counted = 0 then invalid_arg "Optimize.average_route_stretch: no measurable pairs";
  !total /. float_of_int !counted

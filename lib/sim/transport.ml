module Id = Ntcu_id.Id

type hook =
  critical:bool -> src:Id.t -> dst:Id.t -> seq:int -> float -> float

type ('node, 'msg) t = {
  engine : Engine.t;
  latency : Latency.t;
  nodes : 'node Id.Tbl.t;
  host_of : int Id.Tbl.t; (* kept for removed nodes too: indices are never reused *)
  mutable next_host : int;
  mutable order : Id.t list; (* registration order, newest first *)
  mutable hook : hook option;
  mutable seq : int; (* hook calls so far *)
  label : src:Id.t -> dst:Id.t -> 'msg -> string;
  trace : Trace.t option;
  mutable delivered : int;
}

let create ?(latency = Latency.constant 1.0) ?(record_trace = false) ~label () =
  {
    engine = Engine.create ();
    latency;
    nodes = Id.Tbl.create 1024;
    host_of = Id.Tbl.create 1024;
    next_host = 0;
    order = [];
    hook = None;
    seq = 0;
    label;
    trace = (if record_trace then Some (Trace.create ()) else None);
    delivered = 0;
  }

let engine t = t.engine
let trace t = t.trace

let register t id node =
  if Id.Tbl.mem t.nodes id then
    invalid_arg (Fmt.str "Transport.register: %a already registered" Id.pp id);
  Id.Tbl.add t.nodes id node;
  Id.Tbl.replace t.host_of id t.next_host;
  t.next_host <- t.next_host + 1;
  t.order <- id :: t.order

let remove t id =
  if not (Id.Tbl.mem t.nodes id) then
    invalid_arg (Fmt.str "Transport.remove: unknown node %a" Id.pp id);
  Id.Tbl.remove t.nodes id;
  t.order <- List.filter (fun other -> not (Id.equal other id)) t.order

let find t id = Id.Tbl.find_opt t.nodes id
let mem t id = Id.Tbl.mem t.nodes id
let host t id = Id.Tbl.find t.host_of id
let ids t = List.rev t.order
let size t = Id.Tbl.length t.nodes

let set_hook t hook = t.hook <- hook

(* The hook is consulted, and [seq] advanced, only for frames actually
   scheduled, so a run replayed with identical seeds consults it in an
   identical sequence. *)
let send t ~critical ~src ~dst deliver =
  let delay = Latency.sample t.latency ~src:(host t src) ~dst:(host t dst) in
  let delay =
    match t.hook with
    | None -> delay
    | Some f ->
      let seq = t.seq in
      t.seq <- seq + 1;
      let d = f ~critical ~src ~dst ~seq delay in
      if d <= 0. then Latency.min_delay else d
  in
  Engine.schedule t.engine ~delay deliver

let arrive t ~src ~dst msg =
  t.delivered <- t.delivered + 1;
  match t.trace with
  | Some tr -> Trace.record tr (Engine.now t.engine) (t.label ~src ~dst msg)
  | None -> ()

let delivered t = t.delivered

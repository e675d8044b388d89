type config = {
  params : Ntcu_id.Params.t;
  seed : int;
  maintain_every : float;
  rounds : int;
}

type violation = { name : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.name v.detail

type traffic = { join : int; maintain : int; total : int }

type delay_hook = Ntcu_sim.Transport.hook

module type S = sig
  val name : string
  val supports_leave : bool

  type t

  val create : ?latency:Ntcu_sim.Latency.t -> ?record_trace:bool -> config -> t
  val engine : t -> Ntcu_sim.Engine.t
  val trace : t -> Ntcu_sim.Trace.t option
  val set_delay_hook : t -> delay_hook option -> unit
  val seed_network : t -> seed:int -> Ntcu_id.Id.t list -> unit
  val start_join : t -> at:float -> id:Ntcu_id.Id.t -> gateway:Ntcu_id.Id.t -> unit
  val leave : t -> at:float -> Ntcu_id.Id.t -> unit
  val run : ?max_events:int -> t -> unit
  val members : t -> Ntcu_id.Id.t list
  val in_system : t -> Ntcu_id.Id.t -> bool
  val consistent : t -> bool
  val check : t -> violation list
  val lookup : t -> src:Ntcu_id.Id.t -> target:Ntcu_id.Id.t -> Ntcu_id.Id.t list option
  val traffic : t -> traffic
end

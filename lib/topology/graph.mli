(** Undirected weighted graphs (router networks). *)

type t

val create : int -> t
(** [create n] is an edgeless graph over vertices [0 .. n-1]. *)

val n_vertices : t -> int

val n_edges : t -> int

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v w] adds an undirected edge of weight [w > 0]. Parallel
    edges are allowed (shortest-path uses the lighter one); self-loops are
    rejected.
    @raise Invalid_argument on bad endpoints, self-loop or non-positive
    weight. *)

val neighbors : t -> int -> (int * float) list
(** Adjacent vertices with edge weights. *)

val degree : t -> int -> int

val is_connected : t -> bool
(** True iff every vertex is reachable from vertex 0 (and the graph is
    nonempty). *)

val dijkstra : t -> int -> float array
(** [dijkstra g src] returns the array of shortest-path distances from [src];
    [infinity] for unreachable vertices. It is the independent reference
    that the tests hold {!Distances} to, bit for bit, so it stays a plain
    textbook run on {!Ntcu_std.Pqueue} and shares no code with
    {!Distances}' frontiers and trees. *)

(** Uniform dispatch over the CQP search algorithms, with wall-clock
    timing — the interface the benchmark harness drives. *)

type t =
  | C_boundaries
  | C_maxbounds
  | D_maxdoi
  | D_singlemaxdoi
  | D_heurdoi
  | Exhaustive

val all : t list
(** The five paper algorithms (no Exhaustive). *)

val name : t -> string
(** The paper's figure labels, e.g. ["C_Boundaries"]. *)

val of_name : string -> t option

val required_orders : t -> Pref_space.orders
(** [D_only] when the algorithm never touches the C/S vectors, so
    Preference Space can skip building them (Figure 12(b)). *)

val run :
  ?budget:Cqp_resilience.Budget.t ->
  t ->
  Pref_space.t ->
  cmax:float ->
  Solution.t
(** Build the appropriate space, solve Problem 2, and stamp
    [stats.wall_seconds].  [budget] (default unlimited) makes the
    search anytime: on expiry the best solution found so far is
    returned. *)

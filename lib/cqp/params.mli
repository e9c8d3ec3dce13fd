(** Query parameters and range constraints (Section 4.1).

    A (personalized) query is characterized by three parameters: its
    degree of interest [doi], its execution [cost] (milliseconds under
    the block-I/O model), and its result [size] (tuples).  A CQP
    constraint set places an upper bound on cost, a lower bound on doi,
    and/or a size interval (the lower size bound defaults to 1 —
    "empty answers are always undesirable"). *)

type t = { doi : float; cost : float; size : float }

type constraints = {
  cmax : float option;  (** upper bound on execution cost *)
  dmin : float option;  (** lower bound on degree of interest *)
  smin : float option;  (** lower bound on result size (default 1) *)
  smax : float option;  (** upper bound on result size *)
}

val unconstrained : constraints
val with_cmax : float -> constraints
val make :
  ?cmax:float -> ?dmin:float -> ?smin:float -> ?smax:float -> unit ->
  constraints

val satisfies : constraints -> t -> bool
(** All present bounds hold (cost ≤ cmax, doi ≥ dmin,
    smin ≤ size ≤ smax). *)

val violates_cost : constraints -> t -> bool
val violates_size : constraints -> t -> bool

val pp : Format.formatter -> t -> unit
val pp_constraints : Format.formatter -> constraints -> unit

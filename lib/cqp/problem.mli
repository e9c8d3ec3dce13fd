(** The CQP problem family (Table 1 of the paper).

    Each problem optimizes one query parameter while the others satisfy
    range constraints:

    {v
    #   objective        cost           doi          size
    1   MAX doi          -              -            smin <= size <= smax
    2   MAX doi          cost <= cmax   -            -
    3   MAX doi          cost <= cmax   -            smin <= size <= smax
    4   MIN cost         -              doi >= dmin  -
    5   MIN cost         -              doi >= dmin  smin <= size <= smax
    6   MIN cost         -              -            smin <= size <= smax
    v} *)

type objective = Maximize_doi | Minimize_cost

type t = private {
  number : int;  (** 1..6, the paper's numbering *)
  objective : objective;  (** follows from [number] *)
  constraints : Params.constraints;
}
(** Built only by {!make} (the six [problemN] go through it), so every
    problem a solver sees has a shape it answers. *)

val make :
  ?objective:objective -> int -> Params.constraints -> (t, string) result
(** [make n constraints] is Problem [n] under [constraints], or why it
    is not one:
    - [n] is 1–6;
    - [objective], when given, is the one [n] implies (Problems 1–3
      maximize doi, 4–6 minimize cost);
    - Problems 2 and 3 have a [cmax];
    - Problem 1 has at least one size bound;
    - no bound is NaN.  An infinite bound is accepted and constrains
      nothing. *)

val problem1 : smin:float -> smax:float -> t
val problem2 : cmax:float -> t
val problem3 : cmax:float -> smin:float -> smax:float -> t
val problem4 : dmin:float -> t
val problem5 : dmin:float -> smin:float -> smax:float -> t
val problem6 : smin:float -> smax:float -> t
(** The Table-1 shapes through {!make}.
    @raise Invalid_argument on a NaN bound. *)

val describe : t -> string
(** e.g. ["Problem 2: maximize doi subject to cost <= 400"]. *)

val better : t -> float -> float -> bool
(** [better p a b]: is objective value [a] strictly better than [b]
    under the problem's optimization direction? *)

val objective_value : t -> Params.t -> float
val pp : Format.formatter -> t -> unit

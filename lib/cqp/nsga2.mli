(** Tri-objective Pareto fronts over (doi up, cost down, size down) —
    every query parameter the paper models at once, and the only front
    computation: {!Pareto}'s doi/cost front is the {!Pareto.skyline} of
    {!front}.  The module keeps its historical name because perfbench,
    frozen with [BENCHMARK.json], calls it by that name.

    {!build} is deterministic, so [front] is a pure function of its
    inputs, which the front cache and the 1/2/4-domain differential
    suites rely on. *)

type point = Pareto.point = { pref_ids : int list; params : Params.t }

val dominates : point -> point -> bool
(** Tri-objective dominance: no worse on doi, cost {e and} size,
    strictly better on at least one. *)

val is_front : point list -> bool
(** All points mutually non-dominated under {!dominates} (tests). *)

val compare_points : point -> point -> int
(** The canonical front order: cost ascending, then size ascending,
    then doi descending, then the id sets — a total order, so equal
    point sets sort bit-identically whatever their input order. *)

val non_dominated : point list -> point list
(** The non-dominated subset in canonical order, O(n log n); of several
    points with one (doi, cost, size) triple only the first survives. *)

val hypervolume : ref_point:Params.t -> point list -> float
(** Volume (in objective space) dominated by the points and bounded by
    [ref_point], which must be weakly worse than every point (higher
    cost, higher size, lower doi); points not strictly better than the
    reference on all three objectives contribute nothing. *)

val build : ?constraints:Params.constraints -> Space.t -> point list * float
(** The front over every subset, feasible per {!Pareto.feasible}, in
    canonical order, and the factor it is within (1.0: exact).  Params
    are the subset enumeration's bit for bit ({!Space.params_with_id}
    in ascending id order).  While partial fronts fit 4,096 points the
    points are the enumeration front's distinct triples; past that, for
    every subset of size in [smin, smax / factor] some point has doi no
    lower and cost and size within the factor, up to float rounding.
    At most 4,096 points. *)

val front :
  ?constraints:Params.constraints -> ?exact_max_k:int -> Space.t -> point list
(** The points of {!build}; the ignored argument exists only because
    perfbench, frozen with [BENCHMARK.json], passes it. *)

(** {1 Serving form} *)

type serving
(** A front arranged for budgeted serving: points in canonical
    (cost-ascending) order plus a prefix best-doi index. *)

val serving_of_front : point list -> serving
val points_held : serving -> int

val point : serving -> int -> point
(** The i-th point in cost order (the index recorded on responses). *)

val pick : serving -> budget_ms:float -> (int * point) option
(** The best-doi point whose estimated cost fits [budget_ms], by
    binary search on cost then one prefix-index lookup — O(log n).
    [None] when nothing fits (or the front is empty). *)

val knee : serving -> (int * point) option
(** The front's {!Pareto.knee} with its index — the quality floor a
    degraded request falls back to when no point fits its remaining
    budget. *)

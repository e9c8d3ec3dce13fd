(** Tri-objective Pareto fronts over (doi up, cost down, size down) —
    every query parameter the paper models at once, and the only front
    computation: {!Pareto}'s doi/cost front is the {!Pareto.skyline} of
    {!front}.

    Below {!Pareto.exact_budget_k} preferences the front is computed
    by exact subset enumeration; beyond it, by an NSGA-II-style
    evolutionary search (Deb's fast non-dominated sort, crowding
    distance, constrained domination) built on the shared
    {!Metaheuristics.Ga} operators over subset genomes.  Both paths
    are deterministic: the exact path is enumeration plus a canonical
    sort, the evolutionary path derives every random draw from a fixed
    internal seed, so [front] is a pure function of its inputs — the
    property the serving layer's front cache and the 1/2/4-domain
    differential suites rely on.

    The serving form ({!serving}) stores a front sorted by cost with a
    prefix best-doi index, so a degraded request can pick the best
    operating point that fits its remaining budget in O(log n). *)

type point = Pareto.point = { pref_ids : int list; params : Params.t }

val dominates : point -> point -> bool
(** Tri-objective dominance: no worse on doi, cost {e and} size,
    strictly better on at least one. *)

val is_front : point list -> bool
(** All points mutually non-dominated under {!dominates} (tests). *)

val compare_points : point -> point -> int
(** The canonical front order: cost ascending, then size ascending,
    then doi descending, then the id sets — a total order, so equal
    point sets compare bit-identically regardless of builder. *)

val non_dominated : point list -> point list
(** The non-dominated subset, in canonical order. *)

val non_dominated_sort : point array -> int list list
(** Deb's fast non-dominated sort, O(MN^2): partitions indices into
    fronts of increasing rank; within a front, indices ascend. *)

val crowding : point array -> float array
(** Crowding distances for one front: boundary points of every
    spanning objective are [infinity]; an objective with zero span
    contributes nothing (never NaN); fronts of at most two points are
    all-infinite. *)

val hypervolume : ref_point:Params.t -> point list -> float
(** Volume (in objective space) dominated by the points and bounded by
    [ref_point], which must be weakly worse than every point (higher
    cost, higher size, lower doi); points not strictly better than the
    reference on all three objectives contribute nothing. *)

val exact_front : ?constraints:Params.constraints -> Space.t -> point list
(** Ground truth by exhaustive enumeration (size-interval feasibility
    per {!Pareto.feasible}), in canonical order — the repository's one
    subset enumerator for fronts.
    @raise Invalid_argument past {!Exhaustive.max_k}. *)

val evolve : ?constraints:Params.constraints -> Space.t -> point list
(** The evolutionary front at any K: elitist (mu + lambda) NSGA-II
    over boolean subset genomes (population 64, per-bit mutation rate
    0.03), seeded with the empty set and every singleton, selecting by
    (rank, crowding) through the shared {!Metaheuristics.Ga} operators
    under a budget of 4096 parameter evaluations.  Every feasible
    evaluation feeds an archive; the result is the non-dominated
    filter over the archive in canonical order — deterministic, since
    every draw comes from one fixed seed. *)

val front :
  ?constraints:Params.constraints -> ?exact_max_k:int -> Space.t -> point list
(** {!exact_front} up to [exact_max_k] (default {!Exhaustive.max_k},
    always capped by it), {!evolve} beyond — the repository's only
    front computation.  The serving layer and [cqp pareto] pass
    [~exact_max_k:{!Pareto.exact_budget_k}]; the 2D (doi, cost) front
    is {!Pareto.skyline} of this front. *)

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

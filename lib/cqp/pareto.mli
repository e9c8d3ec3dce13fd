(** Multi-objective CQP (the paper's Section 8 future work: "studying
    query personalization as a multi-objective constrained optimization
    problem, where more than one query parameter may be optimized
    simultaneously").

    Instead of optimizing one parameter under bounds on the others,
    present the {e Pareto front} over (doi ↑, cost ↓): the
    personalizations not dominated by any other.  A point dominates
    another when its doi is no smaller and its cost no larger, strictly
    better in at least one.  Presented with the front, a
    context-mapping policy can pick a point without committing to a
    single Table-1 problem in advance.

    This module is the 2D algebra (dominance, {!skyline}, {!knee}); it
    enumerates nothing.  {!Nsga2.front} computes every front: each
    (doi, cost) pair on the 2D front is also the projection of a point
    on the tri-objective (doi, cost, size) front, so the 2D front is
    [skyline (Nsga2.front space)] — exact up to {!exact_budget_k},
    the skyline of the evolutionary front beyond.  Size constraints,
    when given, filter candidates ({!feasible}) before the dominance
    pass. *)

type point = { pref_ids : int list; params : Params.t }

val exact_budget_k : int
(** The shared exact/approximate switch-over (16): up to 2^16 subset
    enumerations, an exact front fits an interactive latency budget,
    so the CLI, the bench, and the serving layer all fall back to an
    approximate front above this K.  Distinct from
    {!Exhaustive.max_k}, the hard guard past which exact enumeration
    refuses to run at all. *)

val feasible : Params.constraints option -> Params.t -> bool
(** Candidate filter shared by every front builder: only the size
    interval filters (doi and cost are the objectives themselves);
    [None] accepts everything. *)

val dominates : point -> point -> bool
val is_front : point list -> bool
(** All points mutually non-dominated (for tests). *)

val skyline : point list -> point list
(** The non-dominated subset in increasing-cost order: a candidate
    survives only when it strictly improves the best doi seen so far
    (equal-cost ties keep the best doi).  The output always satisfies
    {!is_front}, and the function is idempotent — both properties are
    qcheck laws in [test/test_pareto_laws.ml]. *)

val knee : point list -> point option
(** The "knee" of a front: the point maximizing the doi gain per unit
    cost relative to the front's extremes — a reasonable default choice
    for a policy with no other information.  [None] on an empty
    front.  Normalization spans are seeded from the front itself, so
    degenerate (single-value) and all-negative fronts are handled. *)

val pp : Format.formatter -> point list -> unit

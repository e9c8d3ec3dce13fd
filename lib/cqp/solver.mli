(** Solving every CQP problem of Table 1 (Section 6).

    The paper observes that all six problems share the same state
    spaces and partial orders, so the Section-5 algorithms apply after
    re-orienting the Horizontal/Vertical transitions.  This module
    realizes that observation in one reduction, which maps each
    {!Problem.t} (valid by construction) to one of four searches:

    {v
    problem                  search
    2                        doi under cmax, on P
    1, smin only             doi under log(size(Q)/smin), on Pref_space.log_size P
    1, size(Q) below smin    unreachable: no answer
    1 with smax, 3           max_doi_bnb on the constraints; probes capped at cmax or none
    4, 5, 6                  min_cost_bnb on the constraints
    v}

    The log-size view is exact: since [size(Q ∧ Px) = size(Q) · Π fracᵢ],
    the floor [size ≥ smin] is the additive bound
    [Σ (−log fracᵢ) ≤ log(size(Q)/smin)] — the paper's "reverse the
    transition directions on the S vector", in additive form.
    {!max_doi_bnb} takes items in decreasing doi order, pruning on the
    noisy-or optimistic bound and on monotone infeasibility (cost over
    budget, size under [smin] — both only worsen as preferences are
    added); {!min_cost_bnb} takes them in cost order with doi- and
    size-feasibility pruning.

    {!solve}, {!solve_heuristic} and {!portfolio} differ only in which
    searches they run on the reduced problem.  They, and
    {!solve_greedy}, finish an answer one way: re-evaluated on the
    original preferences, its size repaired when the constraints do not
    hold ([None] when that fails too), the search's stats kept.

    All six problems are therefore solved exactly (up to the 2M-node
    budget that guards pathological instances, after which a greedy
    completion keeps the answer feasible). *)

val solve :
  ?algorithm:Algorithm.t ->
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** [None] when no subset of [P] (including the empty one) satisfies
    the constraints.  The default algorithm is [C_boundaries] (exact).
    [budget] (default unlimited) makes the dispatched search anytime:
    on deadline expiry it stops expanding and returns its best-so-far
    {e feasible} answer — possibly [None] if none was reached in time.
    An unlimited budget costs nothing and changes nothing. *)

val solve_heuristic :
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** The serve path's first degradation rung: one cheap heuristic
    instead of the configured algorithm.  The doi searches run
    D-SINGLEMAXDOI (an interval under its probe cap); cost minimization
    adds preferences cheapest first until the constraints hold.
    Finished like {!solve}. *)

val solve_greedy :
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** The last personalized rung: a single doi-ordered greedy pass with
    no search — maximization takes every preference that keeps the
    state feasible, minimization adds until the constraints hold.
    O(k) parameter extensions; finished like {!solve}. *)

val min_cost_bnb :
  ?budget:Cqp_resilience.Budget.t ->
  Space.t ->
  Params.constraints ->
  Solution.t option
(** The Problems-4/6 branch-and-bound, exposed for tests: minimal-cost
    subset satisfying the constraints.  Deadline expiry is treated like
    node-budget exhaustion: stop expanding, and when nothing feasible
    was found add preferences cheapest first, then in doi order, until
    the constraints hold. *)

val max_doi_bnb :
  ?budget:Cqp_resilience.Budget.t ->
  Space.t ->
  Params.constraints ->
  Solution.t option
(** The Problems-1/3 branch-and-bound, exposed for tests: maximal-doi
    subset satisfying the constraints (ties broken towards lower
    cost).  Anytime under [budget] like {!min_cost_bnb}. *)

(** {1 Portfolio mode}

    Rather than committing to one algorithm, {!portfolio} races every
    member applicable to the reduced problem — the five Section-5
    algorithms on a doi-under-cost search, the exact branch-and-bound
    otherwise, and simulated-annealing/tabu probes on the doi searches
    — across the domains of a {!Cqp_par.Pool.t}, then merges.

    The merge is deterministic by construction: every member runs to
    completion (no first-finisher cancellation), member randomness is
    split per member index, and candidates are folded in member order
    picking the strictly better objective value with exact ties broken
    towards the smaller state bitmask (lexicographic sorted ids when
    [k] exceeds {!State.max_mask_bits}).  The answer is therefore a
    function of [(ps, problem, seed)] alone — bit-identical with any
    pool size, or with no pool at all ([test/test_par_diff.ml] checks
    this, and the objective against [Exhaustive.solve_problem]). *)

val portfolio :
  ?pool:Cqp_par.Pool.t ->
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** The race's winner, finished like {!solve}; [None] when no member
    finds a feasible subset.  Publishes [solver.portfolio.races],
    [solver.portfolio.members] and a [solver.portfolio.win.<member>]
    counter for the merged winner.  The metaheuristic probes are seeded
    with [0x5EED].  All members share [budget] (it is domain-safe), so
    one deadline caps the whole race; note that {e which} member wins
    under an expiring budget depends on where each search was cut, so
    determinism across pool sizes is only guaranteed with an unlimited
    budget. *)

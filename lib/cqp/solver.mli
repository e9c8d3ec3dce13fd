(** Solving every CQP problem of Table 1 (Section 6).

    The paper observes that all six problems share the same state
    spaces and partial orders, so the Section-5 algorithms apply after
    re-orienting the Horizontal/Vertical transitions.  This module
    realizes that observation:

    - {b Problem 2} dispatches directly to the chosen algorithm.
      When no [smax] is involved, {b Problem 1} reduces exactly to the
      same shape: since [size(Q ∧ Px) = size(Q) · Π fracᵢ], the lower
      size bound [size ≥ smin] is the additive constraint
      [Σ (−log fracᵢ) ≤ log(size(Q)/smin)] — a cost bound on a space
      whose per-item cost is [−log frac] (the paper's "reverse the
      transition directions on the S vector", in additive form).
    - {b Problems 1 and 3} with a full size interval (and Problem 3's
      cost bound) use an exact doi-maximizing branch-and-bound: items
      in decreasing doi order, pruning on the noisy-or optimistic bound
      and on monotone infeasibility (cost over budget, size under
      [smin] — both only worsen as preferences are added).
    - {b Problems 4–6} (cost minimization) use an exact
      branch-and-bound in cost order with doi- and size-feasibility
      pruning.

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
    An unlimited budget costs nothing and changes nothing.
    @raise Invalid_argument on an unknown problem number outside 1–6. *)

val solve_heuristic :
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** The serve path's first degradation rung: one cheap heuristic
    instead of the configured algorithm.  Doi-maximization problems run
    D-SINGLEMAXDOI (through the log-size reduction for Problem 1
    without [smax]); cost-minimization problems run a cheapest-first
    greedy to feasibility.  Same feasibility checking (and size repair)
    as {!solve}.
    @raise Invalid_argument as {!solve}. *)

val solve_greedy :
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** The last personalized rung: a single doi-ordered greedy pass with
    no search — maximization takes every preference that keeps the
    state feasible, minimization adds until the constraints hold.
    O(k) parameter extensions; never raises on problem shape. *)

val min_cost_bnb :
  ?budget:Cqp_resilience.Budget.t ->
  Space.t ->
  Params.constraints ->
  Solution.t option
(** The Problems-4/6 branch-and-bound, exposed for tests: minimal-cost
    subset satisfying the constraints.  Deadline expiry is treated like
    node-budget exhaustion: stop expanding, fall back to the greedy
    completion when nothing feasible was found. *)

val log_size_pref_space : Pref_space.t -> Pref_space.t
(** The Problem-1 reduction's transformed preference space: per-item
    cost replaced by the additive size resource [−log frac], C re-sorted
    accordingly.  A cost bound [cmax' = log (base_size /. smin)] on this
    space is exactly the size floor on the original — so every Section-5
    algorithm runs unchanged on Problem 1 (used by the harness to
    reproduce the paper's "similar results were obtained for the other
    CQP problems"). *)

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
    member applicable to the problem — the five Section-5 algorithms
    (directly for Problem 2, through the log-size reduction for
    Problem 1 without [smax]), the exact branch-and-bounds, and
    simulated-annealing/tabu probes — across the domains of a
    {!Cqp_par.Pool.t}, then merges.

    The merge is deterministic by construction: every member runs to
    completion (no first-finisher cancellation), member randomness is
    split per member index, and candidates are folded in member order
    picking the strictly better objective value with exact ties broken
    towards the smaller state bitmask (lexicographic sorted ids when
    [k] exceeds {!State.max_mask_bits}).  The answer is therefore a
    function of [(ps, problem, seed)] alone — bit-identical with any
    pool size, or with no pool at all ([test/test_par_diff.ml] checks
    this against {!solve} and {!parallel_oracle}). *)

val portfolio :
  ?pool:Cqp_par.Pool.t ->
  ?budget:Cqp_resilience.Budget.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** Feasibility-checked (and size-repaired, like {!solve}) winner of
    the race; [None] when no member finds a feasible subset.  Publishes
    [solver.portfolio.races], [solver.portfolio.members] and a
    [solver.portfolio.win.<member>] counter for the merged winner.
    The metaheuristic probes are seeded with [0x5EED].  All
    members share [budget] (it is domain-safe), so one deadline caps
    the whole race; note that {e which} member wins under an expiring
    budget depends on where each search was cut, so determinism across
    pool sizes is only guaranteed with an unlimited budget.
    @raise Invalid_argument as {!solve}. *)

val parallel_oracle :
  ?pool:Cqp_par.Pool.t ->
  Pref_space.t ->
  Problem.t ->
  Solution.t option
(** Exhaustive ground truth for any Table-1 problem, fanned out as
    [2^min(k,4)] enumeration shards partitioned by the membership
    pattern of the low preference ids.  The partitioning is fixed (not
    derived from the pool size) and shard merging uses the same
    objective-then-bitmask order as {!portfolio}, so the result is
    deterministic for any pool size.  May differ from
    [Exhaustive.solve_problem] in {e which} optimal subset it returns
    (first-found vs. smallest-mask tie-break) but never in objective
    value.
    @raise Invalid_argument when [k] exceeds [Exhaustive.max_k]. *)

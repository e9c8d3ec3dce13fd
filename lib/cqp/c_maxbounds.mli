(** Algorithm C-MAXBOUNDS (Section 5.2.1, Figure 7) — heuristic,
    cost-space.

    Builds {e maximal} boundaries so that none is a subset of (or
    reachable from) another, fixing the two inefficiencies of
    C-BOUNDARIES: redundant sub-boundaries and boundaries lying below
    earlier ones.  Each round seeds the search with the most expensive
    preference not yet examined and greedily saturates states with
    Horizontal2 insertions ({!Space.saturate}: the most expensive
    preference that still fits first); Vertical neighbors retaining
    the seed continue the round.  The round loop stops once a maximal
    boundary covers every remaining preference.  Phase two is
    {!Cost_phase2.find_max_doi}. *)

val find_max_bounds :
  budget:Cqp_resilience.Budget.t -> Space.t -> cmax:float -> State.t list
(** Phase one only (exposed for the worked Figure 8 example and tests).
    The space must be cost-ordered.  Stops early (best-so-far bounds)
    on [budget] expiry. *)

val solve :
  ?budget:Cqp_resilience.Budget.t -> Space.t -> cmax:float -> Solution.t

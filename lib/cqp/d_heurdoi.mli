(** Algorithm D-HEURDOI (Section 5.2.2, Figure 11) — heuristic,
    doi-space, queue-free.

    D-SINGLEMAXDOI without the queue: it runs the same seeded rounds
    ({!D_singlemaxdoi.rounds}), but instead of a Vertical exploration
    queue each round greedily saturates the seed with Horizontal2
    insertions ({!Space.saturate}), then probes alternatives by
    successively truncating the found solution (dropping its last
    doi-order elements) and re-climbing with the dropped element
    forbidden.  Every state a climb passes counts as visited.  No
    states are stored beyond the current one, which is why the
    algorithm is extremely fast and memory-light (the paper's Figures
    12–13). *)

val solve :
  ?budget:Cqp_resilience.Budget.t -> Space.t -> cmax:float -> Solution.t
(** The space must be doi-ordered.  Keeps the best solution found when
    [budget] expires mid-search. *)

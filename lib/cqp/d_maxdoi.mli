(** Algorithm D-MAXDOI (Section 5.2.2, Figure 9) — provably optimal,
    doi-space.

    Phase one (FINDOPTIMAL) walks the doi state space: from each queued
    node it applies Horizontal transitions while the cost constraint
    holds, records the last satisfying node as a candidate solution,
    and queues the Vertical neighbors of the first violating successor.
    Doi-based Vertical transitions are "blind" with respect to cost,
    which is why this algorithm explores large parts of the space
    (the paper's Figure 12 discussion).  Phase two (D_FINDMAXDOI) scans
    the candidate solutions in decreasing group size with the
    BestExpectedDoi early exit — solutions live in the D order, so
    their doi is read off directly. *)

val solve :
  ?budget:Cqp_resilience.Budget.t -> Space.t -> cmax:float -> Solution.t

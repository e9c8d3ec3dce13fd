(** Algorithm D-SINGLEMAXDOI (Section 5.2.2, Figure 10) — heuristic,
    doi-space, single-phase.

    Follows the C-MAXBOUNDS idea in the doi space: every round seeds
    the search with the next preference in decreasing-doi order,
    greedily saturates states with Horizontal2 insertions
    ({!Space.saturate}: the highest-doi preference that still fits the
    cost budget first), and explores Vertical neighbors that retain
    the seed.  It keeps the best solution seen and stops as soon as
    the best doi already exceeds BestExpectedDoi, the doi of all
    not-yet-seeded preferences combined. *)

val solve :
  ?budget:Cqp_resilience.Budget.t -> Space.t -> cmax:float -> Solution.t
(** The space must be doi-ordered.  Keeps the best solution found when
    [budget] expires mid-search. *)

val rounds :
  name:string ->
  budget:Cqp_resilience.Budget.t ->
  Space.t ->
  cmax:float ->
  (consider:(Space.valued -> unit) -> int -> unit) ->
  Solution.t
(** [rounds ~name ~budget space ~cmax round] — the seeded-round driver
    of D-SINGLEMAXDOI and D-HEURDOI.  It calls [round ~consider seed]
    for seed positions 0, 1, … in a span named [name] (attribute
    [seed]), while seeds remain, the best doi does not exceed
    BestExpectedDoi ({!Pref_space.suffix_doi} from the last seed) and
    [budget] has not expired; it then tags the enclosing span with the
    number of [rounds].  [consider] is the best-feasible tracker: it
    keeps the first state of the highest doi among those within
    [cmax].  The answer is that state, or the empty solution. *)

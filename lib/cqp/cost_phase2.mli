(** C_FINDMAXDOI — the shared second phase of the cost-space algorithms
    (Figure 5) — and the BestExpectedDoi scan both algorithm families
    end with.

    Given the boundaries found by phase one (states over the C vector),
    search {e below} each boundary for the node of maximum doi.  A
    position [k] of a boundary may be replaced by any position [j ≥ k]
    (a cheaper-or-equal preference), so the best node below a boundary
    is found greedily, most-constrained slot first, without evaluating
    dois: since [P] is sorted by decreasing doi, the slot just takes
    the smallest unused preference identifier available to it.
    Boundaries are examined in decreasing group size with the
    BestExpectedDoi early exit. *)

val best_expected :
  Space.t ->
  group:('a -> int) ->
  value:('a -> 'b * float) ->
  'a list ->
  'b option
(** [best_expected space ~group ~value candidates] — the one phase-two
    scan.  Candidates are taken in decreasing [group] size (a stable
    sort); before the first candidate of a smaller group [g], the scan
    stops once the best doi found exceeds BestExpectedDoi, the doi of
    the [g] best preferences combined ({!Pref_space.prefix_doi}).  Each
    candidate scanned counts one visit and is passed to [value] for
    its answer and doi; the first answer of the highest doi wins.
    [None] on an empty list.  C_FINDMAXDOI values a boundary by
    {!best_below}; D-MAXDOI passes its valued candidates with the doi
    they carry, so it adds no parameter evaluation. *)

val find_max_doi : Space.t -> State.t list -> Solution.t
(** [find_max_doi space boundaries] — [space] must be cost-ordered. *)

val best_below : Space.t -> State.t -> int list
(** Preference ids of the maximum-doi node below one boundary (used by
    tests). *)

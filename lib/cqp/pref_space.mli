(** The Preference Space module (Section 4.4, Figure 3).

    Given a query [Q] and a profile [U], extracts the set [P] of atomic
    and implicit selection preferences related to [Q] — those whose
    personalization-graph paths attach to a relation of [Q] — by a
    best-first traversal in decreasing order of doi, pruning candidates
    that can never satisfy the CQP constraints.

    The output carries the paper's three pointer vectors over [P]:
    - [D]: positions in decreasing doi (the identity, since [items] are
      kept in that order);
    - [C]: positions ordering [cost(Q ∧ p)] decreasing;
    - [S]: positions ordering [size(Q ∧ p)] increasing.

    Vector entries are 0-based indices into [items].  {!of_items} is
    the one place that orders items and builds the vectors; a space
    with prescribed item parameters (tests, the bench's fabricated
    spaces) is built through it too.  Doi arithmetic is
    {!Cqp_prefs.Doi}'s (Formulas 9 and 10). *)

type item = {
  path : Cqp_prefs.Path.t;
  doi : float;  (** composed doi of the path *)
  cost : float;  (** cost(Q ∧ p) *)
  size : float;  (** size(Q ∧ p) *)
}

type t = {
  estimate : Estimate.t;
  items : item array;  (** P, in decreasing doi *)
  d : int array;
  c : int array;
  s : int array;
}

type orders = D_only | All_orders

val build :
  ?constraints:Params.constraints ->
  ?max_k:int ->
  ?max_path_length:int ->
  ?orders:orders ->
  Estimate.t ->
  Cqp_prefs.Profile.t ->
  t
(** Run the traversal.  [max_k] truncates to the top-K preferences by
    doi (the experiments' K parameter); [max_path_length] bounds
    implicit-preference length (default: number of catalog relations);
    [orders = D_only] skips building [C] and [S] (the cheaper variant
    timed as D_PrefSelTime in Figure 12(b)).

    Equivalent to {!assemble} of {!extract} — the serve layer uses the
    split form to cache the walk across requests. *)

val extract :
  ?constraints:Params.constraints ->
  ?max_path_length:int ->
  Estimate.t ->
  Cqp_prefs.Profile.t ->
  Cqp_prefs.Path.t list
(** The personalization-graph walk alone: every deduplicated candidate
    path reachable from Q's anchor relations, in deterministic emission
    order, {e un}-priced and {e un}-filtered except for chain-viability
    pruning.  The result depends only on (profile, Q's relation set and
    base cost, [constraints.cmax], [max_path_length], catalog) — not on
    Q's WHERE clause — so it may be reused across requests agreeing on
    those; {!Cache} exploits exactly this. *)

val assemble :
  ?constraints:Params.constraints ->
  ?max_k:int ->
  ?orders:orders ->
  Estimate.t ->
  Cqp_prefs.Path.t list ->
  t
(** Price the candidate paths with this request's estimator (cost/size
    depend on Q's full WHERE clause, hence are never cached with the
    walk), drop items violating [constraints], and hand the rest to
    {!of_items}.  [build e p = assemble e (extract e p)] bit-for-bit. *)

val of_items : ?max_k:int -> ?orders:orders -> Estimate.t -> item list -> t
(** Sort [items] by decreasing doi (ties by {!Cqp_prefs.Path.compare} —
    a total order, so the result is independent of the list's order),
    truncate to [max_k], and build the pointer vectors ([C] and [S]
    only under [All_orders], the default).  [estimate] prices the empty
    set and scales item sizes into fractions. *)

val k : t -> int
(** Cardinality of [P]. *)

val supreme_cost : t -> float
(** Cost of the query integrating all K preferences — the paper's
    "Supreme Cost", the 100% point of the cmax sweeps. *)

val log_size : t -> t
(** The size-resource view of Section 6: each item's cost becomes
    [−log frac], its size fraction of [size(Q)] (1e9 when the fraction
    is 0), and C is re-sorted by it.  Since
    [size(Q ∧ Px) = size(Q) · Π fracᵢ], a bound [log (size(Q) /. s)]
    on the summed cost of a set is the bound [size ≥ s] on the original,
    so the Section-5 cost-bounded searches and the dual-boundary
    search run unchanged on a size constraint. *)

val supreme_doi : t -> float
(** doi of the all-preferences conjunction (the best possible doi). *)

val prefix_doi : t -> int -> float
(** [prefix_doi t g]: doi of the top-[g] preferences by doi — the
    BestExpectedDoi bound for groups of size [g]. *)

val suffix_doi : t -> int -> float
(** [suffix_doi t k]: doi of preferences [k..K-1] (0-based) combined —
    the BestExpectedDoi bound used by single-phase algorithms. *)

val pp : Format.formatter -> t -> unit

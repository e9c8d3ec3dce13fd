(** Parameter estimation for personalized queries (Sections 4.3, 7.1).

    An estimator is bound to a catalog and an initial query [Q] and
    prices candidate personalized queries [Q ∧ Px] without executing
    them:

    - {b cost}: the paper's I/O-only model.  Each preference [pᵢ]
      becomes one sub-query [qᵢ] reading Q's relations plus the
      relations on the preference path, at [blocks(R) · b] ms per
      relation; the personalized query costs the sum over its
      sub-queries (Formula 6/11), group-by considered free.
    - {b size}: a System-R-style selectivity estimate.  Each preference
      keeps a fraction of Q's answer (terminal-selection selectivity
      propagated through the join path under uniformity/containment);
      the [HAVING count( * ) = L] intersection multiplies fractions
      under independence.  This construction guarantees the paper's
      partial order (Formula 8: more preferences, no larger size).

    A preference's doi needs no estimator: it is {!Cqp_prefs.Path.doi}
    (Formula 9), and a set's is {!Cqp_prefs.Doi.combine} (Formula 10).

    Both priced parameters admit O(1) incremental updates along state
    transitions — cost is additive, size multiplicative — and the
    state-space algorithms exploit this through [Space.valued], which
    threads a [(state, Params.t)] pair along Horizontal/Vertical
    transitions instead of re-folding the whole preference set per
    visited node. *)

type t

(** Cross-request memo for the per-predicate catalog lookups
    (selectivity of an atomic comparison, distinct count of an
    attribute, block count of a relation).  Every memoized entry is a
    pure function of the catalog and its key, so sharing a memo across
    estimators over the {e same} catalog cannot change any estimate —
    it only skips the fold that recomputes it.  One memo must never be
    shared across catalogs; the serve layer owns that pairing. *)
module Memo : sig
  type t

  val create : unit -> t

  val lookups : t -> int
  (** Probes since creation (monotone; the serve layer publishes deltas
      as [serve.cache.estimate.lookups]). *)

  val hits : t -> int
  val entries : t -> int
end

val create : ?memo:Memo.t -> Cqp_relal.Catalog.t -> Cqp_sql.Ast.query -> t
(** Costs are priced at the paper's [b] = {!Cqp_exec.Io.default_block_ms}
    per block read.  [memo], when given, memoizes this estimator's
    per-predicate catalog lookups across requests; it must have been
    created for (or only ever used with) the same catalog.
    @raise Invalid_argument when [Q] references unknown relations. *)

val catalog : t -> Cqp_relal.Catalog.t
val query : t -> Cqp_sql.Ast.query

val memo : t -> Memo.t option

val blocks : t -> string -> int
(** Block count of a relation, through the memo when one is attached
    (used by {!Pref_space} chain-viability pruning). *)

val base_cost : t -> float
(** Estimated cost of executing [Q] itself (one scan of its relations). *)

val base_size : t -> float
(** Estimated result size of [Q]. *)

val item_cost : t -> Cqp_prefs.Path.t -> float
(** [cost(Q ∧ p)] — the cost of the single sub-query integrating [p]. *)

val item_frac : t -> Cqp_prefs.Path.t -> float
(** Fraction of Q's answer kept by the preference, in [0, 1]. *)

val item_size : t -> Cqp_prefs.Path.t -> float
(** [size(Q ∧ p) = base_size · item_frac]. *)

val params_of : t -> Cqp_prefs.Path.t list -> Params.t
(** Full estimate for [Q ∧ Px], its doi by Formulas 9 and 10.  With an
    empty list this is [Q] itself (doi 0, base cost, base size). *)

val merged_cost : t -> Cqp_prefs.Path.t list -> float
(** Cost of the footnote-1 merged construction
    ({!Rewrite.personalize_merged}): [Q]'s relations are scanned once
    and each path contributes its own joined relation instances —
    [base_cost + Σᵢ extraᵢ] instead of the union's
    [Σᵢ (base_cost + extraᵢ)]. *)

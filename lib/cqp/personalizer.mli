(** The end-to-end CQP pipeline (the Figure 2 architecture):
    Preference Space → Parameter Estimation → State-Space Search →
    Personalized Query Construction → execution.

    This is the facade most applications use:

    {[
      let outcome =
        Personalizer.run catalog profile
          ~sql:"select title from movie"
          ~problem:(Problem.problem2 ~cmax:400.)
          ()
      in
      List.iter print_row outcome.rows
    ]} *)

type outcome = {
  original : Cqp_sql.Ast.query;
  pref_space : Pref_space.t;
  solution : Solution.t;
  personalized : Cqp_sql.Ast.query;
  rows : Cqp_relal.Tuple.t list;  (** execution results, ranked by doi *)
  real_cost_ms : float;  (** measured block-I/O time of the final query *)
}

val run :
  ?algorithm:Algorithm.t ->
  ?max_k:int ->
  ?cache:Cache.t ->
  ?orders:Pref_space.orders ->
  ?solve:(Pref_space.t -> Solution.t option) ->
  ?execute:bool ->
  Cqp_relal.Catalog.t ->
  Cqp_prefs.Profile.t ->
  sql:string ->
  problem:Problem.t ->
  unit ->
  outcome
(** Parse, check, extract preferences (top [max_k] by doi if given),
    search with [algorithm] (default [C_boundaries]), rewrite, and —
    unless [execute:false] — run the personalized query.  When the
    problem is infeasible the query runs unpersonalized (empty
    solution).

    [cache], when given, serves preference-space extraction and
    estimate lookups from cross-request caches (see {!Cache}); results
    are bit-identical with or without it.

    [solve], when given, replaces the {!Solver.solve} call entirely —
    the serve path's degradation ladder plugs in here, dropping from
    the configured algorithm to cheaper rungs under deadline pressure.
    Returning [None] still falls back to the unpersonalized query.

    [orders] overrides the order vectors built into the preference
    space (default: what [algorithm] requires).  A custom [solve] that
    races algorithms beyond the configured one — the serve path's
    portfolio rung — must pass {!Pref_space.All_orders}.

    @raise Cqp_sql.Parser.Parse_error on bad SQL.
    @raise Cqp_sql.Analyzer.Semantic_error on invalid queries.
    @raise Invalid_argument when [cache] was built for a different
    catalog. *)

val ranked_results :
  ?mode:Ranker.mode -> Cqp_relal.Catalog.t -> outcome -> Ranker.result
(** Re-execute the outcome's personalization through the {!Ranker} so
    each answer carries the set of preferences it satisfies and its
    conjunction-doi score (Section 3's result ranking).  Default mode
    is [Any_of] (the relaxed, informative ranking). *)

val personalize_query :
  ?algorithm:Algorithm.t ->
  ?max_k:int ->
  ?cache:Cache.t ->
  ?orders:Pref_space.orders ->
  ?solve:(Pref_space.t -> Solution.t option) ->
  Cqp_relal.Catalog.t ->
  Cqp_prefs.Profile.t ->
  query:Cqp_sql.Ast.query ->
  problem:Problem.t ->
  Pref_space.t * Solution.t * Cqp_sql.Ast.query
(** The pipeline without execution, on an already-parsed query. *)

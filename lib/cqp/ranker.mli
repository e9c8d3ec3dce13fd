(** Result ranking (Section 3: "The results of a personalized query
    should be ranked by function r based on the preferences that they
    satisfy in a profile").

    The strict personalized query of Section 4.2 keeps only tuples
    satisfying {e all} L chosen preferences, where every survivor
    trivially carries the same score.  The ranker also supports the
    relaxed interpretation that makes scores informative: keep tuples
    satisfying {e at least one} preference (a
    [HAVING count( * ) >= 1] variant) and order them by
    [r(dois of the preferences satisfied)] — higher first, ties broken
    by result order. *)

type mode =
  | All_of  (** intersection semantics: tuples satisfying all prefs *)
  | Any_of  (** union semantics: tuples satisfying at least one *)

type ranked_row = {
  row : Cqp_relal.Tuple.t;
  satisfied : int list;  (** 0-based indices into the path list *)
  score : float;  (** conjunction doi of the satisfied preferences *)
}

type result = {
  ranked : ranked_row list;  (** best score first *)
  block_reads : int;  (** total I/O charged (one scan set per sub-query) *)
}

val rank :
  ?mode:mode ->
  Cqp_relal.Catalog.t ->
  Cqp_sql.Ast.query ->
  (Cqp_prefs.Path.t * float) list ->
  result
(** [rank catalog q paths_with_dois] executes one sub-query per
    preference (the Section 4.2 construction) and scores each distinct
    output tuple.  With an empty path list, returns Q's own rows with
    score 0.  Default [mode] is [Any_of]; scores combine with the
    paper's noisy-or.
    @raise Rewrite.Rewrite_error when [q] has the wrong shape. *)

val rank_solution :
  ?mode:mode ->
  Cqp_relal.Catalog.t ->
  Cqp_sql.Ast.query ->
  Space.t ->
  Solution.t ->
  result
(** Convenience wrapper scoring with the solution's preference dois. *)

(** Query execution.

    A rule-based planner ({!Explain}) turns the SQL AST into a
    left-deep pipeline of materialized physical operators: base-table
    scan (charging block I/O), selection pushdown, hash equi-join
    (cartesian product as a fallback) in an order chosen by estimated
    source size, residual filters, hash aggregation with HAVING,
    DISTINCT, ORDER BY, LIMIT, and bag UNION ALL.  Column references
    are resolved once per query into closures; filters and joins pass
    row ids, and only output rows are built as tuples.

    Each join builds its hash table on the incoming source and probes
    it with the rows joined so far.  When the plan joins in another
    order than FROM's, the joined row ids are then sorted source by
    source in FROM order, so rows come out exactly as a nested loop
    over the FROM list would emit them, whatever the order.

    Within one {!execute}, a base source's filtered rows are built once
    per relation, alias and pushed-down conjuncts, and a hash table on
    one of its columns once: the branches of a personalized query's
    UNION ALL share both.  Every base relation touched by a
    (sub-)query is still charged one full scan, matching the paper's
    cost assumptions, so [Io.block_reads] after execution is the
    "real" execution cost that Figure 15 compares against the
    estimator. *)

exception Runtime_error of string

type result = {
  schema : (string * Cqp_relal.Value.ty) list;
  rows : Cqp_relal.Tuple.t list;
  block_reads : int;  (** blocks charged while executing this query *)
}

val execute :
  ?io:Io.t -> Cqp_relal.Catalog.t -> Cqp_sql.Ast.query -> result
(** Run the query.  When [io] is given, block charges accumulate into it
    as well as into the result.
    @raise Runtime_error on unknown relations and other runtime faults
    (semantic errors surface as
    {!Cqp_sql.Analyzer.Semantic_error} if you {!Cqp_sql.Analyzer.check}
    first, which callers are expected to do). *)

val execute_rowset :
  ?io:Io.t -> Cqp_relal.Catalog.t -> Cqp_sql.Ast.query -> Rowset.t
(** Like {!execute} but returning the raw rowset with qualified column
    headers (used by tests and the CLI table printer). *)

(** Query execution.

    A rule-based planner ({!Explain}) turns the SQL AST into a
    left-deep pipeline of materialized physical operators: base-table
    scan (charging block I/O), selection pushdown, hash equi-join
    (cartesian product as a fallback), residual filters, hash
    aggregation with HAVING, DISTINCT, ORDER BY, LIMIT, and bag UNION
    ALL.  Column references are resolved once per query into closures;
    filters and joins pass row ids, and only output rows are built as
    tuples.

    Every base relation touched by a (sub-)query is scanned exactly
    once, matching the paper's cost assumptions, so
    [Io.block_reads] after execution is the "real" execution cost that
    Figure 15 compares against the estimator. *)

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

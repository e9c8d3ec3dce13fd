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

    The hash join, DISTINCT and GROUP BY share one hash index over row
    positions: two int arrays, bucket heads and a chain of rows, with
    keys read from the rows in place, hashed by {!Cqp_relal.Value.hash}
    and compared by {!Cqp_relal.Value.equal}.  Building or probing it
    allocates nothing per row.  Each operator that selects rows (a
    filter, the join's probe, an intersection's cut, DISTINCT) writes
    the positions it keeps into its domain's scratch buffer, kept
    across executions, and copies out exactly those: one id array per
    source of the result.  A base source's rows are read from the
    relation's storage in place, and a pushed-down comparison of one of
    its columns with a literal runs as one loop over that column: over
    the column's typed vector ({!Cqp_relal.Relation.vector}) when the
    literal is an [Int] and the column's cells all are, or a [String]
    under [=] or [<>] and they all are, through the source's row ids
    once an earlier conjunct has narrowed it; over the boxed cells
    otherwise.  A hash
    join on one key column per side whose two columns have [Int]
    vectors hashes ({!Cqp_relal.Value.hash_int}) and compares the ints
    in place, building and probing the same index as the boxed join.
    While metrics are on, [engine.filters.pushed] counts the pushed-down
    conjuncts run on base sources and [engine.filters.typed] those that
    ran on a vector; [engine.joins.hash] and [engine.joins.typed] count
    hash joins the same way.

    Within one {!execute}, a base source's filtered rows are built once
    per relation, alias and pushed-down conjuncts, and a hash index on
    one of its columns once: the branches of a personalized query's
    UNION ALL share both.  Every base relation touched by a
    (sub-)query is still charged one full scan, matching the paper's
    cost assumptions, so [Io.block_reads] after execution is the
    "real" execution cost that Figure 15 compares against the
    estimator.

    A block {!Explain} marks as an intersection runs its union's
    branches in the plan's order, cheapest scan first, and keeps the
    rows of the first that every branch so far also holds, in a hash
    index over that branch's rows keyed by {!Cqp_relal.Value.equal} on
    every cell, as GROUP BY groups them.  A later branch that neither
    aggregates nor has a LIMIT keeps, after its joins and filters and
    before projection, only the rows whose output cells the index still
    holds ([engine.cuts] counts these cuts while metrics are on).
    When none is left, the block answers no rows, and the
    branches not yet run are not run: their base sources are still
    charged one scan each (counted in [engine.branches_skipped] while
    metrics are on).  Otherwise the branches' rows are concatenated in
    SQL order and the block's GROUP BY, HAVING, ORDER BY and LIMIT run
    as for any block on them: a row the cut drops is in a group HAVING
    drops, and every group kept has the members, representative and
    order it had. *)

exception Runtime_error of string

type result = {
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

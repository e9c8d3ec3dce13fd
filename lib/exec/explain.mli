(** Physical plans: the executor's one planner.

    [explain] turns a query into the left-deep pipeline that {!Engine}
    interprets, built from the catalog, its statistics and column
    headers alone: the sources each block reads (a base relation with
    its cardinality, block cost and estimated filtered size, or a
    derived table with its own sub-plan and blocks), the WHERE
    conjuncts pushed down to each source, the join order with each
    step's method (hash join on key columns, or cartesian product) and
    the conjuncts it newly resolves, the residual filters, the output
    columns, and the aggregate/distinct/order/limit stages.

    Joins are ordered greedily by estimated size: the smallest source
    first, then each time the smallest source an equi-conjunct links to
    those already joined (the smallest of all the others when none is:
    a cartesian step), the earliest in FROM order on a tie.  A base
    source's estimate is its relation's tuple count times the
    catalog-stats {!selectivity} of each pushed-down conjunct; a
    derived table's is unknown ([infinity]).  Every post-scan conjunct
    and output resolves against the block's header, its sources'
    headers in FROM order, so the order decides where a conjunct runs,
    never what it means, and {!Engine} restores the FROM order's rows.
    Predicates stay AST values; only {!pp} prints them. *)

exception Runtime_error of string
(** Unknown relation, empty FROM or empty UNION; {!Engine.Runtime_error}
    is the same exception. *)

type input =
  | Base of string * Cqp_relal.Relation.t
      (** relation, named as the FROM clause wrote it *)
  | Derived of t

and source_plan = {
  label : string;  (** alias (or relation name) *)
  input : input;
  cardinality : int;  (** tuples of a base relation; 0 for derived tables *)
  blocks : int;  (** blocks scanned, a derived table's sub-plan included *)
  header : Rowset.col list;  (** columns, qualified by [label] *)
  pushed_down : Cqp_sql.Ast.predicate list;  (** conjuncts filtered at the scan *)
  estimate : float;
      (** rows expected after [pushed_down]; [infinity] for a derived
          table *)
}

and join_step = {
  with_source : int;  (** the joined source, by its position in [sources] *)
  method_ :
    [ `Hash of (Cqp_sql.Ast.predicate * (int * int)) list | `Cartesian ];
      (** hash keys: each equi-conjunct with its two columns as positions
          in the block's header, a joined source's column first *)
  post_filters : Cqp_sql.Ast.predicate list;
      (** conjuncts whose sources are all joined after this step *)
}

and block_plan = {
  sources : source_plan list;  (** in FROM order *)
  first : int;  (** the source the joins start from, by position *)
  joins : join_step list;  (** one per other source, in join order *)
  residual : Cqp_sql.Ast.predicate list;
  outputs : Cqp_sql.Ast.expr list;  (** projected expressions, [*] expanded *)
  cols : Rowset.col list;  (** output header *)
  aggregate : (Cqp_sql.Ast.expr list * Cqp_sql.Ast.predicate option) option;
      (** GROUP BY keys and HAVING, when the block aggregates *)
  distinct : bool;
  order_by : (Cqp_sql.Ast.expr * Cqp_sql.Ast.order_dir) list;
  limit : int option;
}

and t = Plan_select of block_plan | Plan_union of t list

val explain : Cqp_relal.Catalog.t -> Cqp_sql.Ast.query -> t
(** @raise Runtime_error on unknown relations, an empty FROM or UNION. *)

val selectivity :
  Cqp_relal.Catalog.t ->
  string ->
  string ->
  Cqp_sql.Ast.binop ->
  Cqp_relal.Value.t ->
  float
(** [selectivity catalog rel attr op v]: the fraction of [rel]'s tuples
    whose [attr] compares to [v] by [op], from the catalog's statistics
    ({!Cqp_relal.Stats}). *)

val scan_blocks : t -> int
(** Blocks the plan scans: exactly what {!Engine.execute} charges. *)

val to_string : Cqp_relal.Catalog.t -> Cqp_sql.Ast.query -> string
(** Rendered plan, one stage per line. *)

val pp : Format.formatter -> t -> unit

(** Physical plans: the executor's one planner.

    [explain] turns a query into the left-deep pipeline that {!Engine}
    interprets, built from the catalog and column headers alone: the
    sources each block reads (a base relation with its cardinality and
    block cost, or a derived table with its own sub-plan and blocks),
    the WHERE conjuncts pushed down to each source, each join step
    (hash join on key column index pairs, or cartesian product) with
    the conjuncts it newly resolves, the residual filters, the output
    columns, and the aggregate/distinct/order/limit stages.  Predicates
    stay AST values; only {!pp} prints them. *)

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
}

and join_step = {
  with_source : string;
  method_ :
    [ `Hash of (Cqp_sql.Ast.predicate * (int * int)) list | `Cartesian ];
      (** hash keys: each equi-conjunct with its (left, right) column
          indexes *)
  post_filters : Cqp_sql.Ast.predicate list;
      (** conjuncts the joined header newly resolves *)
}

and block_plan = {
  sources : source_plan list;
  joins : join_step list;  (** one per source after the first *)
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

val scan_blocks : t -> int
(** Blocks the plan scans: exactly what {!Engine.execute} charges. *)

val to_string : Cqp_relal.Catalog.t -> Cqp_sql.Ast.query -> string
(** Rendered plan, one stage per line. *)

val pp : Format.formatter -> t -> unit

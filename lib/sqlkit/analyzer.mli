(** Semantic analysis: name resolution and type checking against a
    catalog.

    The analyzer validates a query before planning and computes its
    output schema.  It enforces the classical rules for the supported
    subset: tables must exist, FROM aliases must be unique, column
    references must resolve unambiguously, compared expressions must
    have compatible types, aggregates may only appear in SELECT/HAVING/
    ORDER BY, and with GROUP BY every non-aggregated output expression
    must be a grouping expression.  UNION ALL branches must agree in
    arity and column types. *)

exception Semantic_error of string

type binding = {
  alias : string;  (** the name a column qualifier matches *)
  source : source;
  columns : (string * Cqp_relal.Value.ty) list;  (** in schema order *)
}

and source =
  | Base of string  (** base relation name in the catalog *)
  | Derived of Ast.query

type env = binding list

val resolve : env -> string option -> string -> int * int * Cqp_relal.Value.ty
(** [resolve env qualifier column] returns
    [(binding_index, column_index, type)].
    @raise Semantic_error when unresolvable or ambiguous. *)

val check : Cqp_relal.Catalog.t -> Ast.query -> unit

val output_schema :
  Cqp_relal.Catalog.t -> Ast.query -> (string * Cqp_relal.Value.ty) list
(** Column names and types produced by the query, with [Star]
    expansion.  Runs the full {!check}. *)

val has_aggregate : Ast.expr -> bool

(** Expression and predicate compilation.

    Each column reference is resolved once, when its expression is
    compiled against a scope, and the result is a closure over rows of
    whatever type the scope reads ([Engine] uses row positions).  A
    reference the scope cannot resolve, or an aggregate outside a
    group, compiles to a closure that raises {!Eval_error} when applied:
    errors stay as lazy as evaluating row by row made them.

    Predicates follow SQL three-valued logic internally; the outcome is
    collapsed at the top (a WHERE/HAVING keeps a row only when the
    predicate is definitely true). *)

exception Eval_error of string

type 'r scope = string option -> string -> 'r -> Cqp_relal.Value.t
(** Resolves a (qualifier, name) reference to the accessor of its
    column.
    @raise Rowset.Column_error when the reference is unknown or
    ambiguous. *)

val tuple_scope : Rowset.col list -> Cqp_relal.Tuple.t scope
(** Tuples laid out as the header says. *)

val scalar : 'r scope -> Cqp_sql.Ast.expr -> 'r -> Cqp_relal.Value.t
(** An aggregate-free expression on one row. *)

val grouped :
  'r scope ->
  Cqp_sql.Ast.expr ->
  'r array ->
  'r option ->
  Cqp_relal.Value.t
(** An expression over a group: [grouped scope e members rep].
    Aggregates fold over [members] in order; aggregate-free parts read
    [rep], the group's first member ([None]: the all-NULL row of an
    empty implicit group). *)

val predicate :
  (Cqp_sql.Ast.expr -> 'r -> Cqp_relal.Value.t) ->
  Cqp_sql.Ast.predicate ->
  'r ->
  bool
(** [predicate expr p] compiles [p] with [expr] compiling its operands
    ([scalar scope] for WHERE, a {!grouped} view for HAVING); the
    closure holds when [p] is definitely true. *)

val holds :
  Cqp_sql.Ast.binop -> Cqp_relal.Value.t -> Cqp_relal.Value.t -> bool
(** [holds op a b]: [a op b] for non-NULL [a] and [b] under
    {!Cqp_relal.Value.compare}, the comparison {!predicate} makes. *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE: [%] matches any sequence, [_] any single character. *)

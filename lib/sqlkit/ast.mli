(** Abstract syntax of the SQL subset manipulated by CQP.

    The subset covers what query personalization produces and consumes:
    select-project-join blocks, [UNION ALL] of such blocks, and a
    [GROUP BY ... HAVING] wrapper used by the personalized-query
    construction of Section 4.2 of the paper
    ([... GROUP BY title HAVING count( * ) = L]). *)

type binop = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | Col of string option * string
      (** optionally qualified column reference, [M.title] or [title] *)
  | Lit of Cqp_relal.Value.t
  | Count_star
  | Count of expr
  | Min of expr
  | Max of expr
  | Sum of expr
  | Avg of expr

type predicate =
  | True
  | Cmp of binop * expr * expr
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate
  | In_list of expr * Cqp_relal.Value.t list
  | Like of expr * string  (** SQL [LIKE] with [%] and [_] wildcards *)
  | Is_null of expr
  | Is_not_null of expr

type order_dir = Asc | Desc

type select_item =
  | Star
  | Item of expr * string option  (** expression with optional alias *)

type from_item =
  | Table of string * string option  (** relation name, optional alias *)
  | Subquery of query * string  (** derived table, mandatory alias *)

and select_block = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
  where : predicate option;
  group_by : expr list;
  having : predicate option;
  order_by : (expr * order_dir) list;
  limit : int option;
}

and query = Select of select_block | Union_all of query list

val simple_select :
  ?where:predicate ->
  ?order_by:(expr * order_dir) list ->
  ?limit:int ->
  select_item list ->
  from_item list ->
  query
(** Convenience constructor for a single non-distinct block without
    GROUP BY or HAVING. *)

val mirror : binop -> binop
(** The operator that holds with its operands swapped:
    [v op a] iff [a (mirror op) v], so [1990 <= year] is
    [year >= 1990]. *)

val conj : predicate list -> predicate
(** Right-nested conjunction; [conj [] = True]. *)

val conj_opt : predicate option -> predicate -> predicate option
(** Add a conjunct to an optional WHERE clause. *)

val flatten_union : query -> query
(** Collapse nested [Union_all] nodes into one level and drop
    single-branch unions. *)

val tables_of : query -> (string * string option) list
(** All base tables referenced anywhere in the query (with aliases),
    in syntactic order, including inside derived tables. *)

val predicate_conjuncts : predicate -> predicate list
(** Split a predicate on top-level [And] nodes. *)

val equal_expr : expr -> expr -> bool
val equal_predicate : predicate -> predicate -> bool
val equal : query -> query -> bool

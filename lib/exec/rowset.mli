(** Intermediate results flowing between physical operators.

    A rowset is a materialized batch of rows with a column header that
    records, for every column, the FROM-binding alias it came from (if
    any) and its name.  Rows live in a flat array.  A rowset is what a
    query block returns; inside a block {!Engine} moves row ids into its
    sources' arrays instead.
    Column lookup mirrors SQL scoping, up to ASCII case: a qualified
    reference matches alias + name; an unqualified one must match a
    unique name.  {!lookup} reports a missing or ambiguous reference as
    a value, so the planner resolves columns without exceptions;
    {!find_col} raises. *)

type col = { qualifier : string option; name : string }
type t = { cols : col list; rows : Cqp_relal.Tuple.t array }

exception Column_error of string

val col : ?qualifier:string -> string -> col
val make : col list -> Cqp_relal.Tuple.t array -> t

val of_list : col list -> Cqp_relal.Tuple.t list -> t
(** List boundary for callers that assemble rows incrementally. *)

val to_list : t -> Cqp_relal.Tuple.t list

val arity : t -> int
val cardinality : t -> int

type lookup = Found of int | Missing | Ambiguous

val lookup : col list -> string option -> string -> lookup
(** The referenced column's index in a header, or why there is none,
    without raising or allocating a message: planning probes every
    conjunct against every source this way. *)

val find_col : col list -> string option -> string -> int
(** {!lookup}'s index.
    @raise Column_error when missing or ambiguous. *)

val concat : t list -> t
(** Bag union in one copy; headers must agree in arity (the first
    header wins).
    @raise Column_error on an arity mismatch.
    @raise Invalid_argument on an empty list. *)

val product_cols : t -> t -> col list
(** Header of a join/product of the two rowsets. *)

val pp : Format.formatter -> t -> unit
(** Tabular rendering of header and rows (for examples and the CLI). *)

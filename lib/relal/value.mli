(** Typed values stored in relations.

    The CQP engine is dynamically typed at the storage level: every cell
    of every relation holds a [Value.t].  Schemas ({!Schema}) constrain
    which constructors may appear in a given column and the semantic
    analyzer enforces them at query-compile time. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type ty = Tnull | Tint | Tfloat | Tstring | Tbool

val type_of : t -> ty
(** Runtime type of a value; [Null] has type [Tnull]. *)

val ty_name : ty -> string
(** Human-readable type name, e.g. ["int"]. *)

val compatible : ty -> ty -> bool
(** [compatible a b] holds when values of the two types may be compared
    or assigned to the same column.  [Tnull] is compatible with
    everything; [Tint] and [Tfloat] are mutually compatible. *)

val compare : t -> t -> int
(** SQL-flavoured total order: [Null] sorts first, numeric values compare
    by their exact value across [Int]/[Float] (so [Int (2^53 + 1)] is
    above [Float 2^53], though [float_of_int] rounds it there), [-0.]
    equals [0.], NaN sorts below every other number and equals every
    NaN, and values of unrelated types fall back to an arbitrary but
    consistent constructor order.  It is transitive. *)

val equal : t -> t -> bool
(** [compare a b = 0]: an [Int] equals a [Float] of exactly its value.
    Note: unlike three-valued SQL logic, [equal Null Null = true]; the
    executor handles SQL null semantics separately. *)

val hash : t -> int
(** Hash consistent with {!equal}: an [Int] hashes as the [Float] it
    rounds to, [-0.] as [0.], and every NaN alike.  A number's bits go
    through an inline integer mix; strings use [Hashtbl.hash].
    Allocates nothing. *)

val hash_int : int -> int
(** [hash_int x = hash (Int x)], for a caller that holds the int
    unboxed: an index built from either finds keys hashed by the
    other. *)

val is_null : t -> bool

val to_float : t -> float option
(** Numeric view of a value, if it has one ([Int], [Float], [Bool]). *)

val to_string : t -> string
(** Display form (no quotes). *)

val to_sql : t -> string
(** SQL literal form (strings quoted and escaped). *)

val of_sql_literal : string -> t
(** Best-effort parse of an SQL literal: quoted string, integer, float,
    [true]/[false], [null]; anything else becomes a [String]. *)

val pp : Format.formatter -> t -> unit

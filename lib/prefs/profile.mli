(** User profiles: atomic preferences over a database schema
    (Section 3 of the paper).

    A profile stores two kinds of atomic preferences, matching the edge
    kinds of the personalization graph:

    - {b selection preferences} [doi(R.a op v)] — interest in values of
      an attribute (the paper uses equality; we also allow range and
      LIKE conditions, a strict generalization exercised in tests);
    - {b join preferences} [doi(R1.a1 = R2.a2)] — directed: how strongly
      preferences on [R2] (the right-hand side) influence [R1]. *)

type selection = {
  s_rel : string;
  s_attr : string;
  s_op : Cqp_sql.Ast.binop;
  s_value : Cqp_relal.Value.t;
  s_doi : float;
}

type join = {
  j_from_rel : string;
  j_from_attr : string;
  j_to_rel : string;
  j_to_attr : string;
  j_doi : float;
}

type t

val empty : t
val selection : string -> string -> ?op:Cqp_sql.Ast.binop -> Cqp_relal.Value.t -> float -> selection
(** [selection rel attr v doi] builds an equality selection preference.
    @raise Doi.Invalid_doi when [doi] is outside [0, 1]. *)

val join : string -> string -> string -> string -> float -> join
(** [join r1 a1 r2 a2 doi]: preference for the join [r1.a1 = r2.a2],
    directed from [r1] to [r2].
    @raise Doi.Invalid_doi when [doi] is outside [0, 1]. *)

val add_selection : t -> selection -> t
val add_join : t -> join -> t
val of_list : [ `Sel of selection | `Join of join ] list -> t

val parse_atom : string -> float -> [ `Sel of selection | `Join of join ]
(** [parse_atom "director.name = 'W. Allen'" 0.8] parses a profile line
    as in Figure 1 of the paper.  Column references must be qualified
    with their relation name.
    @raise Invalid_argument when the condition is not an atomic
    selection or equi-join. *)

val of_strings : (string * float) list -> t
(** Profile from Figure-1-style lines. *)

val selections : t -> selection list
val joins : t -> join list
val size : t -> int

val selections_on : t -> string -> selection list
(** Selection preferences attached to the given relation. *)

val joins_from : t -> string -> join list
(** Join preferences leaving the given relation, i.e. the graph edges a
    best-first traversal may extend a path with. *)

val fingerprint : t -> string
(** Content digest (hex) of the profile at full float precision: two
    profiles share a fingerprint iff they hold the same atomic
    preferences in the same order.  The serve layer keys its Pref_space
    cache on this, which makes stale hits after a profile change
    structurally impossible — a changed profile hashes to a different
    key. *)

val validate : Cqp_relal.Catalog.t -> t -> (unit, string list) result
(** Check every referenced relation/attribute exists and value types are
    compatible; returns the list of problems otherwise. *)

val pp : Format.formatter -> t -> unit

(** Relation schemas: ordered, named, typed attribute lists. *)

type attribute = {
  attr_name : string;  (** lowercase attribute name, e.g. ["title"] *)
  attr_ty : Value.ty;
  attr_width : int;  (** average stored width in bytes, for block math *)
}

type t = {
  rel_name : string;  (** lowercase relation name, e.g. ["movie"] *)
  attrs : attribute list;
}

val make : string -> (string * Value.ty * int) list -> t
(** [make name cols] builds a schema; names are lowercased.
    @raise Invalid_argument on duplicate attribute names or empty list. *)

val attribute : string -> Value.ty -> int -> attribute

val arity : t -> int
val attr_names : t -> string list

val index_of : t -> string -> int
(** Position of an attribute (case-insensitive).
    @raise Not_found if absent. *)

val find : t -> string -> attribute option
val mem : t -> string -> bool

val tuple_width : t -> int
(** Sum of attribute widths: the byte footprint of one stored tuple. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Implicit selection preferences: directed acyclic paths in the
    personalization graph (Section 3).

    A path is a chain of join preferences followed by one terminal
    selection preference.  The chain is anchored at the relation of its
    first join (or of the selection itself when there are no joins);
    query personalization attaches the anchor to a relation of the
    query.  Its doi is the composition [f⊗] of the constituent dois
    (Formula 1/9). *)

type t = { joins : Profile.join list; sel : Profile.selection }

val atomic : Profile.selection -> t
val extend : Profile.join -> t -> t
(** [extend j p] prepends join [j]; [j.j_to_rel] must equal [anchor p].
    @raise Invalid_argument otherwise. *)

val anchor : t -> string
(** The relation the path attaches to. *)

val length : t -> int
(** Number of atomic preferences on the path (joins + 1). *)

val relations : t -> string list
(** Relations traversed, anchor first, without duplicates removed. *)

val doi : t -> float
(** Composed degree of interest (Formula 9). *)

val is_acyclic : t -> bool
(** True when no relation repeats along the path. *)

val would_cycle : Profile.join -> t -> bool
(** Would appending [j] in front revisit a relation already on the
    path? Used by the Preference Space traversal to keep paths acyclic. *)

val condition : t -> Cqp_sql.Ast.predicate
(** The conjunction of the path's join and selection conditions, with
    relation-name qualifiers (suitable for a sub-query whose FROM lists
    each relation once under its own name). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

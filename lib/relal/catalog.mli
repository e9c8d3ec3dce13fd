(** The catalog: a named collection of relations plus their statistics.

    This is the "database" against which queries are analyzed, estimated
    and executed.  Statistics are computed lazily on first use and
    invalidated by {!refresh_stats}. *)

type t

val create : unit -> t

val add : t -> Relation.t -> unit
(** Register a relation under its schema name.
    @raise Invalid_argument if a relation of that name already exists. *)

val replace : t -> Relation.t -> unit
(** Register or overwrite; invalidates cached statistics for the name. *)

val find : t -> string -> Relation.t option
val get : t -> string -> Relation.t
(** @raise Not_found when absent. *)

val mem : t -> string -> bool
val names : t -> string list

val stats : t -> string -> Stats.t
(** Statistics for the named relation, computed on demand and cached.
    @raise Not_found when the relation is absent. *)

val refresh_stats : t -> unit
(** Drop all cached statistics (e.g. after bulk loads). *)

val blocks : t -> string -> int
(** Block count of the named relation (0 when absent): the [blocks(R)]
    input of the paper's cost formula. *)

val pp : Format.formatter -> t -> unit

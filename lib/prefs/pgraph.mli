(** The personalization graph G(V, E) (Section 3).

    A directed graph extending the database schema graph with the
    value nodes and preference edges contributed by a user profile:
    relation nodes, attribute nodes, value nodes; selection edges
    (attribute → value) and join edges (attribute → attribute).

    The graph offers enumeration (for inspection and tests) and
    exhaustive acyclic-path generation, the ground truth against which
    the best-first Preference Space algorithm is tested. *)

type node =
  | Rel_node of string
  | Attr_node of string * string
  | Value_node of string * string * Cqp_relal.Value.t

type edge =
  | Sel_edge of Profile.selection
  | Join_edge of Profile.join

type t

val build : Cqp_relal.Catalog.t -> Profile.t -> t
(** @raise Invalid_argument when the profile references unknown
    relations or attributes (uses {!Profile.validate}). *)

val nodes : t -> node list
val edges : t -> edge list
val profile : t -> Profile.t

val acyclic_paths_from : ?max_length:int -> t -> string -> Path.t list
(** All acyclic paths anchored at the relation, by exhaustive DFS,
    longest path bounded by [max_length] atomic preferences
    (default: number of relations in the graph). *)

val reachable_relations : t -> string -> string list
(** Relations reachable from the anchor through join edges (anchor
    included). *)

val pp : Format.formatter -> t -> unit

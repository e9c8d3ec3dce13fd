(** In-memory relations with block-level organization.

    Tuples are stored in fixed-size blocks so that the execution engine
    can charge I/O per block read, matching the paper's cost model
    (Section 7.1: cost is measured in block reads, [b] ms per block, no
    indexes, full scans). *)

type t

val create : ?block_size:int -> Schema.t -> t
(** Fresh empty relation.  [block_size] defaults to 8192 bytes, the
    conventional page size. *)

val of_tuples : ?block_size:int -> Schema.t -> Tuple.t list -> t
val schema : t -> Schema.t
val block_size : t -> int

val insert : t -> Tuple.t -> unit
(** Append a tuple.
    @raise Invalid_argument if the tuple arity mismatches the schema. *)

val cardinality : t -> int

val blocks : t -> int
(** Number of blocks occupied: [ceil (card * tuple_width / block_size)],
    at least 1 for a non-empty relation (0 when empty).  This is the
    [blocks(R)] of the paper's cost formula. *)

val tuples_per_block : t -> int
(** How many tuples fit one block (at least 1). *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Tuple.t list

val storage : t -> Tuple.t array
(** The stored tuples in place, in storage order: the tuple at
    position [i] is in block [i / tuples_per_block r].  Only positions
    below [cardinality r] hold tuples; the array may be longer.  No
    copy is made, so the array is for reading only, and an {!insert}
    may move the tuples to a new one. *)

val column : t -> int -> Value.t list
(** All values of the column at the given position, in storage order. *)

val pp : Format.formatter -> t -> unit
(** Schema plus cardinality/blocks summary (not the data). *)

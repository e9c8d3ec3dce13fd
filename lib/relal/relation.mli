(** In-memory relations with block-level organization.

    Tuples are stored in fixed-size blocks so that the execution engine
    can charge I/O per block read, matching the paper's cost model
    (Section 7.1: cost is measured in block reads, [b] ms per block, no
    indexes, full scans).

    Beside its tuples, a relation keeps a typed vector for every column
    whose cells are all [Int] or all [String] ({!vector}): the engine's
    literal filters and int-key hash joins read those instead of the
    boxed cells.  {!insert} maintains the vectors; nothing builds them
    on a read, so readers on several domains share them as they share
    the tuples.  A stored tuple is not to be changed in place. *)

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

type dictionary
(** A [String] column's distinct strings, each with its code: the
    first string inserted is code 0, the next new one 1, and so on. *)

type vector =
  | Ints of int array  (** row [i]'s cell is [Int ints.(i)] *)
  | Strings of int array * dictionary
      (** row [i]'s cell is the [String s] with
          [find_code dict s = codes.(i)] *)
  | Boxed
      (** no vector: the relation is empty, or the column has held a
          NULL, [Float] or [Bool] cell, or cells of two types *)

val vector : t -> int -> vector
(** The vector of the column at the given position, as of now: like
    {!storage}, its array may be longer than [cardinality r], and an
    {!insert} may move it to a new one, or leave the column [Boxed]
    for good. *)

val find_code : dictionary -> string -> int
(** The string's code, or [-1] when no row holds it. *)

val column : t -> int -> Value.t list
(** All values of the column at the given position, in storage order. *)

val pp : Format.formatter -> t -> unit
(** Schema plus cardinality/blocks summary (not the data). *)

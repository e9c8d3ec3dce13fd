(** Block-I/O accounting.

    The engine charges one unit per block read from a base relation.
    This implements the paper's execution-cost regime (Section 7.1):
    cost is I/O only, every relation required by a (sub-)query is read
    from disk exactly once, and reading one block costs [b] = 1 ms. *)

type t

val default_block_ms : float
(** 1.0 — the paper's [b]. *)

val create : unit -> t
val reset : t -> unit

val charge_blocks : t -> int -> unit
(** Record that [n] blocks were read. *)

val charge_scan : t -> Cqp_relal.Relation.t -> unit
(** Charge a full scan of the relation. *)

val block_reads : t -> int

val cost_ms : t -> float
(** Total simulated I/O time: [block_reads * default_block_ms]. *)

val pp : Format.formatter -> t -> unit

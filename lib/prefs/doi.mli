(** Degree-of-interest arithmetic (Section 3 of the paper).

    A doi is a real number in [0, 1].  Two operations combine dois:

    - {b composition} [f⊗] along a path of adjacent conditions
      (Formula 1) is the product (Formula 9), bounded by the minimum
      constituent as Formula 2 requires.
    - {b conjunction} [r] over non-adjacent preferences satisfied
      together (Formula 3) is the noisy-or [1 − Π(1 − doiᵢ)]
      (Formula 10), monotone under set inclusion as Formula 4 requires.
      Under it the evidence [−ln(1 − doi)] of a set is the sum of its
      items' evidence.

    Both admit incremental computation, which the search algorithms
    rely on. *)

exception Invalid_doi of float

val check : float -> float
(** Identity on [0, 1]. @raise Invalid_doi outside the range, NaN
    included. *)

val compose : float list -> float
(** [f⊗] over the constituents of an implicit preference; [1.0] for the
    empty list (neutral element). *)

val combine : float list -> float
(** [r] over a set of preferences; [0.0] for the empty set. *)

val combine_incr : float -> float -> float
(** [combine_incr acc d] extends a conjunction with one more doi in
    O(1): [1 − (1 − acc)(1 − d)]. *)

val combine_retract : float -> float -> float option
(** [combine_retract acc d] undoes one {!combine_incr} step in O(1) by
    division, [1 − (1 − acc)/(1 − d)].  [None] only for [d = 1], whose
    removal is not invertible from the accumulator alone: the caller
    must recompute over the remaining dois. *)

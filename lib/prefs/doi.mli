(** Degree-of-interest arithmetic (Section 3 of the paper).

    A doi is a real number in [0, 1].  Two operations combine dois:

    - {b composition} [f⊗] along a path of adjacent conditions
      (Formula 1), required to be bounded by the minimum constituent
      (Formula 2).  The paper's experiments use multiplication
      (Formula 9); [Min_compose] is the obvious alternative.
    - {b conjunction} [r] over non-adjacent preferences satisfied
      together (Formula 3), required to be monotone under set inclusion
      (Formula 4).  The paper uses the noisy-or [1 − Π(1 − doiᵢ)]
      (Formula 10); [Max_combine] is a monotone alternative mentioned in
      the quality discussion of Section 7.2.3.

    Both choices admit incremental computation, which the search
    algorithms rely on. *)

type compose = Product | Min_compose
type combine = Noisy_or | Max_combine

exception Invalid_doi of float

val check : float -> float
(** Identity on [0, 1]. @raise Invalid_doi outside the range, NaN
    included. *)

val compose : ?f:compose -> float list -> float
(** [f⊗] over the constituents of an implicit preference; [1.0] for the
    empty list (neutral element). *)

val combine : ?r:combine -> float list -> float
(** [r] over a set of preferences; [0.0] for the empty set. *)

val combine_incr : ?r:combine -> float -> float -> float
(** [combine_incr acc d] extends a conjunction with one more doi in
    O(1): for noisy-or, [1 − (1 − acc)(1 − d)]. *)

val combine_retract : ?r:combine -> float -> float -> float option
(** [combine_retract acc d] undoes one {!combine_incr} step in O(1)
    when the conjunction operator admits it: for noisy-or it inverts by
    division, [1 − (1 − acc)/(1 − d)] (defined while [d < 1]); for
    [Max_combine] it returns [acc] unchanged while [d < acc].  [None]
    means the removal is not invertible from the accumulator alone and
    the caller must recompute over the remaining dois. *)

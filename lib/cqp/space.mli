(** A search space: the preference set [P] viewed through one of its
    order vectors, with memoizable parameter evaluation and
    instrumentation.

    Algorithms manipulate states of {e positions}; the space translates
    positions to preference identifiers (indices into
    [Pref_space.items], which is the D order) and evaluates the three
    query parameters of any state incrementally from per-item values. *)

type order = By_cost | By_doi | By_size

type keying = [ `Auto | `Bits ]
(** How valued states are keyed (visited sets, subset tests):
    [`Auto] picks the int mask while [k <= State.max_mask_bits] and the
    {!Cqp_util.Bitset} encoding beyond; [`Bits] forces the bitset at
    any [k]. *)

type t

val create : ?order:order -> ?keys:keying -> Pref_space.t -> t
(** Default order is [By_cost], default keying [`Auto].
    [By_cost]/[By_size] require the C/S vectors ([Pref_space.build]
    with [All_orders]).
    @raise Invalid_argument when the needed vector is missing. *)

val order : t -> order
val k : t -> int
val pref_space : t -> Pref_space.t
val stats : t -> Instrument.t

val pref_id : t -> int -> int
(** Preference identifier at a position of the order vector. *)

val pos_cost : t -> int -> float
(** [cost(Q ∧ p)] of the single preference at a position — the
    increment a Horizontal2 insertion adds to a state's cost
    (Formula 6 makes state cost additive, so greedy climbs use this
    for O(1) neighbor pricing). *)

val pref_ids : t -> State.t -> int list
(** Sorted preference identifiers of a state. *)

val cost : t -> State.t -> float
(** Estimated cost of [Q ∧ Px] for the state (counts one parameter
    evaluation). *)

val doi : t -> State.t -> float
val size : t -> State.t -> float
val params : t -> State.t -> Params.t

val params_of_ids : t -> int list -> Params.t
(** Parameters of a set given directly as preference identifiers. *)

val item : t -> int -> Pref_space.item
(** Item by {e preference id} (not position). *)

val frac : t -> int -> float
(** The factor adding a preference id multiplies a set's size by. *)

val uses_mask : t -> bool
(** Whether valued states carry the int mask ([k <= State.max_mask_bits]
    on an [`Auto] space). *)

val estimate : t -> Estimate.t

(** {1 Incremental state evaluation}

    A [valued] couples a state with its membership key and its three
    query parameters.  Transition functions update the parameters in
    O(1) — cost additively, size multiplicatively, doi via
    {!Cqp_prefs.Doi.combine_incr}/[combine_retract] — instead of
    re-folding the whole id list per visited node.  Removals fall back
    to an O(group) recompute when the inverse is undefined (zero size
    fraction or doi 1), so results stay exact.

    The key is a variant, never a sentinel: a wide state carries a
    {!Cqp_util.Bitset} (fixed width [k], content-hashed), not a zero
    mask, so keys from spaces of any width hash and compare without
    consulting a side flag — and mixing keys across spaces is an
    [Invalid_argument], not a silent collision. *)

type key =
  | Mask of int  (** int bitmask, [k <= State.max_mask_bits] *)
  | Bits of Cqp_util.Bitset.t  (** [Bytes]-backed bitset, any [k] *)

type valued = { state : State.t; key : key; params : Params.t }

val key_mem : key -> int -> bool
(** Position membership from the key alone: O(1) for [Mask]/[Bits]. *)

val key_subset : key -> key -> bool
(** [key_subset a b] — the state behind [a] is a subset of the one
    behind [b].  O(1) for masks, O(words) for bitsets.
    @raise Invalid_argument on keys of different representations. *)

val value : t -> State.t -> valued
(** From-scratch evaluation (counts one parameter evaluation). *)

val value_singleton : t -> int -> valued
(** The singleton state of a position, derived in O(1). *)

val entry_words : valued -> int
(** Words a stored valued state accounts for — same memory model as
    {!Instrument.hold} (group size plus entry overhead), so switching
    queues to valued states leaves the paper's Figure-13 numbers
    unchanged. *)

val remove_pos : t -> valued -> int -> valued
(** Drop a present position of a state with group size at least 2
    (states are non-empty). *)

val horizontal_v : t -> valued -> valued option
(** Valued {!State.horizontal}. *)

val iter_vertical :
  ?rev:bool ->
  t ->
  valued ->
  keep:(p:int -> q:int -> key -> bool) ->
  f:(valued -> unit) ->
  unit
(** Enumerate Vertical neighbors, pruning {e before} valuation: for
    each neighbor (member [p] replaced by [q = p + 1]) the [keep]
    predicate sees only the neighbor's key, derived in O(words) from
    the parent's; survivors are then valued and passed to [f] in
    {!State.vertical} order ([~rev] reverses it).  Search loops whose
    prune tests need only membership ({!Visited.mem_key}, {!key_mem},
    {!key_subset}, {!State.dominates_subst}) skip the O(group) state
    and parameter allocation of every pruned neighbor. *)

val vertical_v : t -> valued -> valued list
(** Every Vertical neighbor, valued: {!iter_vertical} with no pruning,
    collected in {!State.vertical} order. *)

val saturate : ?forbid:int -> t -> valued -> cmax:float -> valued * int
(** The greedy Horizontal2 climb of Section 5.2 (C-MAXBOUNDS,
    D-SINGLEMAXDOI and D-HEURDOI all use it): repeatedly insert the
    lowest absent position whose item cost still keeps the state
    within [cmax] — in a cost-ordered space the most expensive
    preference that fits, in a doi-ordered one the highest-doi one —
    until none fits.  Each candidate is priced in O(1) from the
    state's cost (Formula 6 makes cost additive) and each insertion is
    one O(1) update.  [forbid] is a position never inserted.
    Returns the saturated state and the number of states the climb
    passed, the start and the final one included (D-HEURDOI counts
    each as visited).  C-MAXBOUNDS and D-SINGLEMAXDOI climb only a
    start within [cmax]. *)

val horizontal2_v : t -> valued -> valued list
(** Valued {!State.horizontal2}, same neighbor order. *)

val params_with_id : t -> n:int -> Params.t -> int -> Params.t
(** Extend the parameters of an [n]-element id set with one more
    preference id in O(1).  Applied in ascending id order this
    reproduces the from-scratch {!params_of_ids} fold bit for bit. *)

val params_without_id : t -> n:int -> Params.t -> int -> Params.t option
(** Retract one preference id from an [n]-element set in O(1); [None]
    when not invertible from the accumulated parameters (caller
    recomputes from scratch). *)

(** Visited sets keyed to match the space: one int hash per lookup
    while the mask fits, content-hashed fixed-width bitsets beyond
    that. *)
module Visited : sig
  type space := t
  type t

  val create : space -> int -> t
  (** [create space size_hint].  The hint is clamped (16 .. 2^16): it
      sizes the initial bucket array, so estimates like 2^K must not
      turn into pathological up-front allocation. *)

  val mem : t -> valued -> bool
  val add : t -> valued -> unit

  val mem_key : t -> key -> bool
  (** Membership from a key alone (pre-valuation pruning).
      @raise Invalid_argument on a key from a different space. *)
end

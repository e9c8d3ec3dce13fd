(** The Section-6 dual-boundary search.

    For Problem 1 with both size bounds, the paper adapts the boundary
    algorithms: "two lists of boundaries are generated … the algorithm
    first finds a boundary corresponding to the upper limit
    [UpBoundaries] … then continues searching in the same group, as if
    the first boundary were not found, until a second boundary
    corresponding to the lower bound is found [LowBoundaries] … In the
    second phase, the algorithm checks the nodes between the upper and
    lower boundaries".

    We realize this on the {e additive-resource} view of the size
    constraint: [size(Q ∧ Px) = size(Q) · Π fracᵢ] turns
    [smin ≤ size ≤ smax] into [lo ≤ Σ rᵢ ≤ hi] with
    [rᵢ = −log fracᵢ], [lo = log(base/smax)], [hi = log(base/smin)].
    States are searched over the resource-descending order; phase two
    greedily maximizes doi below each upper boundary while keeping the
    resource above [lo].

    Like the paper's C-MAXBOUNDS, the overall procedure is a heuristic
    (the constrained greedy of phase two is not guaranteed optimal);
    tests compare it against the exact branch-and-bound and measure the
    gap. *)

type boundaries = {
  up : State.t list;  (** maximal states with resource ≤ hi *)
  low : State.t list;  (** same-group states with resource ≥ lo found past them *)
}

val find_boundaries : Space.t -> lo:float -> hi:float -> boundaries
(** Phase one.  The space's cost field must hold the additive
    resource (use {!of_size_bounds} to build it). *)

val solve : Space.t -> lo:float -> hi:float -> Solution.t option
(** Both phases: the best-doi node between the borderlines, [None]
    when no state fits the interval. *)

val of_size_bounds :
  Pref_space.t -> smin:float -> smax:float -> (Space.t * float * float) option
(** The resource space ({!Pref_space.log_size}, in C order) and the
    [(lo, hi)] pair for a size interval; [None] when [smin > smax].  A
    base size below [smin] still yields the space: the caller decides. *)

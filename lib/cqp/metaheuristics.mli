(** Generic combinatorial-optimization baselines for Problem 2.

    The related-work section argues that generic state-space methods —
    simulated annealing [10], genetic algorithms [5], tabu search [4] —
    apply to CQP but ignore its syntax-based partial orders.  These
    implementations make that comparison concrete: they optimize the
    same objective (doi, with infeasible states rejected) over bitset
    states with flip neighborhoods, and are benchmarked against the
    CQP-aware algorithms in the ablation experiment.

    All are deterministic given the {!Cqp_util.Rng.t} seed (and an
    unexpired [deadline]: a {!Cqp_resilience.Budget.t} cuts the
    evaluation loop short at its best-so-far state). *)

type budget = {
  evaluations : int;  (** parameter-evaluation budget per run *)
}

(** Representation-agnostic seeded GA operators.  {!genetic} is built
    on these, and the adversarial workload curriculum
    ([Cqp_curriculum]) reuses them over its genome vectors, so there
    is exactly one implementation of selection/crossover/mutation.

    Each operator draws a fixed number of values from [rng]
    (tournament: two ints; one_point: one int; point_mutate: one float
    per site plus whatever the site mutator draws), so callers control
    the stream layout — and therefore bit-reproducibility — exactly. *)
module Ga : sig
  val tournament : rng:Cqp_util.Rng.t -> float array -> int
  (** Index of the fitter of two uniformly drawn candidates (ties keep
      the first draw). *)

  val one_point : rng:Cqp_util.Rng.t -> 'a array -> 'a array -> 'a array
  (** One-point crossover: sites before the drawn cut come from the
      first parent, the rest from the second.
      @raise Invalid_argument on parent length mismatch. *)

  val point_mutate :
    rng:Cqp_util.Rng.t ->
    rate:float ->
    (Cqp_util.Rng.t -> 'a -> 'a) ->
    'a array ->
    unit
  (** In-place per-site mutation: each site is rewritten by the
      mutator with probability [rate]. *)
end

val simulated_annealing :
  ?budget:budget ->
  ?deadline:Cqp_resilience.Budget.t ->
  rng:Cqp_util.Rng.t ->
  Space.t ->
  cmax:float ->
  Solution.t
(** Geometric cooling from temperature 1.0, by 0.995 per step. *)

val genetic :
  ?budget:budget ->
  ?deadline:Cqp_resilience.Budget.t ->
  rng:Cqp_util.Rng.t ->
  Space.t ->
  cmax:float ->
  Solution.t
(** Steady-state GA: 24 individuals, per-bit mutation rate 0.05. *)

val tabu :
  ?budget:budget ->
  ?deadline:Cqp_resilience.Budget.t ->
  rng:Cqp_util.Rng.t ->
  Space.t ->
  cmax:float ->
  Solution.t
(** A flipped preference stays tabu for 8 iterations. *)

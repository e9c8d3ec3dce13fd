(** The adversarial workload curriculum: GA evolution of workload
    genomes against the serve path, keeping an elite reservoir of the
    worst survivors per fitness axis.

    Selection/crossover/mutation come from
    {!Cqp_core.Metaheuristics.Ga} — the same seeded operators the
    Problem-2 GA baseline uses.  Each generation breeds [population]
    children by tournament + one-point crossover + per-site Gaussian
    mutation over {!Genome.genes}, evaluates them (through the domain
    pool when one is given: one candidate per pool job, each candidate
    replayed sequentially on its own fresh server), then keeps the
    best [population] of parents∪children by {!Fitness.score}.

    Determinism: each child's randomness comes from
    [Rng.split rng (gen * 10_000 + slot)], evaluation is a pure
    function of (genome, catalog), reservoir admission happens in slot
    order with strict-improvement replacement (first-seen wins ties),
    and {!Cqp_par.Pool.map} is slot-ordered — so the result, reservoir
    included, is bit-identical at every domain count. *)

type axis =
  | Overall  (** scalar {!Fitness.score} *)
  | Work  (** p99 per-request solver work *)
  | Blown  (** blown-deadline count *)
  | Shed  (** shed count *)
  | Miss  (** extraction-cache miss ratio *)
  | Cost  (** p99 estimated cost *)

val axes : axis list
(** All six, in reservoir (and export) order. *)

val axis_name : axis -> string
(** The exported scenario name: [worst_overall], [worst_solve_work],
    [worst_blown_deadlines], [worst_shed], [worst_cache_misses],
    [worst_est_cost]. *)

val axis_value : Fitness.t -> axis -> float

type elite = { genome : Genome.t; fitness : Fitness.t }

type result = {
  reservoir : (axis * elite) list;
      (** per-axis worst survivor; seeded with the baseline, so an
          axis nothing managed to hurt still exports a scenario *)
  baseline : elite;  (** {!Genome.baseline}, always population slot 0 *)
  evaluations : int;
  generations : int;
}

val evolve :
  ?pool:Cqp_par.Pool.t ->
  ?population:int ->
  ?mutation_rate:float ->
  ?log:(string -> unit) ->
  generations:int ->
  seed:int ->
  Cqp_relal.Catalog.t ->
  result
(** Run the loop ([population] defaults to 12, [mutation_rate] to
    0.25).  [log] receives one progress line per generation. *)

val pp_table : Format.formatter -> result -> unit
(** The baseline's fitness summary, then one line per reservoir axis:
    baseline value, elite value, and whether the elite improved on
    the baseline. *)

val export :
  dir:string -> Scenario.catalog_spec -> result -> (axis * string) list
(** Freeze every reservoir elite as [<dir>/<axis_name>.scenario]
    (via {!Scenario.freeze} on the given catalog spec — pass the spec
    the curriculum evolved on) and return the written paths. *)

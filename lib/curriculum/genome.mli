(** Workload genomes: a fixed-width encoding of everything adversarial
    about a serve workload, decoding deterministically into a
    {!Cqp_serve.Workload} entry list plus a resilience configuration.

    A genome captures the axes the curriculum searches over: profile
    shape and fingerprint diversity (cache hostility), request volume
    and K range, constraint tightness, Zipf user skew, arrival order,
    cache capacity, deadline, shedding, and the fault plan.  Every
    field lives in a closed range; {!of_genes} clamps, so genomes
    reached through GA crossover/mutation are valid by construction.

    Determinism contract: {!decode} derives all per-entry randomness
    with {!Cqp_util.Rng.split} keyed by entry index off a generator
    seeded by the genome's [seed] field alone, so the same genome
    always produces the byte-identical workload — the property the
    frozen corpus, and [test_curriculum]'s seed-stability golden,
    depend on.

    The [deadline] axis is deliberately two-valued — no deadline, or a
    pre-expired one ([Some 0.]) — because those are the only deadline
    settings whose outcomes are timing-independent (a pre-expired
    budget degrades every request before the solve starts;
    [test/test_resilience.ml] establishes this).  A live deadline
    would make fitness, and therefore the evolved reservoir, a
    function of the machine. *)

type arrival =
  | As_drawn  (** requests in generation order *)
  | By_user  (** grouped per user (maximal fingerprint locality) *)
  | Shuffled  (** seeded Fisher–Yates (minimal locality) *)

type deadline = No_deadline | Immediate

type t = {
  seed : int;  (** workload content seed, [0, 999_999] *)
  users : int;  (** [1, 10] *)
  requests : int;  (** [6, 40] *)
  updates : int;  (** interleaved profile re-installs, [0, 6] *)
  zipf_s : float;  (** user-pick skew, [0, 2.5]; < 0.05 = uniform *)
  k_min : int;  (** [4, 16] *)
  k_span : int;  (** request K drawn in [k_min, k_min + k_span], [0, 8] *)
  tightness : float;  (** constraint tightening, [0, 1] *)
  shape : int;  (** index into {!shapes}, [0, 3] *)
  diversity : int;  (** distinct profile seeds in the pool, [1, 8] *)
  query_pool : int;  (** distinct SQL texts, [1, 12] *)
  arrival : arrival;
  deadline : deadline;
  shed_depth : int;  (** [0, 32]; 0 = shedding off *)
  capacity : int;  (** pref_space extraction LRU capacity, [2, 128] *)
  max_retries : int;  (** [0, 3] *)
  fault_seed : int;  (** [0, 999_999]; 0 = fault plan off *)
  io_spike : float;  (** [0, 0.9] *)
  spike_ms : float;  (** [0, 2.] — kept small so replays stay fast *)
  cache_miss : float;  (** [0, 0.9] *)
  evict : float;  (** [0, 0.5] *)
  fail : float;  (** [0, 0.6] *)
}

val shapes : Cqp_workload.Profile_gen.config array
(** The profile-shape palette: default, sparse (few selections), hot
    (doi mass near 1), and cold (doi mass near 0.2). *)

val is_valid : t -> bool
(** Every field inside its documented range. *)

val baseline : seed:int -> t
(** The seeded-generator baseline: the genome whose decoding mirrors
    {!Cqp_serve.Workload.generate}'s defaults (3 users, 20 requests,
    K in [8, 16], default profiles, no deadline/shedding/faults).
    Evolved elites are measured against this genome's fitness. *)

(** {1 Gene-vector view (GA operators)} *)

val n_genes : int

val genes : t -> float array
(** The genome as [n_genes] floats in [[0, 1]], one per field, in a
    fixed order — the representation
    {!Cqp_core.Metaheuristics.Ga.one_point} and
    {!Cqp_core.Metaheuristics.Ga.point_mutate} operate on. *)

val of_genes : float array -> t
(** Decode a gene vector, clamping every field into range; total on
    any array of [n_genes] floats (closure of the GA operators).
    @raise Invalid_argument on a wrong-length vector. *)

val mutate_gene : Cqp_util.Rng.t -> float -> float
(** Gaussian jitter clamped to [[0, 1]] — the site mutator passed to
    {!Cqp_core.Metaheuristics.Ga.point_mutate}. *)

val random : Cqp_util.Rng.t -> t
(** A uniform random (valid) genome. *)

(** {1 Text encoding} *)

val to_string : t -> string
(** One line, sorted [key=value] pairs, floats in hex — the form
    stored in frozen scenario files.  [of_string (to_string g) = g]
    exactly. *)

val of_string : string -> t
(** @raise Failure on unknown/missing keys or malformed values. *)

(** {1 Decoding} *)

val decode : t -> Cqp_relal.Catalog.t -> Cqp_serve.Workload.entry list
(** The genome's workload: profile installs (seed pool of [diversity]
    seeds, shaped by [shape]) for every user, then [requests] requests
    ordered by [arrival] with [updates] re-installs interleaved at
    deterministic positions. *)

val resilience : t -> Cqp_resilience.Config.t
(** The genome's serving policy: deadline/shedding/retries/fault plan.
    Backoffs are scaled down (0.05 ms base, 0.2 ms cap) so evolved
    fault storms cost microseconds, not test-suite seconds. *)

val server : ?lanes:int -> t -> Cqp_relal.Catalog.t -> Cqp_serve.Serve.t
(** A fresh caching server configured for this genome ([capacity],
    {!resilience}), with [lanes] (default 1) serving lanes, each with
    caches of that capacity. *)

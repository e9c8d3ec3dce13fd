(** Fitness of a workload genome: how much it hurts the server.

    Every axis is {e timing-independent} — solver work counters, label
    tallies, cache miss ratios, estimated (not measured) cost — so a
    genome's fitness is a pure function of (genome, catalog).  That is
    what makes the evolved reservoir bit-identical across runs, domain
    counts, and machines; wall-clock latency is reported by the CLI as
    advisory output but never feeds selection.  Evaluation replays the
    genome's workload sequentially on a fresh server (the domain pool
    parallelizes {e across} candidates, never inside one). *)

type t = {
  requests : int;  (** request entries in the workload *)
  served : int;
  shed : int;
  blown : int;  (** served with [deadline_expired] *)
  degraded : int;  (** served below the Full rung *)
  retries : int;  (** total retry attempts *)
  total_work : int;  (** Σ states_visited + param_evals *)
  mean_work : float;
  stddev_work : float;
  p99_work : float;  (** p99 per-request solver work *)
  miss_ratio : float;  (** extraction-cache misses / lookups *)
  est_cost_p99 : float;  (** p99 estimated cost of served solutions *)
}

val of_responses : Cqp_serve.Serve.t -> Cqp_serve.Serve.response list -> t
(** Aggregate one replay's responses on a server; the extraction-cache
    hit/miss totals are the server's {!Cqp_serve.Serve.cache_totals}. *)

val evaluate : Cqp_relal.Catalog.t -> Genome.t -> t
(** Decode, build the genome's server, replay sequentially, aggregate.
    Deterministic. *)

val score : t -> float
(** Scalar "pain" combining the axes (higher = worse for the server).
    Uses only rational arithmetic (no transcendental functions), so
    scores are bit-identical across platforms. *)

val summary : t -> string
(** One human-readable line of the axes. *)

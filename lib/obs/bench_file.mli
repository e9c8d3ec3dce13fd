(** BENCH_<label>.json: one point on the perf trajectory.

    The bench [trend] subcommand writes one file per run — a label
    (git sha, date, branch) and one record per workload with exact
    latency percentiles (computed from the raw per-request latency
    array, not the factor-2 histogram buckets), solver effort, cache
    effectiveness, and GC pressure.  {!diff} compares two such files
    and flags regressions beyond a tolerance; the [profile] CLI
    subcommand exits nonzero when any are found, which is the CI
    trend gate. *)

type workload = {
  name : string;
  requests : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  states_visited : int;  (** solver states expanded across the workload *)
  cache_hit_rate : float;  (** pref_space extraction hits / lookups, 0..1 *)
  gc_minor_words : float;
  gc_major_words : float;
}

type t = { label : string; workloads : workload list }

val to_json : t -> Jsonx.t
val of_json : Jsonx.t -> t
(** @raise Failure on a malformed bench object. *)

val write : file:string -> t -> unit

val read : string -> t
(** @raise Failure / [Sys_error] / [Jsonx.Parse_error] on bad input. *)

(** {1 Comparison} *)

type finding = {
  workload : string;
  metric : string;
  timing : bool;  (** latency percentile (noisy) vs deterministic count *)
  base : float;
  current : float;
  ratio : float;  (** current / base; [infinity] when base is 0 *)
  regression : bool;
}

val diff :
  ?tolerance:float ->
  ?ignore_timing:bool ->
  base:t ->
  current:t ->
  unit ->
  finding list
(** One finding per (workload, metric) pair of [base], in order.
    [tolerance] defaults to [0.20]: lower-is-better metrics regress
    above [base * 1.2] (timing additionally more than 50 µs above base),
    higher-is-better below [base * 0.8].  A base workload missing from
    [current] yields a single synthetic ["present"] regression.
    Workloads only in [current] are ignored (new coverage is not a
    regression).  [ignore_timing] drops timing findings entirely — the
    cross-machine CI mode. *)

val has_regression : finding list -> bool
val pp_finding : Format.formatter -> finding -> unit

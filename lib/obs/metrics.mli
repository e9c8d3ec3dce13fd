(** A global metrics registry: named counters, gauges and log-scale
    histograms, with a JSON snapshot dump.

    Disabled by default; while disabled every entry point is a single
    boolean test and records nothing, so instrumented hot paths are
    unaffected.  Instruments are created on first use and keyed by
    name; dotted names ([solver.states_visited], [engine.block_reads])
    are the convention.  Subsystems with several instruments namespace
    one level deeper: the serve layer publishes
    [serve.cache.pref_space.{lookups,hits,misses,inserts,evictions,
    removals}] and [serve.cache.estimate.{lookups,hits,misses}] as
    counters, [serve.cache.pref_space.{entries,bytes_held}] and
    [serve.cache.estimate.entries] as gauges, plus the [serve.requests]
    counter and [serve.latency_us] histogram. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Drop every instrument. *)

(** {1 Thread safety}

    All recording and reading entry points are serialized by one
    internal mutex, so counters and histograms published concurrently
    from several domains (pool workers, sharded serve caches) lose no
    updates.  The mutex is only ever taken {e behind} the enabled
    guard: while the registry is disabled, recording remains a single
    boolean test and acquires nothing — the zero-cost contract is
    unchanged.  Export ({!to_json}, {!pp}) snapshots under the lock
    but should still be called from a quiescent point (end of run).

    The lock counters below let parallel layers detect when metric
    publishing itself contends. *)

val lock_acquisitions : unit -> int
(** Total mutex acquisitions since program start (monotone). *)

(** {1 Recording} *)

val add : string -> int -> unit
(** Add to a counter (created at 0). *)

val incr : string -> unit
(** [incr name] = [add name 1]. *)

val gauge : string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : string -> float -> unit
(** Record a value into a log-scale histogram.  NaN observations are
    dropped (they would poison the running sum and have no bucket);
    each drop increments the [metrics.observe_nan] counter.  Negative
    values are recorded into bucket 0. *)

(** {1 Reading} *)

val counter_value : string -> int
(** Current counter value; [0] when absent.  Works even while the
    registry is disabled (reads are not gated). *)

val gauge_value : string -> float option
val histogram_count : string -> int
val histogram_sum : string -> float option

val histogram_quantile : string -> float -> float option
(** [histogram_quantile name q] is the nearest-rank q-quantile read
    off the log-scale buckets: the exclusive upper bound of the bucket
    holding the q-th observation (so an {e upper} estimate, within the
    factor-2 bucket resolution; [infinity] when it lands in the
    overflow bucket).  [None] for an absent or empty histogram.  [q]
    is clamped into [0, 1]. *)

(** {1 Log-scale histogram geometry}

    Bucket 0 collects values [< 1.0] (explicitly including negative
    ones); bucket [i] for [1 <= i <= 62] collects [2^(i-1) <= v <
    2^i]; the last bucket, {!n_buckets}[- 1], collects everything from
    [2^62] up.  Exposed for tests and external decoders. *)

val n_buckets : int

val bucket_index : float -> int
(** @raise Invalid_argument on NaN ({!observe} filters NaN before
    reaching this point). *)

val bucket_upper_bound : int -> float
(** Exclusive upper bound of a bucket; [infinity] for the last. *)

(** {1 Export} *)

val to_json : unit -> Jsonx.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"count": n, "sum": s, "buckets": [{"le": ub, "count": c}, ...]}}}]
    with only non-empty buckets listed. *)

val to_json_string : unit -> string

val dump_json : file:string -> unit
(** Write {!to_json_string} to [file], plus a one-line
    ["metrics -> <file> (...)"] note on stderr — the single dump path
    shared by the CLI and the bench harness so their output stays
    uniform. *)

val to_prometheus : unit -> string
(** The whole registry in the Prometheus text exposition format
    (version 0.0.4): dotted names mapped to underscores, counters and
    gauges as single samples, histograms as cumulative
    [<name>_bucket{le="..."}] series (log-scale upper bounds, empty
    buckets omitted, overflow folded into [le="+Inf"]) plus
    [<name>_sum] / [<name>_count] — scrapeable without the
    Chrome-trace path. *)

val write_prometheus : file:string -> unit
val pp : Format.formatter -> unit -> unit

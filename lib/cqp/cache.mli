(** Cross-request caches for batched personalization (the serve layer).

    Three caches, all scoped to {e one} catalog:

    - an LRU over {!Pref_space.extract} results, keyed by (profile
      fingerprint, Q's anchor relation set, cmax, Q's base cost,
      path-length bound).  Only the graph walk is cached;
      {!Pref_space.assemble} re-prices candidates per request, because
      item cost/size depend on Q's full WHERE clause.  Keys embed the
      {!Cqp_prefs.Profile.fingerprint}, so a changed profile can never
      hit a stale entry — {!invalidate_profile} exists to release the
      memory eagerly, not for correctness.
    - an LRU over computed {!Nsga2} Pareto fronts in serving form,
      keyed by {!front_key} (profile fingerprint, query digest, full
      constraint record, K cap) — the pareto-serving feature's cache.
    - an {!Estimate.Memo} shared by every estimator built for
      this catalog, memoizing pure per-predicate selectivity / distinct
      / block-count lookups.

    No cache can change results: the differential tests in
    [test/test_serve_diff.ml] assert bit-identical output with caches
    on and off ({!Nsga2.front} is a pure function of its inputs, so a
    front hit is indistinguishable from a recompute).  Metrics are
    published as [serve.cache.pref_space.*], [serve.pareto.*] (only
    once the front cache has been used) and [serve.cache.estimate.*]
    deltas via {!publish_metrics}. *)

type t

val create : ?pref_space_capacity:int -> Cqp_relal.Catalog.t -> t
(** [pref_space_capacity] (default 128) bounds the extraction LRU; [0]
    disables it (every request re-extracts).  The Pareto-front LRU
    holds 128 fronts, and the estimate memo is always attached.  The
    cache must only serve queries over the given catalog. *)

val catalog : t -> Cqp_relal.Catalog.t

val memo : t -> Estimate.Memo.t option
(** Pass to {!Estimate.create} for every request served through this
    cache (always [Some]). *)

val pref_space :
  t ->
  ?constraints:Params.constraints ->
  ?max_k:int ->
  ?max_path_length:int ->
  ?orders:Pref_space.orders ->
  Estimate.t ->
  Cqp_prefs.Profile.t ->
  Pref_space.t
(** Drop-in replacement for {!Pref_space.build} that reuses a cached
    extraction when one matches. *)

val front_key :
  ?constraints:Params.constraints ->
  ?max_k:int ->
  fingerprint:string ->
  sql:string ->
  k:int ->
  unit ->
  string
(** Cache key for a serving front: everything {!Nsga2.front} over an
    assembled space can depend on — the profile fingerprint (leading,
    so fingerprint invalidation covers fronts), the query text digest,
    the full constraint record and the K cap, plus [k], the assembled
    space's actual size.  Floats in hex so the key is exact. *)

val front : t -> key:string -> (unit -> Nsga2.serving) -> Nsga2.serving
(** Look up a serving front, computing and storing it on a miss. *)

val invalidate_profile : t -> Cqp_prefs.Profile.t -> int
(** Drop every extraction {e and} front cached for this profile's
    fingerprint; returns the number of entries dropped.  Call on
    profile update to release memory held for the superseded profile
    (content-addressed keys already prevent stale hits). *)

val invalidate_fingerprint : t -> string -> int
(** Same, from a previously saved {!Cqp_prefs.Profile.fingerprint} —
    for callers that no longer hold the old profile value. *)

val clear : t -> unit

val extraction_stats : t -> Cqp_util.Lru.stats
val extraction_entries : t -> int

val front_stats : t -> Cqp_util.Lru.stats
(** Front-LRU statistics ([lookups = hits + misses] always holds —
    the smoke jobs reconcile the published [serve.pareto.*] counters
    against these). *)

val front_entries : t -> int

val front_points_held : t -> int
(** Total Pareto points retained across cached fronts. *)

val bytes_held : t -> int
(** Approximate bytes retained by cached extractions. *)

val memo_stats : t -> int * int
(** Estimate-memo [(lookups, hits)]. *)

val publish_metrics : t -> unit
(** Emit counter deltas since the previous call plus current gauges
    into {!Cqp_obs.Metrics} (no-op while metrics are disabled):
    [serve.cache.pref_space.{lookups,hits,misses,inserts,evictions,
    removals,entries,bytes_held}],
    [serve.cache.estimate.{lookups,hits,misses,entries}], and — only
    once the front cache has seen a lookup —
    [serve.pareto.{lookups,hits,misses,inserts,evictions,removals,
    entries,points_held}]. *)

val publish_gauge_totals : t list -> unit
(** Re-publish the absolute [serve.cache.*.entries] / [bytes_held]
    gauges as sums over several caches.  The counter metrics are delta
    published and therefore already sum exactly across caches; a
    sharded server (one domain-local cache per shard) calls this at
    drain time so the gauges reflect the fleet rather than whichever
    shard published last. *)

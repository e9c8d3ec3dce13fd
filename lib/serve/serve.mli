(** Batch personalization server.

    Holds per-user profiles and serves (user, query, problem) requests
    through the {!Cqp_core.Cache} cross-request caches — the first
    component of this repository that behaves like a server rather
    than a one-shot experiment.  Results are bit-identical with
    caching on or off (enforced by [test/test_serve_diff.ml]); the
    caches only buy latency.

    {2 Resilience}

    A {!Cqp_resilience.Config.t} (default: everything off) adds
    deadline-aware degradation to {!handle}:

    - A per-request deadline starts a {!Cqp_resilience.Budget.t} that
      every search polls, making the solve anytime; if the full solve
      cannot reach feasibility in time the server walks the
      degradation ladder — single cheap heuristic, doi-ordered greedy,
      unpersonalized — each rung under the remaining budget.  The rung
      that answered is recorded on the response.
    - With [pareto] enabled, every request additionally computes (or
      looks up in the {!Cqp_core.Cache} front cache) the tri-objective
      {!Cqp_core.Nsga2} Pareto front for its (query, profile,
      constraints), and under deadline pressure the ladder first tries
      to serve an operating point off that front: the best-doi point
      whose estimated cost fits the budget that remained at solve
      start (O(log n) binary search on cost), falling back to the
      front's knee as a bounded-cost quality floor.  The pick is
      recorded as {!Cqp_resilience.Rung.Pareto} plus the point index
      ([front_point]); without deadline pressure the front is cached
      but never consulted, so responses stay bit-identical.
    - Transient faults ({!Cqp_resilience.Fault.Injected}) are retried
      with bounded exponential backoff (capped by the remaining
      budget); past [max_retries] the request answers unpersonalized
      rather than failing.
    - With [shed_queue_depth] set, a request whose queue position
      reaches the depth is {e shed}: answered with an explicit {!Shed}
      verdict, never silently dropped.  The caller assigns positions;
      {!Workload.replay} and the network server both number requests
      by arrival order, so the shed pattern does not depend on the
      lane count.
    - A seeded {!Cqp_resilience.Fault.t} plan injects I/O latency
      spikes, forced cache misses, eviction storms, and transient
      exceptions — deterministically per request content, at any
      domain count.

    With the default config the serve path reads no clock beyond
    latency stamping and behaves bit-identically to a server without
    resilience at all ([test/test_resilience.ml] enforces this).

    Per served request, when metrics are enabled, the server
    increments [serve.requests], observes [serve.latency_us]
    (monotonic clock, clamped at zero), and republishes the cache
    counters; degraded rungs count [resilience.degraded.<rung>], shed
    requests [resilience.shed], retries [resilience.retries], blown
    deadlines [resilience.deadline_expired], and injected faults the
    [resilience.fault.*] family. *)

type request = {
  user : string;
  sql : string;
  problem : Cqp_core.Problem.t;
  max_k : int option;
  algorithm : Cqp_core.Algorithm.t;
  execute : bool;
}

type served = {
  outcome : Cqp_core.Personalizer.outcome;
  rung : Cqp_resilience.Rung.t;
      (** the degradation rung that produced the outcome *)
  retries : int;  (** transient-fault retries spent on this request *)
  deadline_expired : bool;
      (** the request's deadline had expired by response time *)
  front_point : int option;
      (** with pareto serving enabled and the request answered at
          {!Cqp_resilience.Rung.Pareto}: the index (in cost order) of
          the front operating point served; [None] otherwise *)
}

type verdict =
  | Served of served
  | Shed of { queue_position : int; limit : int }
      (** load-shed before solving: queue position reached the
          configured depth *)

type response = {
  request : request;
  request_id : int;
      (** process-wide unique id ({!Cqp_obs.Request.fresh_id}),
          assigned whether or not profiling is enabled *)
  verdict : verdict;
  latency_ms : float;  (** monotonic wall-clock serve time, >= 0 *)
}

val outcome : response -> Cqp_core.Personalizer.outcome option
(** [None] for a shed request. *)

val outcome_exn : response -> Cqp_core.Personalizer.outcome
(** @raise Invalid_argument on a shed request. *)

type t

exception Unknown_user of string

val create :
  ?caching:bool ->
  ?pref_space_capacity:int ->
  ?resilience:Cqp_resilience.Config.t ->
  ?lanes:int ->
  Cqp_relal.Catalog.t ->
  t
(** [caching:false] disables the caches (the differential baseline);
    [pref_space_capacity] is forwarded to {!Cqp_core.Cache.create}.
    [resilience] (default {!Cqp_resilience.Config.default}, all off)
    configures deadlines, degradation, retries, shedding, and fault
    injection.  [lanes] (default 1) is the number of serving lanes
    (see {!section-lanes}); every lane gets its own caches.
    @raise Invalid_argument when [lanes < 1]. *)

val catalog : t -> Cqp_relal.Catalog.t
val resilience : t -> Cqp_resilience.Config.t

val set_profile : t -> user:string -> Cqp_prefs.Profile.t -> unit
(** Install or replace a user's profile.  On replacement, extractions
    cached for the superseded profile are invalidated (released —
    fingerprint keys already make stale hits impossible). *)

val profile : t -> string -> Cqp_prefs.Profile.t option

val remove_profile : t -> user:string -> unit
(** Forget a user's profile (subsequent requests for the user raise
    {!Unknown_user} until it is re-installed).  Cached extractions are
    {e not} invalidated: fingerprint keys make stale hits impossible
    and the extraction cache is independently LRU-bounded, so the
    network layer's bounded working set can cycle users in and out
    without going cold. *)

val handle :
  ?queue_position:int ->
  ?enqueued_us:float ->
  ?deadline_ms:float ->
  t ->
  request ->
  response
(** Serve one request through the resilience pipeline: shed check
    (only when [queue_position] is given and shedding is configured),
    deadline budget, fault decision, bounded retries, degradation
    ladder.  Always returns a response when the user is known — faults
    and deadlines degrade, they do not raise.

    When {!Cqp_obs.Request} profiling is enabled, the request runs
    under a profiling context: its cache-lookup / solve / degrade /
    render / exec phase spans land in the [profile.phase.*_us]
    histograms, GC word deltas in [profile.gc.*], and one event line
    per request in the open {!Cqp_obs.Reqlog} sink.  [enqueued_us] (a
    {!Cqp_obs.Clock.now_us} stamp taken when the request was admitted
    to its lane) credits the gap to handling start as [queue_wait].
    With profiling disabled both parameters are free and responses are
    bit-identical apart from [request_id] and [latency_ms].
    [deadline_ms] overrides the configured
    {!Cqp_resilience.Config.t.deadline_ms} for this request only (the
    wire protocol carries a per-request deadline); when absent the
    configured default applies.
    @raise Unknown_user when no profile was installed for the
    requesting user.
    @raise Cqp_sql.Parser.Parse_error /
    [Cqp_sql.Analyzer.Semantic_error] as {!Cqp_core.Personalizer.run}
    does. *)

(** {1:lanes Lanes}

    A server is a fixed array of {e lanes}, each with its own profile
    table and its own caches.  {!lane_of} sends a user to the same lane
    at every call, and {!handle}, {!set_profile}, {!profile} and
    {!remove_profile} all act on that lane alone, so each profile
    lives in exactly one place.

    Contract: calls for one lane never overlap; calls for different
    lanes may run at once.  {!Workload.replay} keeps it by running each
    lane's entries as one pool job, the network server by holding one
    mutex per lane.  Responses do not depend on the lane count: caches
    cannot change results (the [test_serve_diff] invariant) and a
    user's calls keep their order within the user's lane. *)

val lanes : t -> int
(** The lane count {!create} was given. *)

val lane_of : t -> string -> int
(** [lane_of t user] is the lane (0 to [lanes t - 1]) that holds
    [user]'s profile and serves its requests: a hash of the name, the
    same at every call. *)

val caches : t -> Cqp_core.Cache.t list
(** The lanes' caches, in lane order; empty with [caching:false]. *)

(** {1 Replay summaries}

    What [cqp serve], the curriculum and the bench report about a
    replay, computed one way. *)

type tally = {
  requests : int;  (** responses, shed ones included *)
  served : int;
  shed : int;
  expired : int;  (** served with [deadline_expired] *)
  total_retries : int;  (** [retries] summed over the served responses *)
  rungs : (Cqp_resilience.Rung.t * int) list;
      (** served responses per rung, in {!Cqp_resilience.Rung.all}
          order *)
}

val tally : response list -> tally
(** The responses' verdicts counted. *)

type latency = {
  requests : int;
  mean_ms : float;
  sd_ms : float;  (** population standard deviation *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
}

val latency : response list -> latency
(** The responses' [latency_ms]: mean, standard deviation and
    nearest-rank percentiles ({!Cqp_util.Stats}); all zero for no
    responses. *)

type cache_totals = {
  caches : int;
      (** how many caches were summed: one per lane, 0 with caching
          off *)
  extraction_hits : int;
  extraction_lookups : int;  (** pref-space extraction LRU *)
  extraction_entries : int;
  bytes_held : int;
  memo_hits : int;
  memo_lookups : int;  (** estimate memo *)
  front_hits : int;
  front_lookups : int;  (** Pareto front LRU *)
  front_entries : int;
  front_points : int;
}

val cache_totals : t -> cache_totals
(** Every cache statistic summed over {!caches}. *)

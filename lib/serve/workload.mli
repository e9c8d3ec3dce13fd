(** Multi-user serve workloads: generation, a tab-separated on-disk
    format, and replay against a {!Serve.t}.

    A workload is an ordered list of entries — profile installations
    (stored as generator seeds, not materialized profiles, so files
    stay small and replay is deterministic) interleaved with
    personalization requests.  Mid-stream [Set_profile] entries for an
    already-known user exercise the cache-invalidation path.

    Generation derives all per-entry randomness with
    {!Cqp_util.Rng.split} keyed by entry index, so entry [i] is the
    same regardless of how many entries surround it. *)

type entry =
  | Set_profile of {
      user : string;
      seed : int;
      shape : Cqp_workload.Profile_gen.config option;
          (** generator configuration override; [None] (the generated
              default) keeps [Profile_gen.default_config].  The
              curriculum's genomes install shaped profile populations
              through this. *)
    }
      (** install [Cqp_workload.Profile_gen.generate] with a fresh
          generator seeded by [seed] as [user]'s profile *)
  | Request of Serve.request

val generate :
  ?users:int ->
  ?requests:int ->
  ?updates:int ->
  ?execute:bool ->
  rng:Cqp_util.Rng.t ->
  Cqp_relal.Catalog.t ->
  entry list
(** [users] (default 3) profile installations up front, then
    [requests] (default 20) requests over {!Cqp_workload.Query_gen}
    serve templates with problems drawn from the paper's family
    (2, 3 and 4), with [updates] (default 0) profile re-installations
    interleaved at deterministic positions.  [execute] (default
    [false]) marks every request for engine execution. *)

val random_request :
  ?execute:bool ->
  rng:Cqp_util.Rng.t ->
  user:string ->
  Cqp_relal.Catalog.t ->
  Serve.request
(** One request exactly as {!generate} draws them (serve template
    query, paper problem family, bounded K, rotating algorithm), for
    callers that pick users themselves — the network load generator
    draws Zipf-skewed users and feeds each request's own
    {!Cqp_util.Rng.split} stream here. *)

val seeded_profile :
  ?shape:Cqp_workload.Profile_gen.config ->
  Cqp_relal.Catalog.t ->
  int ->
  Cqp_prefs.Profile.t
(** The profile a seed installs: {!Cqp_workload.Profile_gen.generate}
    (with the [shape], if any) on a fresh generator seeded by the
    seed.  A [Set_profile] entry, the network [Install] frame and an
    offline store load all build their profiles here. *)

val install :
  Serve.t -> user:string -> ?shape:Cqp_workload.Profile_gen.config -> int -> unit
(** What a [Set_profile] entry does during replay: install the
    {!seeded_profile}.  Exposed for callers that install profiles
    outside a replay. *)

val replay : ?pool:Cqp_par.Pool.t -> Serve.t -> entry list -> Serve.response list
(** Apply entries in order; [Set_profile] installs (returning
    nothing), [Request] serves.

    Admission is by {e arrival order}: each request's [queue_position]
    (the serve layer's shed check) is its 0-based index among the
    workload's requests, decided before any lane runs.  The shed
    pattern is therefore a pure function of the workload, the same at
    every domain count.

    Entries are partitioned by the lane that holds their user
    ({!Serve.lane_of}), and each lane's entries run in entry order as
    one job: on the [pool] when given, one lane after another
    otherwise.  A server with as many lanes as the pool has domains
    replays in parallel; the pool's width never changes the lane
    count.  Responses come back in entry order and are bit-identical
    at every lane count and pool width, shed verdicts included —
    caches cannot change results and per-user entry order is preserved
    within a lane — while per-request latencies and the hit/miss split
    across the lanes' caches naturally differ ([test/test_par_diff.ml]
    checks both claims).  With metrics on, the replay ends by
    publishing the [serve.cache.*] gauges summed over {!Serve.caches}.
    A lane's exception aborts the replay after the in-flight batch
    drains, re-raising the lowest lane's failure. *)

(** {1 On-disk format}

    One entry per line, tab-separated; floats in hex so constraint
    bounds round-trip exactly:
    {v
    user<TAB>alice<TAB>91234
    req<TAB>alice<TAB>2:cmax=0x1.9p+9<TAB>16<TAB>C_Boundaries<TAB>-<TAB>select title from movie
    v}

    A profile installation with a non-default shape carries a fourth
    column ([sel=<n>;doi=u:<lo>:<hi>|n:<mean>:<sd>;join=<lo>:<hi>],
    floats in hex); three-column [user] lines — every file written
    before shapes existed — still parse.

    Numbers are checked at parse time: a NaN constraint bound, a
    uniform or join doi bound outside the unit interval, a
    non-finite normal parameter and a negative [sel] are rejected.
    An infinite constraint bound is accepted: it constrains nothing. *)

val entry_to_line : entry -> string

val entry_of_line : string -> entry
(** @raise Failure on a malformed line or a rejected number. *)

val save : string -> entry list -> unit

val load : string -> entry list
(** @raise Failure on a malformed line, naming the file and 1-based
    line number ahead of the underlying parse error — blank lines are
    skipped but still counted. *)

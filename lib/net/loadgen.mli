(** Open-loop load generator for the network front door.

    Drives a running {!Server} from a second process (or a test
    harness): [requests] arrivals on a Poisson schedule at [rate]
    requests/second, users drawn Zipf-skewed over a population of
    [users] (rank 1 hottest), request content drawn per arrival index
    with {!Cqp_util.Rng.split} — so two runs with one seed offer the
    {e same} request sequence, and only timing differs.

    Arrivals are scheduled up front and fanned over [connections]
    worker domains round-robin; a worker sleeps until each arrival's
    offset and never waits for a reply before its next send time is
    due, up to head-of-line blocking on its own connection (true open
    loop would need a connection per in-flight request).  Late sends
    are sent immediately and counted.

    The Zipf CDF is precomputed once and drawn by binary search —
    {!Cqp_util.Rng.zipf} is O(n) per draw, unusable at a million
    users. *)

type config = {
  users : int;  (** user population (user names [u0..]) *)
  zipf_s : float;  (** skew exponent; [0.] is uniform *)
  rate : float;  (** offered load, requests/second *)
  requests : int;
  connections : int;  (** worker domains, one socket each *)
  seed : int;
  deadline_ms : float option;  (** stamped on every query *)
  execute : bool;
}

val default : config
(** 1000 users, s = 1.1, 200 req/s, 2000 requests, 4 connections,
    seed 7, no deadline, no execution. *)

type report = {
  sent : int;
  served : int;
  shed : int;
  errors : int;  (** [Error] replies, by far most often [Unknown_user] *)
  protocol_errors : int;  (** undecodable replies / connections lost *)
  deadline_expired : int;  (** served replies that blew their deadline *)
  late_sends : int;  (** arrivals already past due when their worker
                         got to them (head-of-line blocking) *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;  (** request–reply latency percentiles, [nan] when
                        nothing completed *)
  duration_s : float;
  achieved_rate : float;  (** completed replies / duration *)
}

val run : config -> catalog:Cqp_relal.Catalog.t -> Unix.sockaddr -> report
(** Drive the server ([catalog] shapes the generated queries — it must
    be the catalog the server loaded); returns when every arrival has
    been answered or failed.  Counts reconcile: [sent = served + shed
    + errors + protocol_errors], with a lost connection counting its
    undeliverable remainder as protocol errors. *)

val populate :
  ?shape:Cqp_workload.Profile_gen.config -> config -> Unix.sockaddr -> unit
(** Install the population over the wire: an [Install] frame per user
    [u<i>] with generator seed [seed + i], round-robin over
    [connections] — the setup phase before {!run}. *)

val populate_store :
  ?shape:Cqp_workload.Profile_gen.config ->
  ?shards:int ->
  dir:string ->
  users:int ->
  seed:int ->
  Cqp_relal.Catalog.t ->
  unit
(** Offline bulk load: write the population straight into a {!Store}
    directory (no server involved), for the 100k–1M profile
    experiments where per-request installs would dominate.  Profiles
    are generated exactly as {!populate}'s [Install] frames generate
    them ({!Cqp_serve.Workload.seeded_profile}, user [u<i>] seeded by
    [seed + i]), so a server opening [dir] serves the same
    population. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
(** One JSON object — the CI artifact row. *)

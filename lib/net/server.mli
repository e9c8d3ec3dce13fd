(** The network front door: a Unix-socket/TCP server speaking the
    {!Wire} protocol over {!Cqp_serve.Serve}.

    {2 Architecture}

    One accept domain plus one domain per live connection (bounded by
    [max_connections]; excess connections are answered [Error Busy]
    and closed).  Requests are served by a fleet of {e lanes} — the
    {!Cqp_serve.Serve.shards} fleet of the wrapped server, each lane
    guarded by a mutex — with users assigned to lanes by
    {!Cqp_serve.Serve.shard_of}, so all of a user's requests land on
    one lane and its domain-local caches.  A query runs on its
    connection's domain under its lane's mutex, so at most one query
    per lane runs at a time, whatever the connection count.

    {2 Admission and backpressure}

    A connection is strict request–reply: the server reads one frame,
    answers it, and only then reads the next, so a client cannot
    buffer unbounded work into a lane.  Admission is by arrival
    order, as in {!Cqp_serve.Workload.replay}: each query is stamped
    with the server-wide count of queries in flight when it arrives,
    whichever lane it hashes to (the [queue_position] fed to the serve
    layer's shed check), and an [enqueued_us] clock stamp (credited as
    queue wait by the profiling layer).  Lanes only execute.  With
    [shed_queue_depth] configured on the wrapped server, overload
    answers explicit [Shed] frames instead of queueing.

    {2 Profile storage}

    With [store_dir], profiles live in a {!Store}: installs write
    through to disk, and a query for a user absent from its lane
    faults the profile back (store resident LRU first, segment file
    second) and installs it before serving.  The store's resident
    capacity bounds the decoded working set; its evictions uninstall
    the user from its lane ({!Cqp_serve.Serve.remove_profile}), so
    lane tables track residency.  Lock order is store mutex before
    lane mutex, always — the eviction callback may take a lane mutex
    while the store mutex is held, never the reverse.  Without
    [store_dir] profiles live only in the lanes, unbounded.

    {2 Drain}

    {!stop} (or a [Shutdown] frame) closes the listener, lets every
    in-flight request answer, then closes the connections.  Connection
    reads poll a stop flag a few times a second, so drain completes
    promptly even with idle clients connected.

    {2 Metrics}

    When {!Cqp_obs.Metrics} is enabled, the [net.*] family:
    [net.connections.{accepted,rejected,active}], [net.bytes_{in,out}],
    [net.frame_errors], per-frame counters ([net.requests] counts
    query frames; [net.installs], [net.puts], [net.pings]), reply
    counters [net.replies.{served,shed}] and
    [net.errors.{bad_request,unknown_user,server_error}], the
    [net.request_us] admission-to-reply histogram, and
    [net.store.{resident,users,blobs}] gauges.  The reconciliation
    invariant — checked exactly by the cram test [test/cli/net_loadgen.t] —

    {v net.requests = net.replies.served + net.replies.shed
                    + net.errors.bad_request + net.errors.unknown_user
                    + net.errors.server_error v}

    holds at any quiescent point: every admitted query is answered and
    counted exactly once.  Frame-decode failures count
    [net.frame_errors] only (the query never existed). *)

type addr =
  | Unix_path of string  (** bound after unlinking any stale socket *)
  | Tcp of string * int  (** host, port; port 0 binds ephemerally *)

type t

val create :
  ?max_connections:int ->
  ?store_dir:string ->
  ?store_resident:int ->
  lanes:int ->
  addr:addr ->
  Cqp_serve.Serve.t ->
  t
(** A server with [lanes] serving lanes; [max_connections] (default
    32) bounds live connection domains.  [store_dir] opens (or reopens
    — a directory prepopulated offline works) a {!Store} owned by the
    server, with [store_resident] (default 4096) bounding the decoded
    working set; the server wires the store's eviction hook to lane
    uninstalls itself, which is why it opens the store rather than
    accepting one.  {!stop} closes it.
    @raise Invalid_argument when [lanes < 1] or
    [max_connections < 1]. *)

val start : t -> unit
(** Bind, listen, spawn the accept domain, return.
    @raise Unix.Unix_error when binding fails. *)

val bound_addr : t -> Unix.sockaddr
(** The actual bound address (after {!start}) — resolves a [Tcp]
    port-0 request to the ephemeral port the OS picked. *)

val wait : t -> unit
(** Block until the server stops — a [Shutdown] frame or a concurrent
    {!stop}. *)

val stop : t -> unit
(** Initiate drain and block until the accept domain and every
    connection domain have joined and the store (if any) is closed.
    Idempotent. *)

val serving : t -> bool

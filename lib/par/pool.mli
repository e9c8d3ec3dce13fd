(** A fixed-size pool of OCaml 5 domains with a shared work queue.

    The pool is the repository's only parallel-execution primitive: the
    serve layer fans independent requests out over it and the solver
    races its algorithm portfolio on it.  It is deliberately small —
    stdlib [Domain] + [Mutex]/[Condition] only, no external scheduler —
    because every use site in this codebase is a flat fan-out of
    coarse-grained, independent jobs.

    {2 Determinism contract}

    Scheduling is nondeterministic, results are not: {!map} writes each
    result into the slot of its input index and {!run_all} gives every
    job its index, so output placement never depends on which domain
    ran what or in which order.  Callers that need randomness derive a
    stream per {e job index} with {!Cqp_util.Rng.split} (or
    {!Cqp_util.Rng.streams}) — never a stream per domain — which makes
    the drawn numbers a function of the job alone.  Under that
    discipline a pool of any size computes bit-identical results to the
    sequential run; [test/test_par_diff.ml] enforces this end to end.

    {2 Exceptions}

    A job that raises never kills a worker domain: the exception (and
    its backtrace) is captured in the job's slot, the batch keeps
    draining, and once every job has finished the exception of the
    {e lowest-index} failed job is re-raised to the submitter — again
    independent of scheduling.  Each capture increments the
    [par.pool.errors] counter.  With [parallelism = 1] jobs run inline
    in submission order and the first exception aborts the rest (the
    exact sequential semantics).

    {2 Nesting}

    Submitters help drain the queue while their batch is in flight, so
    a job may itself submit a batch to the same pool without
    deadlocking; it will simply run other queued jobs while waiting.

    {2 Metrics}

    When {!Cqp_obs.Metrics} is enabled: [par.pool.batches] and
    [par.pool.tasks] count submissions, [par.pool.errors] counts
    captured job exceptions (CI fails the build when it is non-zero),
    the [par.pool.domains] gauge records the pool size, and the
    [par.pool.queue_wait_us] histogram records each job's wait between
    batch submission and start of execution.  Worker domains register
    as [pool-worker-<n>] in the Chrome-trace thread names
    ({!Cqp_obs.Trace.name_thread}). *)

type t

val create : domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    submitting domain is the remaining worker, so [domains] is the
    total parallelism).  [domains = 1] spawns nothing and runs
    everything inline.
    @raise Invalid_argument when [domains < 1]. *)

val domains : t -> int
(** The total parallelism (workers + the submitting domain). *)

val run_all : t -> (int -> unit) array -> unit
(** Run every job (each receives its own index), returning when all
    have finished.  Re-raises the lowest-index captured exception, if
    any, with its original backtrace. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element; [result.(i)] is
    [f xs.(i)] regardless of scheduling.  Exception policy as
    {!run_all}. *)

val shutdown : t -> unit
(** Signal the workers to exit and join them.  Idempotent.  Submitting
    to a pool after [shutdown] raises [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)

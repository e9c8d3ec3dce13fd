(** Per-request phase profiling.

    A request context lives in domain-local storage between {!start}
    and {!finish}.  Phases are timed by spans: {!Trace.with_span}
    [~phase] credits the outermost span of each phase on the domain
    with its wall-clock microseconds and [Gc.quick_stat] word deltas.
    A span nested inside a span of the same phase is not credited
    again; distinct phases nest freely ([Degrade] inside [Solve] is
    attributed to both by design).

    Everything is gated on a global switch: while disabled (and
    tracing is off) {!Trace.with_span} is a single boolean test, no
    context is allocated, and wrapped code runs unchanged — the serve
    path stays bit-identical.  Request ids ({!fresh_id}) are the one
    exception: they are handed out unconditionally so responses always
    carry a stable id.

    On {!finish}, phase times land in the [profile.phase.<name>_us]
    histograms, GC deltas in the [profile.gc.*] counters (when
    {!Metrics} is enabled), and one {!Reqlog.event} line is emitted
    (when a sink is open). *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val fresh_id : unit -> int
(** Next request id from a process-wide atomic counter.  Not gated on
    the enabled switch. *)

val start : id:int -> user:string -> unit
(** Install a fresh context for the calling domain.  No-op while
    disabled. *)

val active : unit -> bool
(** Profiling enabled {e and} a context installed on this domain. *)

val record_us : Phase.t -> float -> unit
(** Credit already-measured microseconds to a phase (used for
    [Queue_wait], whose interval straddles [start]).  Negative values
    clamp to 0. *)

val phase_us : Phase.t -> float
(** Microseconds accumulated so far by the current context; [0.]
    outside a request.  (Read-only peek for tests.) *)

val finish :
  rung:string ->
  outcome:string ->
  cache_hits:int ->
  cache_lookups:int ->
  latency_us:float ->
  unit
(** Publish the context (metrics + event log) and clear it.  No-op
    while disabled or when no context is installed. *)

val abort : unit -> unit
(** Drop the current context without publishing (request abandoned). *)

(**/**)

(* Shared with [Trace], which owns the span side of a phase. *)

val timing : bool ref
(** Tracing or profiling is on: the one flag {!Trace.with_span} tests
    on its disabled path. *)

val set_tracing : bool -> unit
(** [Trace]'s switch, mirrored so that {!timing} stays the disjunction
    of both switches. *)

type credit

val enter : Phase.t -> credit option
(** [Some] when profiling is on and a request is active on this
    domain: snapshots the GC counters for a phase span's interval. *)

val leave : credit -> us:float -> unit
(** Credit the span's duration and GC word deltas to its phase. *)

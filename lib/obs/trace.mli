(** Hierarchical span tracing with a global per-run buffer, and the
    one timing path of the serve phases.

    Disabled by default.  While tracing and request profiling
    ({!Request}) are both off, every entry point is a single boolean
    test — [with_span] runs its thunk directly, records nothing and
    allocates nothing, so instrumented hot paths cost nothing beyond
    the branch.

    When tracing is enabled, {!with_span} records a span per call,
    nested under the innermost open span {e of the calling domain}:
    the open-span stack is domain-local, so spans emitted by
    {!Cqp_par.Pool} workers parent correctly within their own domain,
    while the shared span buffer itself is mutex-guarded (enabled-only
    — the disabled path never touches the lock).  The buffer can be
    exported as Chrome [trace_event] JSON, loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    A span given [~phase] times one of the serve {!Phase}s.  The same
    two clock readings feed the trace and, inside a profiled request,
    the request's phase time and GC words. *)

val enable : unit -> unit
(** Start recording; also re-anchors the trace clock origin. *)

val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded spans and any open stack. *)

val with_span :
  name:string ->
  ?phase:Phase.t ->
  ?attrs:(unit -> Attr.t list) ->
  (unit -> 'a) ->
  'a
(** [with_span ~name f] runs [f] inside a span.  [attrs] is a thunk so
    attribute values are never computed while tracing is disabled.  The
    span is closed (duration filled in) even when [f] raises.

    With [~phase], the outermost such span of each phase on the
    calling domain is tagged with the phase ({!Span.t.phase}, and
    ["phase"] under [args] in the Chrome export) and, inside a
    profiled request, credited to it; a span nested inside a span of
    the same phase is timed but neither tagged nor credited again. *)

val add_attr : Attr.t -> unit
(** Attach an attribute to the innermost open span; no-op when tracing
    is disabled or no span is open.  Useful for values only known at
    the end of a phase (counts, outcomes). *)

val instant : name:string -> ?attrs:(unit -> Attr.t list) -> unit -> unit
(** Record a zero-duration marker under the current span. *)

val spans : unit -> Span.t list
(** Recorded spans in start order (pre-order of the span tree). *)

val span_count : unit -> int

val dropped : unit -> int
(** Spans discarded after the buffer hit {!set_capacity}. *)

val set_capacity : int -> unit
(** Maximum buffered spans (default 1_000_000); protects long
    benchmark runs from unbounded growth. *)

val name_thread : string -> unit
(** Register a human-readable name for the calling domain, exported as
    a Chrome [thread_name] metadata event.  Works even while tracing
    is disabled (pool construction happens before [enable]); the main
    domain is pre-registered as ["main"], and unnamed domains that
    emitted spans export as ["domain-<id>"]. *)

val to_chrome_json : unit -> Jsonx.t
(** The buffer as a Chrome [trace_event] object:
    [{"traceEvents": [{"ph":"M",...} metadata; {"ph":"X","name":...,
    "ts":...,"dur":...,...} per span]}].  Spans carry the recording
    domain as [tid]; [process_name] / [thread_name] metadata events
    label every track. *)

val to_chrome_string : unit -> string
val write_chrome : file:string -> unit

val auto_flush : file:string -> unit
(** Arm an [at_exit] hook that writes the trace to [file] if nothing
    has written it by then — traces survive an uncaught exception or
    an early exit from a parallel run instead of ending up truncated
    or missing.  A subsequent {!write_chrome} to the same [file]
    disarms the hook (the trace is written exactly once either way);
    calling [auto_flush] again re-targets it. *)

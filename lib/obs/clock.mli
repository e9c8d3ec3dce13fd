(** Monotonic time source for tracing and deadline budgets.

    Backed by [CLOCK_MONOTONIC] (C stub), so timestamps never step
    backwards the way wall-clock time can under NTP corrections —
    differences are safe to feed into latency histograms and deadline
    arithmetic.  Timestamps are microseconds relative to process
    start, matching the [ts] unit of the Chrome trace_event format.
    The origin is reset by {!reset_origin} so tests can assert on
    small values. *)

val raw_us : unit -> float
(** The raw monotonic reading in microseconds, origin-free.  Cheap
    (one vDSO call, no allocation): suitable for polling from inner
    loops. *)

val now_us : unit -> float
(** Microseconds elapsed since the origin. *)

val reset_origin : unit -> unit
(** Re-anchor the origin at the current instant. *)

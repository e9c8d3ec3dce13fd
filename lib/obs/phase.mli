(** The serve pipeline's phases.  A phase is a tag on a span
    ({!Trace.with_span} [~phase]); inside a profiled request the span's
    interval is credited to its phase ({!Request}).

    - [Queue_wait]: admission to start of handling (batch-queue time in
      a replay lane).  It has no span: the interval starts before the
      request does, so it is credited from the enqueue stamp
      ({!Request.record_us}).
    - [Cache_lookup]: estimate construction and preference-space
      lookup/build through the cross-request caches.
    - [Solve]: the whole solve callback — including any degradation
      rungs, which additionally self-attribute as [Degrade] (i.e.
      [Degrade] time is a subset of [Solve] time, not disjoint).
    - [Degrade]: the post-expiry ladder rungs (heuristic, greedy).
    - [Exec]: engine execution of the personalized query.
    - [Render]: rewriting the solution into personalized SQL. *)

type t = Queue_wait | Cache_lookup | Solve | Degrade | Exec | Render

val all : t list
val count : int

val index : t -> int
(** Dense index into per-phase accumulator arrays; [0 <= index p < count]. *)

val name : t -> string

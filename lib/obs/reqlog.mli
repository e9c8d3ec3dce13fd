(** Structured per-request event log: one JSON line per served
    request, with the request id, user, degradation rung, outcome
    label, total and per-phase microseconds, cache hit/lookup deltas,
    and GC word deltas.

    The sink is optional and global — {!Request.finish} emits an event
    only while a file is open.  Lines are written under one mutex, so
    domain-sharded serving interleaves whole lines, never fragments.
    An [at_exit] hook closes (flushes) a sink left open. *)

type event = {
  id : int;
  user : string;
  rung : string;  (** degradation rung name, or ["-"] for a shed request *)
  outcome : string;  (** ["ok"], ["expired"], or ["shed"] *)
  latency_us : float;
  phases : (string * float) list;
      (** [(Phase.name, accumulated µs)] for phases that ran *)
  cache_hits : int;  (** pref_space extraction hits during this request *)
  cache_lookups : int;
  gc_minor_words : float;  (** whole-request [Gc.quick_stat] deltas *)
  gc_major_words : float;
}

val to_json : event -> Jsonx.t
val to_line : event -> string

val of_json : Jsonx.t -> event
(** @raise Failure on a malformed event object. *)

val of_line : string -> event
(** Inverse of {!to_line}.
    @raise Failure / [Jsonx.Parse_error] on malformed input. *)

val set_file : string -> unit
(** Open (truncate) [file] as the event sink, closing any previous
    sink, and arm the exit-time flush. *)

val close : unit -> unit
(** Flush and close the sink; subsequent events are dropped. *)

val is_open : unit -> bool

val logged_count : unit -> int
(** Events written since the sink was last opened. *)

val log : event -> unit
(** Append one line; silently dropped when no sink is open. *)

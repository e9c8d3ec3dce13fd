(** Machine-independent instrumentation of the search algorithms.

    The paper reports optimization time (Figure 12) and maximum memory
    used (Figure 13).  Wall-clock time is machine-dependent, so we also
    count states visited, from-scratch parameter evaluations and O(1)
    incremental parameter updates; memory is tracked as a high-water
    mark of the integer slots held live in queues, boundary lists and
    solution lists (each state of group size [g] accounts for
    [g + entry_overhead_words] machine words). *)

type t = {
  mutable states_visited : int;
  mutable param_evals : int;
      (** from-scratch cost/doi/size evaluations (full fold) *)
  mutable incr_updates : int;
      (** O(1) incremental parameter updates along transitions *)
  mutable live_words : int;
  mutable peak_words : int;
  mutable hold_underflows : int;
      (** releases without a matching hold (accounting bugs) *)
  mutable wall_seconds : float;  (** filled in by the solver wrapper *)
  hold_lock : Mutex.t;
      (** serializes {!hold_words}/{!release_words}: live, peak and
          underflow move as one transaction, so a memory account
          shared across domains loses no updates and reports no
          spurious underflows *)
}

val entry_overhead_words : int
val create : unit -> t

val visit : t -> unit
(** [visit]/[eval]/[incr_update] remain single-writer by design: every
    search owns its space's instrument and runs in one domain, and
    taking a lock per visited state would tax the solver hot path.
    Only the multi-field memory account ({!hold_words} and friends) is
    mutex-guarded, because the parallel layers legitimately share it. *)

val eval : t -> unit

val incr_update : t -> unit
(** Record one O(1) incremental parameter update. *)

val hold_words : t -> int -> unit
(** Record that [n] machine words are now stored. *)

val release_words : t -> int -> unit
(** Record that [n] stored machine words were dropped.  A release
    exceeding the live count clamps at zero {e and} counts a
    [hold_underflows] event instead of silently corrupting the peak
    numbers. *)

val hold : t -> State.t -> unit
(** Record that a state is now stored (queue, boundary set, ...). *)

val release : t -> State.t -> unit
(** Record that a stored state was dropped. *)

val peak_bytes : t -> int
val peak_kbytes : t -> float
val snapshot : t -> t
(** An independent copy: later mutations of [t] leave it unchanged. *)

val publish : t -> unit
(** Feed the counters into the {!Cqp_obs.Metrics} registry (no-op while
    it is disabled): [solver.states_visited], [solver.param_evals],
    [solver.incr_updates] and [solver.hold_underflows] counters
    accumulate across runs; [solver.peak_words] and [solver.wall_us]
    are recorded as log-scale histogram observations. *)

val pp : Format.formatter -> t -> unit

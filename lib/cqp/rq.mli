(** The algorithms' work queue RQ: a deque supporting insertion at both
    ends (Vertical neighbors go to the head so a group is finished
    before the next one starts; Horizontal neighbors go to the tail).
    Polymorphic so queues can carry incrementally-valued states
    ({!Space.valued}) as well as raw states; [words] prices an entry so
    queue residency contributes to the memory high-water mark of the
    given instrumentation (use {!Space.entry_words} for valued
    entries). *)

type 'a t

val create : words:('a -> int) -> Instrument.t -> 'a t
val length : 'a t -> int
val push_head : 'a t -> 'a -> unit
val push_tail : 'a t -> 'a -> unit

val drain : budget:Cqp_resilience.Budget.t -> 'a t -> ('a -> unit) -> unit
(** [drain ~budget rq f] — the one search loop of the queue-driven
    algorithms: poll [budget], pop the head, pass it to [f] (which may
    push more entries), until the queue is empty or the budget has
    expired.  A budget already expired pops nothing.  [f] counts its
    own visits: a caller may discard an entry without one. *)

(** A single completed (or in-flight) span. *)

type t = {
  id : int;
  parent : int;  (** span id of the parent; [-1] for a root span *)
  depth : int;  (** nesting depth; roots are at 0 *)
  name : string;
  phase : Phase.t option;
      (** the serve phase this span times; set only on the outermost
          span of its phase on the domain, so summing the durations of
          the spans tagged with a phase never double counts *)
  tid : int;
      (** id of the domain that recorded the span — the Chrome-trace
          thread id, so pool workers land on their own tracks *)
  start_us : float;  (** microseconds since the trace clock origin *)
  mutable dur_us : float;  (** [-1.] while the span is still open *)
  mutable attrs : Attr.t list;
}

val is_root : t -> bool
val closed : t -> bool

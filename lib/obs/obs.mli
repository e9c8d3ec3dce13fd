(** Umbrella switch for the whole observability layer.

    [Obs.enable ()] turns on both {!Trace} and {!Metrics}; everything
    stays a no-op until then, so the default build pays only a boolean
    test per instrumentation site. *)

val enable : unit -> unit
val disable : unit -> unit
val reset : unit -> unit
(** Clear both the span buffer and the metrics registry. *)

val with_sinks :
  ?trace:string ->
  ?metrics:string ->
  ?prometheus:string ->
  ?events:string ->
  ?profile:bool ->
  (unit -> 'a) ->
  'a
(** [with_sinks ... f] switches on what the given outputs need, runs
    [f], and on its normal return writes every output, naming each on
    stderr:
    - [trace]: {!Trace} on; the Chrome trace is written to the file,
      also at exit if [f] raises ({!Trace.auto_flush});
    - [metrics]: {!Metrics} on; the JSON snapshot
      ({!Metrics.dump_json});
    - [prometheus]: {!Metrics} on; the text exposition
      ({!Metrics.write_prometheus});
    - [events]: the {!Reqlog} JSONL sink, closed after [f]; implies
      [profile];
    - [profile]: {!Request} profiling, and {!Metrics}, where the phase
      histograms live. *)

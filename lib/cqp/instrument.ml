type t = {
  mutable states_visited : int;
  mutable param_evals : int;
  mutable incr_updates : int;
  mutable live_words : int;
  mutable peak_words : int;
  mutable hold_underflows : int;
  mutable wall_seconds : float;
  hold_lock : Mutex.t;
}

let entry_overhead_words = 3

let create () =
  {
    states_visited = 0;
    param_evals = 0;
    incr_updates = 0;
    live_words = 0;
    peak_words = 0;
    hold_underflows = 0;
    wall_seconds = 0.;
    hold_lock = Mutex.create ();
  }

let visit t = t.states_visited <- t.states_visited + 1
let eval t = t.param_evals <- t.param_evals + 1
let incr_update t = t.incr_updates <- t.incr_updates + 1

(* hold/release touch three fields that must move together (live, peak,
   underflows), so a shared instrument — e.g. one memory account fed by
   several pool domains — is guarded per-record. *)
let locked t f =
  Mutex.lock t.hold_lock;
  f ();
  Mutex.unlock t.hold_lock

let hold_words t words =
  locked t @@ fun () ->
  t.live_words <- t.live_words + words;
  if t.live_words > t.peak_words then t.peak_words <- t.live_words

let release_words t words =
  locked t @@ fun () ->
  if words > t.live_words then begin
    (* A release without a matching hold would push live_words below
       zero and silently corrupt the high-water mark; count it so the
       imbalance is visible in snapshots and published metrics. *)
    t.hold_underflows <- t.hold_underflows + 1;
    t.live_words <- 0
  end
  else t.live_words <- t.live_words - words

let state_words state = State.group_size state + entry_overhead_words
let hold t state = hold_words t (state_words state)
let release t state = release_words t (state_words state)

let peak_bytes t = t.peak_words * 8
let peak_kbytes t = float_of_int (peak_bytes t) /. 1024.

let snapshot t =
  {
    states_visited = t.states_visited;
    param_evals = t.param_evals;
    incr_updates = t.incr_updates;
    live_words = t.live_words;
    peak_words = t.peak_words;
    hold_underflows = t.hold_underflows;
    wall_seconds = t.wall_seconds;
    hold_lock = Mutex.create ();
  }

let publish t =
  if Cqp_obs.Metrics.is_enabled () then begin
    Cqp_obs.Metrics.add "solver.states_visited" t.states_visited;
    Cqp_obs.Metrics.add "solver.param_evals" t.param_evals;
    Cqp_obs.Metrics.add "solver.incr_updates" t.incr_updates;
    Cqp_obs.Metrics.add "solver.hold_underflows" t.hold_underflows;
    Cqp_obs.Metrics.observe "solver.peak_words" (float_of_int t.peak_words);
    Cqp_obs.Metrics.observe "solver.wall_us" (1e6 *. t.wall_seconds)
  end

let pp ppf t =
  Format.fprintf ppf "visited=%d evals=%d updates=%d peak=%.1fKB time=%.4fs"
    t.states_visited t.param_evals t.incr_updates (peak_kbytes t)
    t.wall_seconds;
  if t.hold_underflows > 0 then
    Format.fprintf ppf " underflows=%d" t.hold_underflows

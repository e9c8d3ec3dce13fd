module Rng = Cqp_util.Rng

exception Injected of string

type spec = {
  io_spike : float;
  io_spike_ms : float;
  cache_miss : float;
  evict : float;
  fail : float;
  max_fail_attempts : int;
}

(* The default spike is 10x the execution engine's 1 ms default block
   read (Io.default_block_ms; not referenced to keep this library
   below cqp_exec in the dependency order) — a "disk suddenly 10x
   slower" scenario that comfortably blows a single-digit-millisecond
   deadline. *)
let default_spec =
  {
    io_spike = 0.4;
    io_spike_ms = 10.;
    cache_miss = 0.2;
    evict = 0.05;
    fail = 0.25;
    max_fail_attempts = 4;
  }

type t = { rng : Rng.t; spec : spec }

let plan ?(spec = default_spec) ~rng () = { rng; spec }
let spec t = t.spec

type decision = {
  spike_ms : float option;
  drop_cache : bool;
  evict_cache : bool;
  fail_attempts : int;
}

let benign =
  { spike_ms = None; drop_cache = false; evict_cache = false; fail_attempts = 0 }

(* Decisions are a pure function of the plan seed and the request
   content — never of arrival order, lane assignment, or pool width —
   so a fault schedule replays identically at any domain count and a
   retry of the same request re-rolls nothing.  [Rng.split] needs a
   non-negative key; [Hashtbl.hash] already yields one. *)
let decide plan ~user ~sql =
  match plan with
  | None -> benign
  | Some { rng; spec } ->
      let r = Rng.split rng (Hashtbl.hash (user, sql)) in
      let roll p = p > 0. && Rng.float r 1.0 < p in
      let spike = roll spec.io_spike in
      let drop_cache = roll spec.cache_miss in
      let evict_cache = roll spec.evict in
      (* Leading attempts that fail: count successive Bernoulli(fail)
         successes, capped so bounded retries plus the final fallback
         always produce a response. *)
      let rec failures n =
        if n >= spec.max_fail_attempts then n
        else if roll spec.fail then failures (n + 1)
        else n
      in
      {
        spike_ms = (if spike then Some spec.io_spike_ms else None);
        drop_cache;
        evict_cache;
        fail_attempts = failures 0;
      }

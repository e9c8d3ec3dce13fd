module Serve = Cqp_serve.Serve
module Rung = Cqp_resilience.Rung
module Stats = Cqp_util.Stats
module C = Cqp_core

type t = {
  requests : int;
  served : int;
  shed : int;
  blown : int;
  degraded : int;
  retries : int;
  total_work : int;
  mean_work : float;
  stddev_work : float;
  p99_work : float;
  miss_ratio : float;
  est_cost_p99 : float;
}

let of_responses server responses =
  let requests = List.length responses in
  let served = ref 0
  and shed = ref 0
  and blown = ref 0
  and degraded = ref 0
  and retries = ref 0
  and total_work = ref 0 in
  let work = ref [] and est_cost = ref [] in
  List.iter
    (fun (r : Serve.response) ->
      match r.Serve.verdict with
      | Serve.Shed _ -> incr shed
      | Serve.Served s ->
          incr served;
          if s.Serve.deadline_expired then incr blown;
          if Rung.is_degraded s.Serve.rung then incr degraded;
          retries := !retries + s.Serve.retries;
          let sol = s.Serve.outcome.C.Personalizer.solution in
          let st = sol.C.Solution.stats in
          let w =
            st.C.Instrument.states_visited + st.C.Instrument.param_evals
          in
          total_work := !total_work + w;
          work := float_of_int w :: !work;
          est_cost := sol.C.Solution.params.C.Params.cost :: !est_cost)
    responses;
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  let work_arr = sorted !work and cost_arr = sorted !est_cost in
  let { Serve.extraction_lookups = lookups; extraction_hits = hits; _ } =
    Serve.cache_totals server
  in
  {
    requests;
    served = !served;
    shed = !shed;
    blown = !blown;
    degraded = !degraded;
    retries = !retries;
    total_work = !total_work;
    mean_work = Stats.mean work_arr;
    stddev_work = Stats.stddev work_arr;
    p99_work = Stats.percentile work_arr 0.99;
    miss_ratio =
      (if lookups = 0 then 0.
       else float_of_int (lookups - hits) /. float_of_int lookups);
    est_cost_p99 = Stats.percentile cost_arr 0.99;
  }

let evaluate catalog genome =
  let entries = Genome.decode genome catalog in
  let server = Genome.server genome catalog in
  let responses = Cqp_serve.Workload.replay server entries in
  of_responses server responses

(* Rational squash: x / (x + s) rises from 0 toward 1 with
   half-saturation at [s].  Pure +,*,/ keeps scores bit-identical
   across libm implementations. *)
let norm x s = if x <= 0. then 0. else x /. (x +. s)

let score f =
  let frac n =
    if f.requests = 0 then 0.
    else float_of_int n /. float_of_int f.requests
  in
  (2.0 *. norm f.p99_work 20_000.)
  +. (2.0 *. frac f.blown)
  +. (1.5 *. frac f.shed)
  +. (1.0 *. f.miss_ratio)
  +. (0.75 *. frac f.degraded)
  +. (0.5 *. frac f.retries)
  +. (0.25 *. norm f.est_cost_p99 2_000.)

let summary f =
  Printf.sprintf
    "score=%.4f p99_work=%.0f blown=%d/%d shed=%d miss=%.2f degraded=%d \
     retries=%d est_cost_p99=%.0f"
    (score f) f.p99_work f.blown f.requests f.shed f.miss_ratio f.degraded
    f.retries f.est_cost_p99

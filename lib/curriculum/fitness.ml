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
  let t = Serve.tally responses in
  let solutions =
    List.filter_map
      (fun r ->
        Option.map (fun o -> o.C.Personalizer.solution) (Serve.outcome r))
      responses
  in
  let work sol =
    let st = sol.C.Solution.stats in
    st.C.Instrument.states_visited + st.C.Instrument.param_evals
  in
  let sorted f =
    let a = Array.of_list (List.map f solutions) in
    Array.sort compare a;
    a
  in
  let work_arr = sorted (fun sol -> float_of_int (work sol))
  and cost_arr = sorted (fun sol -> sol.C.Solution.params.C.Params.cost) in
  let { Serve.extraction_lookups = lookups; extraction_hits = hits; _ } =
    Serve.cache_totals server
  in
  {
    requests = t.Serve.requests;
    served = t.Serve.served;
    shed = t.Serve.shed;
    blown = t.Serve.expired;
    degraded =
      List.fold_left
        (fun n (r, c) -> if Rung.is_degraded r then n + c else n)
        0 t.Serve.rungs;
    retries = t.Serve.total_retries;
    total_work = List.fold_left (fun n sol -> n + work sol) 0 solutions;
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

module Profile = Cqp_prefs.Profile
module Cache = Cqp_core.Cache
module Personalizer = Cqp_core.Personalizer
module Solver = Cqp_core.Solver
module Metrics = Cqp_obs.Metrics
module Clock = Cqp_obs.Clock
module Budget = Cqp_resilience.Budget
module Rung = Cqp_resilience.Rung
module Preq = Cqp_obs.Request
module Phase = Cqp_obs.Phase
module Fault = Cqp_resilience.Fault
module Config = Cqp_resilience.Config
module Nsga2 = Cqp_core.Nsga2

type request = {
  user : string;
  sql : string;
  problem : Cqp_core.Problem.t;
  max_k : int option;
  algorithm : Cqp_core.Algorithm.t;
  execute : bool;
}

type served = {
  outcome : Personalizer.outcome;
  rung : Rung.t;
  retries : int;
  deadline_expired : bool;
  front_point : int option;
}

type verdict = Served of served | Shed of { queue_position : int; limit : int }

type response = {
  request : request;
  request_id : int;
  verdict : verdict;
  latency_ms : float;
}

let outcome r =
  match r.verdict with Served s -> Some s.outcome | Shed _ -> None

let outcome_exn r =
  match r.verdict with
  | Served s -> s.outcome
  | Shed _ -> invalid_arg "Serve.outcome_exn: request was shed"

(* A lane owns its users' profiles and its caches; [lane_of] sends a
   user to the same lane at every call, so each profile lives in exactly
   one table and nothing is ever copied between lanes. *)
type lane = {
  cache : Cache.t option;
  profiles : (string, Profile.t) Hashtbl.t;
}

type t = {
  catalog : Cqp_relal.Catalog.t;
  resilience : Config.t;
  lanes : lane array;
}

exception Unknown_user of string

let create ?(caching = true) ?pref_space_capacity
    ?(resilience = Config.default) ?(lanes = 1) catalog =
  if lanes < 1 then invalid_arg "Serve.create: lanes < 1";
  let lane _ =
    {
      cache =
        (if caching then Some (Cache.create ?pref_space_capacity catalog)
         else None);
      profiles = Hashtbl.create 16;
    }
  in
  { catalog; resilience; lanes = Array.init lanes lane }

let catalog t = t.catalog
let resilience t = t.resilience
let lanes t = Array.length t.lanes
let lane_of t user = Hashtbl.hash user mod Array.length t.lanes
let caches t = List.filter_map (fun l -> l.cache) (Array.to_list t.lanes)
let lane t user = t.lanes.(lane_of t user)

let set_profile t ~user profile =
  let lane = lane t user in
  (* Invalidate only on a semantic change: cache keys embed the content
     fingerprint, so re-installing an identical profile (e.g. replaying
     a workload against warm caches) must not drop its entries, while a
     real update releases the superseded profile's memory. *)
  (match (lane.cache, Hashtbl.find_opt lane.profiles user) with
  | Some c, Some old
    when Profile.fingerprint old <> Profile.fingerprint profile ->
      ignore (Cache.invalidate_profile c old)
  | _ -> ());
  Hashtbl.replace lane.profiles user profile

let profile t user = Hashtbl.find_opt (lane t user).profiles user

(* Removal does not invalidate cached extractions: the cache keys embed
   the content fingerprint, so a dangling entry can never produce a
   stale hit, and the extraction cache is independently LRU-bounded.
   The network front door cycles users through a bounded working set;
   dropping their warm extractions on every eviction would defeat it. *)
let remove_profile t ~user = Hashtbl.remove (lane t user).profiles user

(* Pareto serving (the tri-objective front as a resilience rung): with
   [config.pareto] on, every request computes — or looks up in the
   front cache — the front for its (query, profile, constraints), so
   the cache is warm by the time pressure hits.  [Nsga2.front] is a
   pure function of its inputs, so the cache can never change what a
   pick returns. *)
let serving_front cache (req : request) profile ps =
  let problem = req.problem in
  let compute () =
    let space = Cqp_core.Space.create ~order:Cqp_core.Space.By_doi ps in
    Nsga2.serving_of_front
      (Nsga2.front ~constraints:problem.Cqp_core.Problem.constraints space)
  in
  match cache with
  | None -> compute ()
  | Some c ->
      let key =
        Cache.front_key ~constraints:problem.Cqp_core.Problem.constraints
          ?max_k:req.max_k
          ~fingerprint:(Profile.fingerprint profile)
          ~sql:req.sql
          ~k:(Cqp_core.Pref_space.k ps)
          ()
      in
      Cache.front c ~key compute

(* One pass through the degradation ladder, plugged into
   [Personalizer.run ~solve].  Degradation triggers only on deadline
   expiry: a genuinely infeasible problem solved in time returns [None]
   at the Full rung, exactly like the undegraded path, so with no
   deadline configured the ladder is bit-identical to plain
   [Solver.solve]. *)
let ladder cache config budget profile (req : request) rung front_point ps =
  let problem = req.problem in
  front_point := None;
  (* The front lookup (and the one clock read for the budget snapshot)
     happens before the full solve: a pressured pick must not pay a
     cold front computation, and the snapshot is taken while the
     budget can still be positive — at pressure time the budget has by
     definition expired, so [remaining_ms] would always be [0.]. *)
  let serving =
    if config.Config.pareto then Some (serving_front cache req profile ps)
    else None
  in
  let entry_remaining_ms =
    match serving with None -> 0. | Some _ -> Budget.remaining_ms budget
  in
  let full () =
    if config.Config.portfolio then Solver.portfolio ~budget ps problem
    else Solver.solve ~algorithm:req.algorithm ~budget ps problem
  in
  let full_result = if Budget.expired budget then None else Some (full ()) in
  match full_result with
  | Some (Some sol) ->
      rung := Rung.Full;
      Some sol
  | Some None when not (Budget.expired budget) ->
      rung := Rung.Full;
      None
  | _ -> (
      (* The deadline cut the full solve short of feasibility (or had
         already expired).  Each cheaper rung runs under whatever
         budget remains — an already-expired budget collapses them to
         near-no-ops and the request lands on Unpersonalized.  The
         rungs are the [Degrade] phase, nested inside the enclosing
         [Solve] phase. *)
      Cqp_obs.Trace.with_span ~name:"serve.degrade" ~phase:Phase.Degrade
      @@ fun () ->
      let pareto_pick =
        match serving with
        | None -> None
        | Some s -> (
            (* Best doi whose estimated cost fits what remained of the
               budget at solve start (O(log n) on the cost-sorted
               front); when nothing fits — the common case once the
               deadline is blown — fall back to the front's knee, the
               bounded-cost quality floor, rather than dropping
               straight to unpersonalized. *)
            match Nsga2.pick s ~budget_ms:entry_remaining_ms with
            | Some _ as p ->
                if Metrics.is_enabled () then Metrics.incr "serve.pareto.fit";
                p
            | None -> (
                match Nsga2.knee s with
                | Some _ as p ->
                    if Metrics.is_enabled () then
                      Metrics.incr "serve.pareto.floor";
                    p
                | None ->
                    if Metrics.is_enabled () then
                      Metrics.incr "serve.pareto.empty";
                    None))
      in
      match pareto_pick with
      | Some (i, p) ->
          rung := Rung.Pareto;
          front_point := Some i;
          if Metrics.is_enabled () then Metrics.incr "serve.pareto.served";
          let space = Cqp_core.Space.create ~order:Cqp_core.Space.By_doi ps in
          Some (Cqp_core.Solution.of_ids space p.Cqp_core.Pareto.pref_ids)
      | None -> (
          match Solver.solve_heuristic ~budget ps problem with
          | Some sol ->
              rung := Rung.Heuristic;
              Some sol
          | None -> (
              match Solver.solve_greedy ~budget ps problem with
              | Some sol ->
                  rung := Rung.Greedy;
                  Some sol
              | None ->
                  rung := Rung.Unpersonalized;
                  None)))

let handle ?queue_position ?enqueued_us ?deadline_ms t req =
  let { cache; profiles } = lane t req.user in
  let profile =
    match Hashtbl.find_opt profiles req.user with
    | Some p -> p
    | None -> raise (Unknown_user req.user)
  in
  let t0 = Clock.now_us () in
  let latency_ms () = Float.max 0. ((Clock.now_us () -. t0) /. 1000.) in
  let request_id = Preq.fresh_id () in
  (* Profiling context (no-ops while disabled).  Queue wait straddles
     the context's own start, so it is credited from the caller's
     enqueue stamp rather than timed in place. *)
  Preq.start ~id:request_id ~user:req.user;
  (match enqueued_us with
  | Some e -> Preq.record_us Phase.Queue_wait (t0 -. e)
  | None -> ());
  let config = t.resilience in
  let shed_limit =
    match (config.Config.shed_queue_depth, queue_position) with
    | Some limit, Some pos when pos >= limit -> Some (pos, limit)
    | _ -> None
  in
  match shed_limit with
  | Some (queue_position, limit) ->
      if Metrics.is_enabled () then Metrics.incr "resilience.shed";
      let latency_ms = latency_ms () in
      Preq.finish ~rung:"-" ~outcome:"shed" ~cache_hits:0 ~cache_lookups:0
        ~latency_us:(latency_ms *. 1000.);
      { request = req; request_id; verdict = Shed { queue_position; limit };
        latency_ms }
  | None ->
      (* Per-request cache-hit attribution: the shared counters are
         monotone, so a before/after snapshot is this request's delta
         (one writer per lane, so no concurrent writer skews it). *)
      let cache_stats0 =
        if Preq.active () then Option.map Cache.extraction_stats cache
        else None
      in
      (* A request-scoped deadline (the wire protocol carries one)
         overrides the configured default; absent both, the budget is
         unlimited and the ladder never triggers. *)
      let deadline_ms =
        match deadline_ms with
        | Some _ as d -> d
        | None -> config.Config.deadline_ms
      in
      let budget = Budget.start ?deadline_ms () in
      let decision = Fault.decide config.Config.fault ~user:req.user ~sql:req.sql in
      let rung = ref Rung.Full in
      let front_point = ref None in
      (* The portfolio races C-family members, which need the cost/size
         order vectors the request's own algorithm may not require. *)
      let orders =
        if config.Config.portfolio then Some Cqp_core.Pref_space.All_orders
        else None
      in
      let serve_once () =
        (match decision.Fault.spike_ms with
        | Some ms ->
            Metrics.incr "resilience.fault.io_spike";
            Unix.sleepf (ms /. 1000.)
        | None -> ());
        (match cache with
        | Some c ->
            if decision.Fault.evict_cache then begin
              Metrics.incr "resilience.fault.evictions";
              Cache.clear c
            end;
            if decision.Fault.drop_cache then begin
              Metrics.incr "resilience.fault.cache_drop";
              ignore (Cache.invalidate_profile c profile)
            end
        | None -> ());
        Personalizer.run ~algorithm:req.algorithm ?max_k:req.max_k
          ?cache ?orders
          ~solve:(ladder cache config budget profile req rung front_point)
          ~execute:req.execute t.catalog profile ~sql:req.sql
          ~problem:req.problem ()
      in
      let unpersonalized () =
        rung := Rung.Unpersonalized;
        front_point := None;
        Personalizer.run ~algorithm:req.algorithm ?max_k:req.max_k
          ?cache
          ~solve:(fun _ -> None)
          ~execute:req.execute t.catalog profile ~sql:req.sql
          ~problem:req.problem ()
      in
      (* Bounded-backoff retry around injected transient faults.  Past
         [max_retries] the request still answers — unpersonalized, the
         rung that cannot fail. *)
      let rec attempt n =
        match
          if n < decision.Fault.fail_attempts then begin
            Metrics.incr "resilience.fault.injected";
            raise (Fault.Injected (req.user ^ ": injected transient fault"))
          end
          else serve_once ()
        with
        | outcome -> (outcome, n)
        | exception Fault.Injected _ ->
            if n < config.Config.max_retries then begin
              Metrics.incr "resilience.retries";
              let backoff =
                Float.min
                  (config.Config.backoff_ms *. (2. ** float_of_int n))
                  config.Config.max_backoff_ms
              in
              (* Never sleep past the deadline: the backoff is also
                 capped by what remains of the budget. *)
              let backoff = Float.min backoff (Budget.remaining_ms budget) in
              if backoff > 0. then Unix.sleepf (backoff /. 1000.);
              attempt (n + 1)
            end
            else (unpersonalized (), n)
      in
      let outcome, retries = attempt 0 in
      (* Forced final check: a deadline that expired after the last
         poll is still detected (and metered) here, so the
         [resilience.deadline_expired] counter reconciles exactly with
         the responses labeled expired. *)
      let deadline_expired = Budget.expired budget in
      let rung = !rung in
      if Metrics.is_enabled () then begin
        Metrics.incr "serve.requests";
        Metrics.observe "serve.latency_us" (latency_ms () *. 1000.);
        if Rung.is_degraded rung then
          Metrics.incr ("resilience.degraded." ^ Rung.name rung)
      end;
      (match cache with Some c -> Cache.publish_metrics c | None -> ());
      let latency_ms = latency_ms () in
      (if Preq.active () then
         let cache_hits, cache_lookups =
           match (cache_stats0, cache) with
           | Some s0, Some c ->
               let s1 = Cache.extraction_stats c in
               ( s1.Cqp_util.Lru.hits - s0.Cqp_util.Lru.hits,
                 s1.Cqp_util.Lru.lookups - s0.Cqp_util.Lru.lookups )
           | _ -> (0, 0)
         in
         Preq.finish ~rung:(Rung.name rung)
           ~outcome:(if deadline_expired then "expired" else "ok")
           ~cache_hits ~cache_lookups ~latency_us:(latency_ms *. 1000.));
      {
        request = req;
        request_id;
        verdict =
          Served
            { outcome; rung; retries; deadline_expired;
              front_point = !front_point };
        latency_ms;
      }

(* --- replay summaries -------------------------------------------------- *)

type tally = {
  requests : int;
  served : int;
  shed : int;
  expired : int;
  total_retries : int;
  rungs : (Rung.t * int) list;
}

let tally responses =
  let served =
    List.filter_map
      (fun r -> match r.verdict with Served s -> Some s | Shed _ -> None)
      responses
  in
  let count p = List.length (List.filter p served) in
  let requests = List.length responses in
  {
    requests;
    served = List.length served;
    shed = requests - List.length served;
    expired = count (fun s -> s.deadline_expired);
    total_retries = List.fold_left (fun n s -> n + s.retries) 0 served;
    rungs = List.map (fun r -> (r, count (fun s -> s.rung = r))) Rung.all;
  }

type latency = {
  requests : int;
  mean_ms : float;
  sd_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
}

let latency responses =
  let lat = Array.of_list (List.map (fun r -> r.latency_ms) responses) in
  Array.sort compare lat;
  let pct = Cqp_util.Stats.percentile lat in
  {
    requests = Array.length lat;
    mean_ms = Cqp_util.Stats.mean lat;
    sd_ms = Cqp_util.Stats.stddev lat;
    p50_ms = pct 0.50;
    p90_ms = pct 0.90;
    p99_ms = pct 0.99;
  }

type cache_totals = {
  caches : int;
  extraction_hits : int;
  extraction_lookups : int;
  extraction_entries : int;
  bytes_held : int;
  memo_hits : int;
  memo_lookups : int;
  front_hits : int;
  front_lookups : int;
  front_entries : int;
  front_points : int;
}

let cache_totals t =
  let all = caches t in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 all in
  let extraction f = sum (fun c -> f (Cache.extraction_stats c)) in
  let fronts f = sum (fun c -> f (Cache.front_stats c)) in
  {
    caches = List.length all;
    extraction_hits = extraction (fun s -> s.Cqp_util.Lru.hits);
    extraction_lookups = extraction (fun s -> s.Cqp_util.Lru.lookups);
    extraction_entries = sum Cache.extraction_entries;
    bytes_held = sum Cache.bytes_held;
    memo_hits = sum (fun c -> snd (Cache.memo_stats c));
    memo_lookups = sum (fun c -> fst (Cache.memo_stats c));
    front_hits = fronts (fun s -> s.Cqp_util.Lru.hits);
    front_lookups = fronts (fun s -> s.Cqp_util.Lru.lookups);
    front_entries = sum Cache.front_entries;
    front_points = sum Cache.front_points_held;
  }

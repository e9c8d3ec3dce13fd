(* The traced run: the timed ops replayed in process, one public layer
   call at a time, in the order [Serve.handle] makes them:

     Parser.parse -> Analyzer.check -> Estimate.create ?memo
     -> Cache.pref_space -> [Cache.front] -> Solver.solve
     -> Rewrite.personalize ~dedup:true -> [Engine.execute]

   For net_zipf every frame also goes through the [Wire] codec, and
   profiles come from a copy of the populated [Store] with the server's
   residency.  The server runs one lane ([Plan.net_domains]), so the
   replay keeps one extraction cache and one profile table, as that
   lane does: a query for a user the lane does not hold faults the
   profile in, a write appends to the store and then replaces the
   lane's profile, exactly as [Server] does.

   With recording off the same code is the untraced baseline that
   [trace.overhead_frac] compares against. *)

module C = Cqp_core
module Cache = Cqp_core.Cache
module Store = Cqp_net.Store
module Wire = Cqp_net.Wire
module Serve = Cqp_serve.Serve
module Profile = Cqp_prefs.Profile
module Clock = Cqp_obs.Clock

(* Ops kept for the quality counters, computed after the replay. *)
type sample = {
  problem : C.Problem.t;
  ps : C.Pref_space.t;
  solved : C.Solution.t option;
  estimated_cost : float;
  personalized : Cqp_sql.Ast.query;
  block_reads : int option;  (** when the op executed *)
}

type env = {
  plan : Plan.t;
  spans : Spans.t;
  pareto : bool;
  wire : bool;
  cache : Cache.t;
  profiles : (string, Profile.t) Hashtbl.t;
  mutable store : Store.t option;
  mutable frames : int;
  mutable frame_bytes : int;
  mutable queries : int;
  mutable infeasible : int;
  mutable feasible_states : int;
  mutable execs : int;
  mutable block_reads : int;
  mutable rows : int;
  mutable samples : sample list;
}

let sample_stride = 16
let max_samples = 100

let create ~record plan =
  {
    plan;
    spans = Spans.create ~on:record;
    pareto = plan.Plan.kind = Plan.Serve_pareto;
    wire = plan.Plan.kind = Plan.Net_zipf;
    cache = Cache.create plan.Plan.catalog;
    profiles = Hashtbl.create 64;
    store = None;
    frames = 0;
    frame_bytes = 0;
    queries = 0;
    infeasible = 0;
    feasible_states = 0;
    execs = 0;
    block_reads = 0;
    rows = 0;
    samples = [];
  }

(* net_zipf: open the store copy in [dir]; evictions uninstall the user
   from the lane, as the server's eviction hook does. *)
let attach_store env dir =
  let on_evict user _ = Hashtbl.remove env.profiles user in
  env.store <-
    Some (Store.open_ ~resident_capacity:Plan.net_resident ~on_evict dir)

(* serve_*: the population is installed up front, as on the server. *)
let install_population env =
  for i = 0 to env.plan.Plan.users - 1 do
    let user = Plan.user_name i in
    Hashtbl.replace env.profiles user (Plan.population_profile env.plan i)
  done

let close env = Option.iter Store.close env.store

let span env ~op name f = Spans.with_span env.spans ~op name f

let frame env s =
  env.frames <- env.frames + 1;
  env.frame_bytes <- env.frame_bytes + String.length s;
  s

let roundtrip_request env ~op req =
  let s =
    span env ~op Spans.Wire_encode (fun () -> frame env (Wire.encode_request req))
  in
  match span env ~op Spans.Wire_decode (fun () -> Wire.decode_request s) with
  | Ok (r, _) -> r
  | Error e -> failwith ("request frame: " ^ Wire.error_to_string e)

let roundtrip_response env ~op build =
  let s =
    span env ~op Spans.Wire_encode (fun () ->
        frame env (Wire.encode_response (build ())))
  in
  match span env ~op Spans.Wire_decode (fun () -> Wire.decode_response s) with
  | Ok (r, _) -> r
  | Error e -> failwith ("response frame: " ^ Wire.error_to_string e)

let profile_for env ~op user =
  match Hashtbl.find_opt env.profiles user with
  | Some p -> p
  | None -> (
      let found =
        match env.store with
        | Some st ->
            span env ~op Spans.Store_find (fun () -> Store.find st user)
        | None -> None
      in
      match found with
      | Some p ->
          Hashtbl.replace env.profiles user p;
          p
      | None -> failwith ("unknown user " ^ user))

(* [Serve]'s Pareto serving: the front is computed (or found in the
   front cache) but never consulted without deadline pressure. *)
let front env profile (req : Serve.request) ps =
  let constraints = req.Serve.problem.C.Problem.constraints in
  let key =
    Cache.front_key ~constraints ?max_k:req.Serve.max_k
      ~fingerprint:(Profile.fingerprint profile)
      ~sql:req.Serve.sql ~k:(C.Pref_space.k ps) ()
  in
  Cache.front env.cache ~key (fun () ->
      let space = C.Space.create ~order:C.Space.By_doi ps in
      C.Nsga2.serving_of_front
        (C.Nsga2.front ~constraints ~exact_max_k:C.Pareto.exact_budget_k space))

(* What one query left behind: the answer as the client sees it, and
   what the counters and the quality sample need.  Without the wire the
   projection (SQL text, rows digest) is the benchmark's own work, done
   after the request span closes. *)
type served = {
  problem : C.Problem.t;
  ps : C.Pref_space.t;
  solved : C.Solution.t option;
  solution : C.Solution.t;
  personalized : Cqp_sql.Ast.query;
  executed : Cqp_exec.Engine.result option;
  wire_answer : Plan.answer option;
}

let query env ~op (req : Serve.request) =
  let catalog = env.plan.Plan.catalog in
  let req =
    if not env.wire then req
    else
      match roundtrip_request env ~op (Plan.frame (Plan.Query req)) with
      | Wire.Query q ->
          {
            Serve.user = q.Wire.user;
            sql = q.sql;
            problem = q.problem;
            max_k = q.max_k;
            algorithm = q.algorithm;
            execute = q.execute;
          }
      | _ -> failwith "request frame changed kind"
  in
  let profile = profile_for env ~op req.Serve.user in
  let query =
    span env ~op Spans.Sql_parse (fun () -> Cqp_sql.Parser.parse req.Serve.sql)
  in
  span env ~op Spans.Sql_analyze (fun () -> Cqp_sql.Analyzer.check catalog query);
  let estimate =
    span env ~op Spans.Estimate (fun () ->
        C.Estimate.create ?memo:(Cache.memo env.cache) catalog query)
  in
  let problem = req.Serve.problem in
  let ps =
    span env ~op Spans.Pref_space (fun () ->
        Cache.pref_space env.cache ~constraints:problem.C.Problem.constraints
          ?max_k:req.Serve.max_k
          ~orders:(C.Algorithm.required_orders req.Serve.algorithm)
          estimate profile)
  in
  if env.pareto then
    ignore (span env ~op Spans.Nsga2 (fun () -> front env profile req ps));
  let solved =
    span env ~op Spans.Solver (fun () ->
        C.Solver.solve ~algorithm:req.Serve.algorithm ps problem)
  in
  let solution, personalized =
    span env ~op Spans.Rewrite (fun () ->
        let space = C.Space.create ~order:C.Space.By_doi ps in
        let solution =
          match solved with Some s -> s | None -> C.Solution.empty space
        in
        ( solution,
          C.Rewrite.personalize ~dedup:true catalog query
            (C.Solution.paths space solution) ))
  in
  let executed =
    if req.Serve.execute then
      Some
        (span env ~op Spans.Exec (fun () ->
             Cqp_exec.Engine.execute catalog personalized))
    else None
  in
  let rows =
    match executed with Some r -> r.Cqp_exec.Engine.rows | None -> []
  in
  let wire_answer =
    if not env.wire then None
    else
      match
        roundtrip_response env ~op (fun () ->
            Wire.Served
              {
                rung = Cqp_resilience.Rung.Full;
                retries = 0;
                deadline_expired = false;
                front_point = None;
                pref_ids = solution.C.Solution.pref_ids;
                params = solution.C.Solution.params;
                personalized_sql = Cqp_sql.Printer.to_string personalized;
                row_count = List.length rows;
                rows_digest = Wire.rows_digest rows;
              })
      with
      | Wire.Served s -> Some (Plan.of_wire s)
      | _ -> failwith "response frame changed kind"
  in
  { problem; ps; solved; solution; personalized; executed; wire_answer }

(* A [Put_profile]: the store append first (its evictions uninstall
   other users), then the lane's profile replacement, which drops the
   lane's cached extractions and fronts for the superseded
   fingerprint. *)
let write env ~op ~user profile =
  let user, profile =
    match
      roundtrip_request env ~op (Plan.frame (Plan.Write { user; profile }))
    with
    | Wire.Put_profile { user; profile } -> (user, profile)
    | _ -> failwith "request frame changed kind"
  in
  (match env.store with
  | Some st ->
      span env ~op Spans.Store_put (fun () -> Store.put st ~user profile)
  | None -> ());
  span env ~op Spans.Pref_space (fun () ->
      (match Hashtbl.find_opt env.profiles user with
      | Some old when Profile.fingerprint old <> Profile.fingerprint profile ->
          ignore (Cache.invalidate_profile env.cache old)
      | _ -> ());
      Hashtbl.replace env.profiles user profile);
  match roundtrip_response env ~op (fun () -> Wire.Ok_ack) with
  | Wire.Ok_ack -> ()
  | _ -> failwith "ack frame changed kind"

let run_query env ~op req =
  let q = span env ~op Spans.Request (fun () -> query env ~op req) in
  env.queries <- env.queries + 1;
  (match q.solved with
  | Some s ->
      env.feasible_states <-
        env.feasible_states + s.C.Solution.stats.C.Instrument.states_visited
  | None -> env.infeasible <- env.infeasible + 1);
  let block_reads =
    Option.map
      (fun r ->
        env.execs <- env.execs + 1;
        env.block_reads <- env.block_reads + r.Cqp_exec.Engine.block_reads;
        env.rows <- env.rows + List.length r.Cqp_exec.Engine.rows;
        r.Cqp_exec.Engine.block_reads)
      q.executed
  in
  if op mod sample_stride = 0 && List.length env.samples < max_samples then
    env.samples <-
      {
        problem = q.problem;
        ps = q.ps;
        solved = q.solved;
        estimated_cost = q.solution.C.Solution.params.C.Params.cost;
        personalized = q.personalized;
        block_reads;
      }
      :: env.samples;
  match q.wire_answer with
  | Some a -> a
  | None ->
      Plan.answer ~solution:q.solution ~personalized:q.personalized
        ~rows:
          (match q.executed with
          | Some r -> r.Cqp_exec.Engine.rows
          | None -> [])

type deltas = {
  pref_lookups : int;
  pref_hits : int;
  front_lookups : int;
  front_hits : int;
  faults : int;
  disk_bytes : int;
}

let counters env =
  let ext = Cache.extraction_stats env.cache
  and fr = Cache.front_stats env.cache in
  let st f = match env.store with Some s -> f (Store.stats s) | None -> 0 in
  {
    pref_lookups = ext.Cqp_util.Lru.lookups;
    pref_hits = ext.Cqp_util.Lru.hits;
    front_lookups = fr.Cqp_util.Lru.lookups;
    front_hits = fr.Cqp_util.Lru.hits;
    faults = st (fun s -> s.Store.faults);
    disk_bytes = st (fun s -> s.Store.disk_bytes);
  }

let diff a b =
  {
    pref_lookups = b.pref_lookups - a.pref_lookups;
    pref_hits = b.pref_hits - a.pref_hits;
    front_lookups = b.front_lookups - a.front_lookups;
    front_hits = b.front_hits - a.front_hits;
    faults = b.faults - a.faults;
    disk_bytes = b.disk_bytes - a.disk_bytes;
  }

type outcome = {
  answers : (Plan.answer option, string) result array;
      (** per op: [None] for a write, [Error] when a layer raised *)
  done_ : int;  (** ops replayed, a prefix when the time budget ran out *)
  wall_at : float array;  (** seconds from the first op to the end of op [i] *)
  deltas : deltas;  (** cache and store counters over the replayed ops *)
}

(* The warm pass (unrecorded, uncounted), then ops [0, n) — or the
   prefix that fits in [budget_s]. *)
let replay ?(budget_s = Float.infinity) env ~n (op_at : int -> Plan.op) =
  let warm_env = { env with spans = Spans.create ~on:false } in
  Array.iteri
    (fun i req -> ignore (run_query warm_env ~op:(-1 - i) req))
    env.plan.Plan.warm;
  let c0 = counters env in
  let answers = Array.make n (Ok None) and wall_at = Array.make n 0. in
  let t0 = Clock.now_us () in
  let i = ref 0 in
  while !i < n && (!i = 0 || wall_at.(!i - 1) < budget_s) do
    let op = !i in
    answers.(op) <-
      (match op_at op with
      | Plan.Query req -> (
          match run_query env ~op req with
          | a -> Ok (Some a)
          | exception e -> Error (Printexc.to_string e))
      | Plan.Write { user; profile } -> (
          match
            span env ~op Spans.Request (fun () -> write env ~op ~user profile)
          with
          | () -> Ok None
          | exception e -> Error (Printexc.to_string e)));
    wall_at.(op) <- (Clock.now_us () -. t0) /. 1e6;
    incr i
  done;
  { answers; done_ = !i; wall_at; deltas = diff c0 (counters env) }

(* --- the paper's quality numbers -------------------------------------- *)

(* Figure 15 over the seeded sample: |estimated - real| / real, the real
   cost being the personalized query's block reads at the engine's
   per-block time.  Ops that executed on the request path count as they
   ran; the others are executed here, off the path. *)
let cost_error env =
  let real br = float_of_int br *. Cqp_exec.Io.default_block_ms in
  let errs =
    List.filter_map
      (fun (s : sample) ->
        let br =
          match s.block_reads with
          | Some br -> br
          | None ->
              (Cqp_exec.Engine.execute env.plan.Plan.catalog s.personalized)
                .Cqp_exec.Engine.block_reads
        in
        if br > 0 then
          Some (Float.abs (s.estimated_cost -. real br) /. real br)
        else None)
      env.samples
  in
  match errs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)

(* Relative objective loss against [Exhaustive.solve_problem] on the
   same space: doi short of the best for maximization, cost above the
   cheapest for minimization; a missed feasible answer counts as 1. *)
let optimality_gap env =
  let gaps =
    List.map
      (fun (s : sample) ->
        let space = C.Space.create ~order:C.Space.By_doi s.ps in
        match (C.Exhaustive.solve_problem space s.problem, s.solved) with
        | None, _ -> 0.
        | Some _, None -> 1.
        | Some best, Some got -> (
            let b = C.Problem.objective_value s.problem best.C.Solution.params
            and g = C.Problem.objective_value s.problem got.C.Solution.params in
            match s.problem.C.Problem.objective with
            | C.Problem.Maximize_doi -> if b > 0. then (b -. g) /. b else 0.
            | C.Problem.Minimize_cost -> if b > 0. then (g -. b) /. b else 0.))
      env.samples
  in
  match gaps with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. gaps /. float_of_int (List.length gaps)

(* --- per-layer metrics ------------------------------------------------ *)

(* Nearest-rank percentile of an unsorted sample; 0 when empty. *)
let percentile xs p =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  Cqp_util.Stats.percentile s p

let per a b = if b = 0 then 0. else a /. float_of_int b

(* Shares of the traced request time, by layer, for the report. *)
let layer_names =
  [ "wire"; "store"; "sql"; "estimate"; "pref_space"; "nsga2"; "solver";
    "rewrite"; "exec" ]

let layer_self_us sums layer =
  Array.fold_left ( +. ) 0.
    (Array.mapi
       (fun k s ->
         if Spans.layer Spans.all.(k) = layer then s.Spans.self_us else 0.)
       sums)

(* Every per-layer metric, as (name, unit, value).  [client_p50_ms] is
   the timed run's query p50; [untraced] is an unrecorded replay of a
   prefix of the same ops. *)
let metrics env (o : outcome) ~untraced:(u : outcome) ~client_p50_ms =
  let sums = Spans.summarize env.spans in
  let get name = sums.(Spans.index name) in
  let roots = Spans.roots env.spans in
  let requests = Array.length roots in
  let request_us = Array.fold_left (fun a (_, d, _) -> a +. d) 0. roots in
  let is_query op =
    match o.answers.(op) with Ok (Some _) -> true | _ -> false
  in
  let query_ms =
    Array.of_list
      (List.filter_map
         (fun (op, d, _) -> if is_query op then Some (d /. 1000.) else None)
         (Array.to_list roots))
  in
  let self_ms layer = per (layer_self_us sums layer /. 1000.) requests in
  let per_call name f = per (f (get name)) (get name).Spans.calls in
  let mean_us name =
    per_call name (fun s -> Array.fold_left ( +. ) 0. s.Spans.durations)
  in
  let words name = per_call name (fun s -> s.Spans.minor_words) in
  let p99_us name = percentile (get name).Spans.durations 0.99 in
  let named_us = Array.fold_left (fun a (_, d, c) -> a +. (d *. c)) 0. roots in
  let d = o.deltas in
  [
    (* What the client saw beyond the in-process layers; there is no
       network between the client and [Serve.handle] on serve_*. *)
    ( "net.residual_p50_ms", "ms",
      if env.wire then client_p50_ms -. percentile query_ms 0.5 else 0. );
    ("wire.encode_us", "us", mean_us Spans.Wire_encode);
    ("wire.decode_us", "us", mean_us Spans.Wire_decode);
    ("wire.frame_bytes", "bytes", per (float_of_int env.frame_bytes) env.frames);
    ("store.find_us", "us", mean_us Spans.Store_find);
    ("store.fault_ratio", "fraction", per (float_of_int d.faults) env.queries);
    ("store.put_us", "us", mean_us Spans.Store_put);
    ("store.bytes_per_put", "bytes",
     per (float_of_int d.disk_bytes) (get Spans.Store_put).Spans.calls);
    ("sql.self_ms", "ms", self_ms "sql");
    ("estimate.self_ms", "ms", self_ms "estimate");
    ("rewrite.self_ms", "ms", self_ms "rewrite");
    ("pref_space.self_ms", "ms", self_ms "pref_space");
    ("pref_space.hit_ratio", "fraction",
     per (float_of_int d.pref_hits) d.pref_lookups);
    ("pref_space.minor_words", "words", words Spans.Pref_space);
    ("solver.self_ms", "ms", self_ms "solver");
    ("solver.p99_us", "us", p99_us Spans.Solver);
    ("solver.states_visited", "count",
     per (float_of_int env.feasible_states) (env.queries - env.infeasible));
    ("solver.minor_words", "words", words Spans.Solver);
    ("solver.infeasible_ratio", "fraction",
     per (float_of_int env.infeasible) env.queries);
    ("nsga2.self_ms", "ms", self_ms "nsga2");
    ("nsga2.p99_us", "us", p99_us Spans.Nsga2);
    ("nsga2.hit_ratio", "fraction",
     per (float_of_int d.front_hits) d.front_lookups);
    ("nsga2.minor_words", "words", words Spans.Nsga2);
    ("exec.self_ms", "ms", self_ms "exec");
    ("exec.p99_us", "us", p99_us Spans.Exec);
    ("exec.block_reads", "count", per (float_of_int env.block_reads) env.execs);
    ("exec.rows", "count", per (float_of_int env.rows) env.execs);
    ("exec.minor_words", "words", words Spans.Exec);
    ("estimate.cost_error", "fraction", cost_error env);
    ("solver.optimality_gap", "fraction", optimality_gap env);
    ("trace.request_ms", "ms", per (request_us /. 1000.) requests);
    ("trace.coverage", "fraction",
     if request_us > 0. then named_us /. request_us else 0.);
    (* The same prefix of ops, recorded against unrecorded. *)
    ( "trace.overhead_frac", "fraction",
      let m = u.done_ - 1 in
      if m >= 0 && u.wall_at.(m) > 0. then
        (o.wall_at.(m) -. u.wall_at.(m)) /. u.wall_at.(m)
      else 0. );
  ]

(* The design checks: each layer's share of the traced request time,
   and how many requests the named layers cover to 90%. *)
let print_shares env =
  let sums = Spans.summarize env.spans in
  let roots = Spans.roots env.spans in
  let total = Array.fold_left (fun a (_, d, _) -> a +. d) 0. roots in
  Printf.printf "layer shares of traced request time (%d requests)\n"
    (Array.length roots);
  List.iter
    (fun l ->
      let s = layer_self_us sums l in
      if s > 0. then Printf.printf "  %-12s %6.1f%%\n" l (100. *. s /. total))
    layer_names;
  let covered =
    Array.fold_left (fun k (_, _, c) -> if c >= 0.9 then k + 1 else k) 0 roots
  in
  Printf.printf "  requests with >= 90%% in named layers: %d of %d\n" covered
    (Array.length roots)

(* Differential tests for the parallel execution layer (cqp_par).

   The determinism contract: a pool of any width computes bit-identical
   results to the sequential run.  Two consumers are held to it —
   [Workload.replay] with a pool (a server with one lane per domain,
   each lane with its own caches) and [Solver.portfolio] (racing
   algorithm members), whose objective [Exhaustive.solve_problem]
   checks — plus the latency-independent metric counters, which must
   not depend on the domain count either. *)

module C = Cqp_core
module S = Cqp_serve
module Pool = Cqp_par.Pool
module Rng = Cqp_util.Rng
module Metrics = Cqp_obs.Metrics

let catalog = lazy (Testlib.small_imdb ~seed:3 ())

let workload seed =
  (* Interleaved profile updates included: a lane must apply its
     users' installs and requests in entry order. *)
  S.Workload.generate ~users:3 ~requests:6 ~updates:2
    ~rng:(Rng.create seed) (Lazy.force catalog)

(* A server with one lane per domain, and the pool to replay it on
   (none at one domain). *)
let with_server ~domains f =
  let server =
    S.Serve.create ~caching:true ~lanes:domains (Lazy.force catalog)
  in
  Alcotest.(check int) "server lanes" domains (S.Serve.lanes server);
  if domains = 1 then f server None
  else Pool.with_pool ~domains (fun pool -> f server (Some pool))

let replay_observables ~domains entries =
  with_server ~domains (fun server pool ->
      List.map Testlib.serve_observable
        (S.Workload.replay ?pool server entries))

(* --- serve: domain counts change nothing ------------------------------ *)

let prop_replay_domains_identical =
  QCheck.Test.make
    ~name:"parallel replay bit-identical to sequential (domains 2 and 4)"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let entries = workload seed in
      let sequential = replay_observables ~domains:1 entries in
      replay_observables ~domains:2 entries = sequential
      && replay_observables ~domains:4 entries = sequential)

(* Two passes over the same (warm) lanes must also match two
   sequential passes — the warm path is the one the bench measures. *)
let test_warm_pass_identical () =
  let entries = workload 7 in
  let two_passes ~domains =
    with_server ~domains (fun server pool ->
        ( List.map Testlib.serve_observable
            (S.Workload.replay ?pool server entries),
          List.map Testlib.serve_observable
            (S.Workload.replay ?pool server entries) ))
  in
  Alcotest.(check bool)
    "warm second pass identical across domain counts" true
    (two_passes ~domains:1 = two_passes ~domains:4)

(* --- serve: profiles after successive replays --------------------------- *)

(* Each profile lives on its user's lane alone, so replays whose profile
   updates differ leave every user, at every width, with the profile a
   one-lane server holds.  Workload A installs and serves; B serves,
   then installs a new profile for every user; the request-only third
   replay answers from B's profiles. *)
let test_profiles_after_replays () =
  let catalog = Lazy.force catalog in
  let users = List.init 4 (Printf.sprintf "u%02d") in
  let generate seed =
    S.Workload.generate ~users:4 ~requests:12 ~rng:(Rng.create seed) catalog
  in
  let requests seed =
    List.filter
      (function
        | S.Workload.Request _ -> true | S.Workload.Set_profile _ -> false)
      (generate seed)
  in
  let a = generate 41 in
  let b =
    requests 42
    @ List.mapi
        (fun i user ->
          S.Workload.Set_profile { user; seed = 17 + i; shape = None })
        users
  in
  let run ~domains =
    with_server ~domains (fun server pool ->
        ignore (S.Workload.replay ?pool server a);
        ignore (S.Workload.replay ?pool server b);
        let third =
          List.map Testlib.serve_observable
            (S.Workload.replay ?pool server (requests 43))
        in
        ( List.map
            (fun u ->
              Option.map Cqp_prefs.Profile.fingerprint
                (S.Serve.profile server u))
            users,
          third ))
  in
  let profiles, third = run ~domains:1 in
  List.iter
    (fun domains ->
      let profiles', third' = run ~domains in
      Alcotest.(check (list (option string)))
        (Printf.sprintf "profile fingerprints (domains=%d)" domains)
        profiles profiles';
      Alcotest.(check bool)
        (Printf.sprintf "third replay identical (domains=%d)" domains)
        true (third' = third))
    [ 2; 4 ]

(* --- metrics: cache gauges sum the lanes ------------------------------- *)

(* Every request publishes its own lane's cache gauges; the end of a
   replay publishes their sums over the lanes' caches, so the gauges
   describe the server rather than the lane that happened to finish
   last. *)
let test_gauges_sum_lanes () =
  let entries =
    S.Workload.generate ~users:6 ~requests:18 ~rng:(Rng.create 31)
      (Lazy.force catalog)
  in
  List.iter
    (fun domains ->
      Metrics.enable ();
      Metrics.reset ();
      with_server ~domains (fun server pool ->
          ignore (S.Workload.replay ?pool server entries);
          let caches = S.Serve.caches server in
          if domains > 1 then
            Alcotest.(check bool)
              "more than one lane holds extractions" true
              (List.length
                 (List.filter
                    (fun c -> C.Cache.extraction_entries c > 0)
                    caches)
              > 1);
          let sum f =
            float_of_int (List.fold_left (fun n c -> n + f c) 0 caches)
          in
          let memo_entries c =
            Option.fold ~none:0 ~some:C.Estimate.Memo.entries (C.Cache.memo c)
          in
          List.iter
            (fun (name, expected) ->
              Alcotest.(check (option (float 0.)))
                (Printf.sprintf "%s (domains=%d)" name domains)
                (Some expected) (Metrics.gauge_value name))
            [
              ( "serve.cache.pref_space.entries",
                sum C.Cache.extraction_entries );
              ("serve.cache.pref_space.bytes_held", sum C.Cache.bytes_held);
              ("serve.cache.estimate.entries", sum memo_entries);
            ]);
      Metrics.disable ();
      Metrics.reset ())
    [ 1; 4 ]

(* --- metrics: latency-independent counters match ---------------------- *)

(* The per-request work counters cannot depend on the domain count:
   caches cannot change results (test_serve_diff), so the solver and
   estimator do the same work per request no matter which lane's
   cache served it.  The [serve.cache.*] hit/miss split legitimately
   differs (each lane's caches see different key streams); it is held
   to its reconciliation invariant instead. *)
let latency_independent_counters =
  [
    "serve.requests";
    "solver.states_visited";
    "solver.param_evals";
    "solver.incr_updates";
    "solver.hold_underflows";
    "estimate.calls";
    "pref_space.candidates";
    "pref_space.prefs_extracted";
  ]

let counters_after ~domains entries =
  Metrics.enable ();
  Metrics.reset ();
  ignore (replay_observables ~domains entries);
  let snapshot =
    List.map (fun n -> (n, Metrics.counter_value n))
      latency_independent_counters
  in
  let reconcile prefix =
    Alcotest.(check int)
      (Printf.sprintf "%s.lookups = hits + misses (domains=%d)" prefix
         domains)
      (Metrics.counter_value (prefix ^ ".lookups"))
      (Metrics.counter_value (prefix ^ ".hits")
      + Metrics.counter_value (prefix ^ ".misses"))
  in
  reconcile "serve.cache.pref_space";
  reconcile "serve.cache.estimate";
  Alcotest.(check int)
    (Printf.sprintf "no pool errors (domains=%d)" domains)
    0
    (Metrics.counter_value "par.pool.errors");
  let latency_count = Metrics.histogram_count "serve.latency_us" in
  Metrics.disable ();
  Metrics.reset ();
  (snapshot, latency_count)

let test_counters_domain_independent () =
  let entries = workload 23 in
  let base = counters_after ~domains:1 entries in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf
           "work counters and latency sample count equal (domains=%d)"
           domains)
        true
        (counters_after ~domains entries = base))
    [ 2; 4 ]

(* --- solver: portfolio and oracle ------------------------------------- *)

let space_of_seed seed =
  let rng = Rng.create seed in
  let k = 6 + Rng.int rng 4 in
  Testlib.random_space rng ~k

let problems_of rng (ps : C.Pref_space.t) =
  let total_cost =
    Array.fold_left (fun acc it -> acc +. it.C.Pref_space.cost) 0. ps.items
  in
  let base = C.Estimate.base_size ps.C.Pref_space.estimate in
  let frac lo hi = lo +. Rng.float rng (hi -. lo) in
  [
    C.Problem.problem2 ~cmax:(total_cost *. frac 0.2 0.7);
    C.Problem.problem1 ~smin:(base *. frac 0.01 0.2) ~smax:base;
    C.Problem.problem3
      ~cmax:(total_cost *. frac 0.3 0.8)
      ~smin:(base *. frac 0.005 0.05)
      ~smax:(base *. frac 0.3 0.9);
    C.Problem.problem4 ~dmin:(frac 0.3 0.9);
    C.Problem.problem5 ~dmin:(frac 0.3 0.8)
      ~smin:(base *. frac 0.005 0.05)
      ~smax:(base *. frac 0.4 0.9);
    C.Problem.problem6 ~smin:(base *. frac 0.01 0.2)
      ~smax:(base *. frac 0.4 0.9);
  ]

let sol_observable = function
  | None -> None
  | Some (s : C.Solution.t) -> Some (s.C.Solution.pref_ids, s.C.Solution.params)

let objective problem = function
  | None -> None
  | Some (s : C.Solution.t) ->
      Some (C.Problem.objective_value problem s.C.Solution.params)

let oracle ps problem =
  C.Exhaustive.solve_problem (C.Space.create ~order:C.Space.By_doi ps) problem

let close a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b)
  | _ -> false

let prop_portfolio_matches_oracle =
  QCheck.Test.make
    ~name:"portfolio = oracle objective; pool width changes nothing"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let ps = space_of_seed seed in
      let problems = problems_of (Rng.create (seed + 1)) ps in
      List.for_all
        (fun problem ->
          let sequential = C.Solver.portfolio ps problem in
          let widths_agree =
            List.for_all
              (fun domains ->
                Pool.with_pool ~domains (fun pool ->
                    sol_observable (C.Solver.portfolio ~pool ps problem)
                    = sol_observable sequential))
              [ 2; 4 ]
          in
          let feasible =
            match sequential with
            | None -> true
            | Some s ->
                C.Params.satisfies problem.C.Problem.constraints
                  s.C.Solution.params
          in
          widths_agree && feasible
          && close
               (objective problem sequential)
               (objective problem (oracle ps problem)))
        problems)

let prop_solve_matches_oracle =
  (* [solve] is exact on these small spaces, so the oracle doubles as
     its ground truth — and transitively ties portfolio, solve and
     oracle to one objective value. *)
  QCheck.Test.make ~name:"sequential solve = oracle objective" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let ps = space_of_seed seed in
      let problems = problems_of (Rng.create (seed + 1)) ps in
      List.for_all
        (fun problem ->
          close
            (objective problem (C.Solver.solve ps problem))
            (objective problem (oracle ps problem)))
        problems)

(* --- pool: primitive behavior ----------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      Alcotest.(check (array int))
        "map preserves slot order" (Array.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs))

exception Boom of int

let test_lowest_index_reraise () =
  Pool.with_pool ~domains:4 (fun pool ->
      let jobs =
        Array.init 8 (fun i _index ->
            if i = 3 || i = 6 then raise (Boom i))
      in
      match Pool.run_all pool jobs with
      | () -> Alcotest.fail "expected a re-raised job exception"
      | exception Boom i ->
          Alcotest.(check int) "lowest failed index re-raised" 3 i)

let test_nested_submission () =
  Pool.with_pool ~domains:2 (fun pool ->
      let inner = Pool.map pool (fun x -> x + 1) (Array.init 10 Fun.id) in
      let outer =
        Pool.map pool
          (fun x -> Array.fold_left ( + ) x inner)
          (Array.init 4 Fun.id)
      in
      Alcotest.(check (array int))
        "jobs may submit to their own pool"
        (Array.init 4 (fun x -> x + 55))
        outer)

let qc = Testlib.qc

let () =
  Testlib.seed_banner "par_diff";
  Alcotest.run "par_diff"
    [
      ( "serve",
        [
          qc prop_replay_domains_identical;
          Alcotest.test_case "warm passes identical" `Quick
            test_warm_pass_identical;
          Alcotest.test_case "latency-independent counters match" `Quick
            test_counters_domain_independent;
          Alcotest.test_case
            "replays of different workloads leave the same profiles at \
             every width"
            `Quick test_profiles_after_replays;
          Alcotest.test_case "cache gauges sum the lanes' caches" `Quick
            test_gauges_sum_lanes;
        ] );
      ( "solver",
        [ qc prop_portfolio_matches_oracle; qc prop_solve_matches_oracle ] );
      ( "pool",
        [
          Alcotest.test_case "map slot order" `Quick test_map_order;
          Alcotest.test_case "lowest-index re-raise" `Quick
            test_lowest_index_reraise;
          Alcotest.test_case "nested submission" `Quick
            test_nested_submission;
        ] );
    ]

(* The resilience layer: deadline budgets, the degradation ladder,
   retries, shedding, and the seeded fault-injection harness.

   Two contracts anchor the suite.  The differential guarantee: with
   the default (inert) config — and even with a generous deadline that
   never fires — the serve path answers bit-identically to a server
   with no resilience at all, every response labeled Full / 0 retries /
   no expiry.  The chaos guarantee: under a seeded fault plan and a
   blown deadline, at any domain count, every request still gets a
   labeled response, nothing escapes to the pool, and the resilience
   counters reconcile exactly with the response labels. *)

module C = Cqp_core
module S = Cqp_serve
module Budget = Cqp_resilience.Budget
module Rung = Cqp_resilience.Rung
module Fault = Cqp_resilience.Fault
module Config = Cqp_resilience.Config
module Pool = Cqp_par.Pool
module Rng = Cqp_util.Rng
module Stats = Cqp_util.Stats
module Metrics = Cqp_obs.Metrics

(* --- percentile (the shared CLI/bench summary helper) ----------------- *)

let check_pct msg expected sorted p =
  Alcotest.(check (float 0.)) msg expected (Stats.percentile sorted p)

let test_percentile_edges () =
  check_pct "empty sample is 0" 0. [||] 0.5;
  let one = [| 42. |] in
  List.iter
    (fun p -> check_pct "singleton at any p" 42. one p)
    [ 0.; 0.5; 0.99; 1. ];
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  (* The regression: [ceil (p * n) - 1] is -1 at p = 0 (and any p with
     ceil(p*n) = 0), which indexed out of bounds before the clamp. *)
  check_pct "p=0 is the minimum" 1. ten 0.;
  check_pct "small p clamps to the minimum" 1. ten 0.05;
  check_pct "p=1 is the maximum" 10. ten 1.;
  check_pct "out-of-range p>1 clamps to the maximum" 10. ten 1.5;
  check_pct "out-of-range p<0 clamps to the minimum" 1. ten (-0.5)

let test_percentile_nearest_rank () =
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  (* Exact-integer ranks: ceil (p * 10) lands on the rank itself. *)
  check_pct "p=0.1 is rank 1" 1. ten 0.1;
  check_pct "p=0.2 is rank 2" 2. ten 0.2;
  check_pct "p=0.5 is rank 5" 5. ten 0.5;
  (* Fractional ranks round up (nearest-rank, not interpolation). *)
  check_pct "p=0.55 rounds up to rank 6" 6. ten 0.55;
  check_pct "p=0.99 rounds up to rank 10" 10. ten 0.99;
  let seven = [| 3.; 3.; 4.; 8.; 8.; 9.; 12. |] in
  check_pct "duplicates: p=0.5 is rank 4" 8. seven 0.5

let prop_percentile_membership =
  QCheck.Test.make
    ~name:"percentile: result is a sample element, monotone in p"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.))
        (float_bound_inclusive 1.))
    (fun (xs, p) ->
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let v = Stats.percentile sorted p in
      Array.exists (fun x -> x = v) sorted
      && sorted.(0) <= v
      && v <= sorted.(n - 1)
      && Stats.percentile sorted 0. <= v
      && v <= Stats.percentile sorted 1.)

(* --- deadline budgets ------------------------------------------------- *)

let test_budget_unlimited () =
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool)
    "start without a deadline is unlimited" true
    (Budget.is_unlimited (Budget.start ()));
  for _ = 1 to 10 * Budget.poll_stride do
    Alcotest.(check bool) "poll never fires" false (Budget.poll Budget.unlimited)
  done;
  Alcotest.(check bool) "never expired" false (Budget.expired Budget.unlimited);
  Alcotest.(check (float 0.))
    "infinite remaining" infinity
    (Budget.remaining_ms Budget.unlimited)

let test_budget_generous () =
  let b = Budget.start ~deadline_ms:600_000. () in
  Alcotest.(check bool) "not unlimited" false (Budget.is_unlimited b);
  Alcotest.(check bool) "not expired" false (Budget.expired b);
  for _ = 1 to 10 * Budget.poll_stride do
    Alcotest.(check bool) "poll stays false" false (Budget.poll b)
  done;
  let r = Budget.remaining_ms b in
  Alcotest.(check bool) "remaining in (0, deadline]" true
    (r > 0. && r <= 600_000.)

let test_budget_expiry_latches () =
  let b = Budget.start ~deadline_ms:0. () in
  Alcotest.(check bool) "zero deadline expires at once" true (Budget.expired b);
  Alcotest.(check bool) "stays expired" true (Budget.expired b);
  Alcotest.(check bool) "poll sees the latch immediately" true (Budget.poll b);
  Alcotest.(check (float 0.)) "nothing remains" 0. (Budget.remaining_ms b)

let test_budget_poll_detects_expiry () =
  let b = Budget.start ~deadline_ms:0.5 () in
  Unix.sleepf 0.002;
  (* Only [poll] — strided, so expiry must surface within one stride. *)
  let rec fires n =
    n <= 2 * Budget.poll_stride && (Budget.poll b || fires (n + 1))
  in
  Alcotest.(check bool) "poll fires within a stride of calls" true (fires 1);
  Alcotest.(check (float 0.)) "nothing remains" 0. (Budget.remaining_ms b)

let test_budget_expiry_metered_once () =
  Metrics.enable ();
  Metrics.reset ();
  let b = Budget.start ~deadline_ms:0. () in
  ignore (Budget.expired b);
  ignore (Budget.expired b);
  ignore (Budget.poll b);
  ignore (Budget.remaining_ms b);
  Alcotest.(check int)
    "one blown budget meters once" 1
    (Metrics.counter_value "resilience.deadline_expired");
  ignore (Budget.expired (Budget.start ~deadline_ms:0. ()));
  Alcotest.(check int)
    "counter is per budget, not per poll" 2
    (Metrics.counter_value "resilience.deadline_expired");
  ignore (Budget.expired (Budget.start ~deadline_ms:600_000. ()));
  Alcotest.(check int)
    "an unexpired budget meters nothing" 2
    (Metrics.counter_value "resilience.deadline_expired");
  Metrics.disable ();
  Metrics.reset ()

(* --- solver under a budget -------------------------------------------- *)

let expired_budget () =
  let b = Budget.start ~deadline_ms:0. () in
  ignore (Budget.expired b);
  b

let anytime_problems =
  [
    C.Problem.problem2 ~cmax:200.;
    C.Problem.problem2 ~cmax:20.;
    (* infeasible: cheapest item costs 30 *)
    C.Problem.problem4 ~dmin:0.5;
  ]

let test_solver_anytime_feasibility () =
  (* An expired budget may cost us the answer, never correctness: every
     rung either declines or returns a solution satisfying the
     constraints. *)
  let ps = Testlib.figure6_space () in
  List.iter
    (fun (problem : C.Problem.t) ->
      List.iter
        (fun solve ->
          match solve ~budget:(expired_budget ()) ps problem with
          | None -> ()
          | Some (s : C.Solution.t) ->
              Alcotest.(check bool)
                "expired-budget solution is feasible" true
                (C.Params.satisfies problem.C.Problem.constraints
                   s.C.Solution.params))
        [
          (fun ~budget ps p -> C.Solver.solve ~budget ps p);
          (fun ~budget ps p -> C.Solver.solve_heuristic ~budget ps p);
          (fun ~budget ps p -> C.Solver.solve_greedy ~budget ps p);
        ])
    anytime_problems

let test_solver_generous_budget_identical () =
  let ps = Testlib.figure6_space () in
  let obs = function
    | None -> None
    | Some (s : C.Solution.t) -> Some (s.C.Solution.pref_ids, s.C.Solution.params)
  in
  List.iter
    (fun (problem : C.Problem.t) ->
      Alcotest.(check bool)
        "a deadline that never fires changes nothing" true
        (obs (C.Solver.solve ~budget:(Budget.start ~deadline_ms:600_000. ()) ps problem)
        = obs (C.Solver.solve ps problem)))
    anytime_problems

(* --- fault plans ------------------------------------------------------- *)

let request_grid =
  List.concat_map
    (fun u ->
      List.init 6 (fun i ->
          ( Printf.sprintf "u%02d" u,
            Printf.sprintf "select a from t where a = %d" i )))
    [ 0; 1; 2; 3; 4 ]

let decisions plan =
  List.map (fun (user, sql) -> Fault.decide plan ~user ~sql) request_grid

let test_fault_replayable () =
  let plan seed = Fault.plan ~rng:(Rng.create seed) () in
  Alcotest.(check bool)
    "same seed, same fault schedule" true
    (decisions (Some (plan 42)) = decisions (Some (plan 42)));
  (* Content-keyed: the schedule survives arbitrary arrival order. *)
  let p = plan 42 in
  let shuffled = List.rev request_grid in
  Alcotest.(check bool)
    "decisions independent of arrival order" true
    (List.rev (List.map (fun (user, sql) -> Fault.decide (Some p) ~user ~sql) shuffled)
    = decisions (Some p))

let test_fault_off_is_benign () =
  List.iter
    (fun d -> Alcotest.(check bool) "no plan decides benign" true (d = Fault.benign))
    (decisions None);
  let dead =
    Fault.plan
      ~spec:
        {
          Fault.default_spec with
          io_spike = 0.;
          cache_miss = 0.;
          evict = 0.;
          fail = 0.;
        }
      ~rng:(Rng.create 1) ()
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "all-zero spec decides benign" true (d = Fault.benign))
    (decisions (Some dead))

let test_fault_attempts_bounded () =
  let hostile =
    Fault.plan
      ~spec:{ Fault.default_spec with fail = 1. }
      ~rng:(Rng.create 5) ()
  in
  List.iter
    (fun (d : Fault.decision) ->
      Alcotest.(check int)
        "certain failure still capped"
        Fault.default_spec.Fault.max_fail_attempts d.Fault.fail_attempts)
    (decisions (Some hostile));
  List.iter
    (fun (d : Fault.decision) ->
      Alcotest.(check bool) "attempts within [0, cap]" true
        (d.Fault.fail_attempts >= 0
        && d.Fault.fail_attempts
           <= Fault.default_spec.Fault.max_fail_attempts))
    (decisions (Some (Fault.plan ~rng:(Rng.create 9) ())))

(* --- serve: differential inertness ------------------------------------ *)

let catalog = lazy (Testlib.small_imdb ~seed:3 ())

let workload ~requests seed =
  S.Workload.generate ~users:3 ~requests ~updates:2 ~rng:(Rng.create seed)
    (Lazy.force catalog)

let replay ~domains ~resilience entries =
  let server = S.Serve.create ~caching:true ~resilience (Lazy.force catalog) in
  let responses =
    if domains = 1 then S.Workload.replay server entries
    else
      Pool.with_pool ~domains (fun pool ->
          S.Workload.replay ~pool server entries)
  in
  (server, responses)

let observables ~domains ~resilience entries =
  List.map Testlib.serve_observable
    (snd (replay ~domains ~resilience entries))

let test_default_config_is_inert () =
  Alcotest.(check bool) "default config is inert" true
    (Config.is_inert Config.default);
  let entries = workload ~requests:8 17 in
  let obs = observables ~domains:1 ~resilience:Config.default entries in
  List.iter
    (function
      | `Served (_, _, _, _, rung, retries, expired, front_point) ->
          Alcotest.(check string) "full rung" "full" rung;
          Alcotest.(check int) "no retries" 0 retries;
          Alcotest.(check bool) "no expiry" false expired;
          Alcotest.(check bool) "no front point" true (front_point = None)
      | `Shed _ -> Alcotest.fail "default config must never shed")
    obs;
  Alcotest.(check bool) "replay is deterministic" true
    (observables ~domains:1 ~resilience:Config.default entries = obs)

let test_generous_config_is_differential_noop () =
  (* The strongest inertness statement we can make from inside this
     build: arming the whole pipeline — a deadline that never fires,
     extra retry headroom — produces bit-identical responses to the
     inert config, labels included. *)
  let entries = workload ~requests:8 17 in
  let armed =
    {
      Config.default with
      Config.deadline_ms = Some 600_000.;
      max_retries = 5;
      backoff_ms = 0.1;
    }
  in
  Alcotest.(check bool) "armed config is not inert" false (Config.is_inert armed);
  Alcotest.(check bool)
    "unreachable deadline serves bit-identically" true
    (observables ~domains:1 ~resilience:armed entries
    = observables ~domains:1 ~resilience:Config.default entries)

let test_portfolio_rung_builds_all_orders () =
  (* Regression: the workload's D-family requests build D_only spaces,
     but the portfolio rung races C-family members too — the serve path
     must force All_orders or Space.create rejects the space. *)
  let entries = workload ~requests:8 17 in
  let resilience = { Config.default with Config.portfolio = true } in
  List.iter
    (function
      | `Served (_, _, _, _, rung, _, _, _) ->
          Alcotest.(check string) "portfolio serves at full rung" "full" rung
      | `Shed _ -> Alcotest.fail "portfolio config must not shed")
    (observables ~domains:1 ~resilience entries)

(* --- serve: chaos ------------------------------------------------------ *)

let count_requests entries =
  List.length
    (List.filter
       (function S.Workload.Request _ -> true | S.Workload.Set_profile _ -> false)
       entries)

(* Replay under metrics and hold the counters to the response labels:
   the chaos invariant is not "nothing went wrong" but "everything that
   went wrong is accounted for, exactly once". *)
let chaos_replay ~label ~domains ~resilience entries =
  Metrics.enable ();
  Metrics.reset ();
  let server, responses = replay ~domains ~resilience entries in
  let counter = Metrics.counter_value in
  let check msg = Alcotest.(check int) (Printf.sprintf "%s: %s" label msg) in
  check "every request answered" (count_requests entries)
    (List.length responses);
  let served =
    List.filter_map
      (fun (r : S.Serve.response) ->
        match r.S.Serve.verdict with
        | S.Serve.Served s -> Some s
        | S.Serve.Shed _ -> None)
      responses
  in
  let count_served f = List.length (List.filter f served) in
  check "resilience.shed reconciles"
    (List.length responses - List.length served)
    (counter "resilience.shed");
  check "serve.requests counts served only" (List.length served)
    (counter "serve.requests");
  check "server tally counts served only" (List.length served)
    (S.Serve.requests_served server);
  check "resilience.retries reconciles"
    (List.fold_left (fun acc s -> acc + s.S.Serve.retries) 0 served)
    (counter "resilience.retries");
  check "resilience.deadline_expired reconciles"
    (count_served (fun s -> s.S.Serve.deadline_expired))
    (counter "resilience.deadline_expired");
  List.iter
    (fun rung ->
      if Rung.is_degraded rung then
        check
          (Printf.sprintf "resilience.degraded.%s reconciles" (Rung.name rung))
          (count_served (fun s -> s.S.Serve.rung = rung))
          (counter ("resilience.degraded." ^ Rung.name rung)))
    Rung.all;
  check "no injected fault escaped to the pool" 0 (counter "par.pool.errors");
  Metrics.disable ();
  Metrics.reset ();
  responses

let chaos_plan seed =
  (* Short spikes keep the suite fast; the probabilities are the
     defaults, so every fault class fires somewhere in the workload. *)
  Fault.plan
    ~spec:{ Fault.default_spec with Fault.io_spike_ms = 2. }
    ~rng:(Rng.create seed) ()

let test_chaos_blown_deadline () =
  (* deadline_ms = 0: every budget is expired before the solve starts,
     which makes the whole degraded path deterministic — no timing
     races decide a rung.  So beyond reconciliation we can demand the
     strongest property: responses bit-identical across domain counts
     and replay passes, every one labeled expired and degraded. *)
  let entries = workload ~requests:12 11 in
  let resilience =
    { Config.default with Config.deadline_ms = Some 0.; fault = Some (chaos_plan 42) }
  in
  let run ~domains ~pass =
    let label = Printf.sprintf "deadline0 domains=%d pass=%d" domains pass in
    let responses = chaos_replay ~label ~domains ~resilience entries in
    List.iter
      (fun (r : S.Serve.response) ->
        match r.S.Serve.verdict with
        | S.Serve.Shed _ -> Alcotest.fail (label ^ ": unexpected shed")
        | S.Serve.Served s ->
            Alcotest.(check bool) (label ^ ": labeled expired") true
              s.S.Serve.deadline_expired;
            Alcotest.(check bool) (label ^ ": labeled degraded") true
              (Rung.is_degraded s.S.Serve.rung))
      responses;
    List.map Testlib.serve_observable responses
  in
  let base = run ~domains:1 ~pass:1 in
  Alcotest.(check bool) "chaos replay is replayable" true
    (run ~domains:1 ~pass:2 = base);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "chaos responses identical at %d domains" domains)
        true
        (run ~domains ~pass:1 = base))
    [ 2; 4 ]

let test_chaos_shedding () =
  let entries = workload ~requests:12 11 in
  let depth = 4 in
  let resilience =
    {
      Config.default with
      Config.shed_queue_depth = Some depth;
      fault = Some (chaos_plan 7);
    }
  in
  let responses =
    chaos_replay ~label:"shed domains=1" ~domains:1 ~resilience entries
  in
  (* One sequential lane: positions 0..11, everything at >= depth shed. *)
  let shed =
    List.filter
      (fun (r : S.Serve.response) ->
        match r.S.Serve.verdict with S.Serve.Shed _ -> true | _ -> false)
      responses
  in
  Alcotest.(check int) "single lane sheds the queue tail"
    (count_requests entries - depth)
    (List.length shed);
  List.iter
    (fun (r : S.Serve.response) ->
      match r.S.Serve.verdict with
      | S.Serve.Shed { queue_position; limit } ->
          Alcotest.(check int) "shed records the configured depth" depth limit;
          Alcotest.(check bool) "shed position beyond the depth" true
            (queue_position >= depth)
      | S.Serve.Served _ -> ())
    responses;
  (* Admission is by arrival order, so more lanes shed exactly the same
     requests at the same positions: every response at 2 and 4 domains
     is the 1-domain one, shed verdicts included. *)
  let base = List.map Testlib.serve_observable responses in
  List.iter
    (fun domains ->
      let responses =
        chaos_replay
          ~label:(Printf.sprintf "shed domains=%d" domains)
          ~domains ~resilience entries
      in
      Alcotest.(check bool)
        (Printf.sprintf "shed responses identical at %d domains" domains)
        true
        (List.map Testlib.serve_observable responses = base))
    [ 2; 4 ]

let test_chaos_tight_deadline () =
  (* A live 2 ms deadline: which requests blow it is timing-dependent,
     so assert only the invariants that cannot depend on timing —
     full coverage, label/counter reconciliation, no pool errors. *)
  let entries = workload ~requests:12 11 in
  let resilience =
    {
      Config.default with
      Config.deadline_ms = Some 2.;
      fault = Some (chaos_plan 42);
      max_retries = 2;
      backoff_ms = 0.2;
      max_backoff_ms = 1.;
    }
  in
  List.iter
    (fun domains ->
      ignore
        (chaos_replay
           ~label:(Printf.sprintf "tight domains=%d" domains)
           ~domains ~resilience entries))
    [ 1; 2; 4 ]

(* --- suite ------------------------------------------------------------- *)

let qc = Testlib.qc

let () =
  Testlib.seed_banner "resilience";
  Alcotest.run "resilience"
    [
      ( "percentile",
        [
          Alcotest.test_case "edges and clamping" `Quick test_percentile_edges;
          Alcotest.test_case "nearest-rank semantics" `Quick
            test_percentile_nearest_rank;
          qc prop_percentile_membership;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "generous deadline" `Quick test_budget_generous;
          Alcotest.test_case "expiry latches" `Quick test_budget_expiry_latches;
          Alcotest.test_case "poll detects expiry" `Quick
            test_budget_poll_detects_expiry;
          Alcotest.test_case "expiry metered once per budget" `Quick
            test_budget_expiry_metered_once;
        ] );
      ( "solver",
        [
          Alcotest.test_case "anytime feasibility under expired budget" `Quick
            test_solver_anytime_feasibility;
          Alcotest.test_case "generous budget identical" `Quick
            test_solver_generous_budget_identical;
        ] );
      ( "fault",
        [
          Alcotest.test_case "plans replayable and content-keyed" `Quick
            test_fault_replayable;
          Alcotest.test_case "off means benign" `Quick test_fault_off_is_benign;
          Alcotest.test_case "fail attempts bounded" `Quick
            test_fault_attempts_bounded;
        ] );
      ( "differential",
        [
          Alcotest.test_case "default config is inert" `Quick
            test_default_config_is_inert;
          Alcotest.test_case "unreachable deadline is a no-op" `Quick
            test_generous_config_is_differential_noop;
          Alcotest.test_case "portfolio rung builds all orders" `Quick
            test_portfolio_rung_builds_all_orders;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "blown deadline, domains 1/2/4" `Quick
            test_chaos_blown_deadline;
          Alcotest.test_case "load shedding, domains 1/2/4" `Quick
            test_chaos_shedding;
          Alcotest.test_case "tight deadline, domains 1/2/4" `Quick
            test_chaos_tight_deadline;
        ] );
    ]

(* Tests for the generic Table-1 solver (Section 6): all six problems,
   with exhaustive search as the ground-truth oracle at small K. *)

module C = Cqp_core

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let space_of ps = C.Space.create ~order:C.Space.By_doi ps

let solve_and_oracle ps problem =
  let sol = C.Solver.solve ps problem in
  let oracle = C.Exhaustive.solve_problem (space_of ps) problem in
  (sol, oracle)

let feasible problem (sol : C.Solution.t) =
  C.Params.satisfies problem.C.Problem.constraints sol.C.Solution.params

(* A problem from its number and bounds, for the shapes the [problemN]
   constructors do not build (a size floor alone, no size bound). *)
let problem_of number constraints =
  Result.get_ok (C.Problem.make number constraints)

(* A mid-sized deterministic space for the fixed tests. *)
let ps0 =
  Testlib.fabricate
    ~costs:[| 40.; 25.; 35.; 15.; 10.; 20. |]
    ~dois:[| 0.9; 0.8; 0.6; 0.5; 0.4; 0.3 |]
    ~fracs:[| 0.7; 0.5; 0.6; 0.8; 0.4; 0.9 |]
    ()

let test_problem2_exact () =
  let problem = C.Problem.problem2 ~cmax:70. in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkf "optimal doi" oracle.C.Solution.params.C.Params.doi
        sol.C.Solution.params.C.Params.doi;
      checkb "feasible" true (feasible problem sol)
  | _ -> Alcotest.fail "expected solutions"

let test_problem1_smin_only () =
  (* Maximize doi with only a size floor: the log-space reduction is
     exact. *)
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  let problem = C.Problem.problem1 ~smin:(0.2 *. base) ~smax:base in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkb "feasible" true (feasible problem sol);
      (* Allow the greedy smax completion to land at the optimum or
         below; with smax = base_size the upper bound binds only the
         empty set, so it should be exact here. *)
      checkf "optimal doi" oracle.C.Solution.params.C.Params.doi
        sol.C.Solution.params.C.Params.doi
  | _ -> Alcotest.fail "expected solutions"

let test_problem3_exact () =
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  let problem =
    C.Problem.problem3 ~cmax:80. ~smin:(0.01 *. base) ~smax:(0.6 *. base)
  in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkb "feasible" true (feasible problem sol);
      checkf "optimal doi" oracle.C.Solution.params.C.Params.doi
        sol.C.Solution.params.C.Params.doi
  | _ -> Alcotest.fail "expected solutions"

let test_problem1_with_smax_exact () =
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  let problem = C.Problem.problem1 ~smin:(0.05 *. base) ~smax:(0.5 *. base) in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkb "feasible" true (feasible problem sol);
      checkf "optimal doi" oracle.C.Solution.params.C.Params.doi
        sol.C.Solution.params.C.Params.doi
  | _ -> Alcotest.fail "expected solutions"

let test_problem4_min_cost () =
  let problem = C.Problem.problem4 ~dmin:0.9 in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkb "feasible" true (feasible problem sol);
      checkf "minimal cost" oracle.C.Solution.params.C.Params.cost
        sol.C.Solution.params.C.Params.cost
  | _ -> Alcotest.fail "expected solutions"

let test_problem4_dmin_zero_is_empty () =
  (* With dmin = 0 the empty personalization (cost = base cost) is
     optimal. *)
  let problem = C.Problem.problem4 ~dmin:0. in
  match C.Solver.solve ps0 problem with
  | Some sol ->
      Alcotest.(check (list int)) "empty" [] sol.C.Solution.pref_ids
  | None -> Alcotest.fail "expected a solution"

let test_problem5_min_cost_with_size () =
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  let problem =
    C.Problem.problem5 ~dmin:0.8 ~smin:(0.05 *. base) ~smax:base
  in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkb "feasible" true (feasible problem sol);
      checkf "minimal cost" oracle.C.Solution.params.C.Params.cost
        sol.C.Solution.params.C.Params.cost
  | _ -> Alcotest.fail "expected solutions"

let test_problem6 () =
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  (* Force at least one preference via smax below the base size. *)
  let problem = C.Problem.problem6 ~smin:1e-6 ~smax:(0.85 *. base) in
  let sol, oracle = solve_and_oracle ps0 problem in
  match sol, oracle with
  | Some sol, Some oracle ->
      checkb "feasible" true (feasible problem sol);
      checkf "minimal cost" oracle.C.Solution.params.C.Params.cost
        sol.C.Solution.params.C.Params.cost
  | _ -> Alcotest.fail "expected solutions"

let test_stats_survive_finishing () =
  (* The search's stats reach the answer when it is re-evaluated on the
     original space (the log-size reduction) and when its size is
     repaired. *)
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  let visited = function
    | Some (s : C.Solution.t) -> s.C.Solution.stats.C.Instrument.states_visited
    | None -> Alcotest.fail "expected a solution"
  in
  let floor_only = problem_of 1 (C.Params.make ~smin:(0.2 *. base) ()) in
  checkb "log-size reduction keeps its search's states" true
    (visited (C.Solver.solve ps0 floor_only) > 0);
  (* Uncapped, D-SINGLEMAXDOI takes all six preferences (size 0.036 of
     the base), which the repair pulls back above smin. *)
  let interval = C.Problem.problem1 ~smin:(0.3 *. base) ~smax:(0.6 *. base) in
  let repaired = C.Solver.solve_heuristic ps0 interval in
  checkb "repaired" true
    (List.length (Option.get repaired).C.Solution.pref_ids < 6);
  checkb "repaired answer keeps its search's states" true
    (visited repaired > 0)

let test_infeasible_returns_none () =
  let problem = C.Problem.problem4 ~dmin:0.9999999 in
  let ps =
    Testlib.fabricate ~costs:[| 10. |] ~dois:[| 0.5 |] ~fracs:[| 0.5 |] ()
  in
  checkb "none" true (C.Solver.solve ps problem = None)

let test_describe () =
  let problem = C.Problem.problem2 ~cmax:400. in
  checkb "describe mentions objective" true
    (String.length (C.Problem.describe problem) > 10)

(* Randomized: BnB (problems 4-6) matches exhaustive. *)
let prop_bnb_matches_oracle =
  QCheck.Test.make ~name:"min-cost BnB = exhaustive" ~count:50
    QCheck.(pair (int_range 2 8) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Cqp_util.Rng.create seed in
      let ps = Testlib.random_space rng ~k in
      let space = space_of ps in
      let dmin = 0.3 +. Cqp_util.Rng.float rng 0.6 in
      let constraints = C.Params.make ~dmin () in
      let bnb = C.Solver.min_cost_bnb space constraints in
      let problem = C.Problem.problem4 ~dmin in
      let oracle = C.Exhaustive.solve_problem space problem in
      match bnb, oracle with
      | None, None -> true
      | Some a, Some b ->
          abs_float
            (a.C.Solution.params.C.Params.cost
            -. b.C.Solution.params.C.Params.cost)
          < 1e-9
      | _ -> false)

(* Randomized: max-doi BnB (problems 1/3) matches exhaustive. *)
let prop_max_doi_bnb_matches_oracle =
  QCheck.Test.make ~name:"max-doi BnB = exhaustive" ~count:50
    QCheck.(pair (int_range 2 8) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Cqp_util.Rng.create seed in
      let ps = Testlib.random_space rng ~k in
      let space = space_of ps in
      let base = C.Estimate.base_size ps.C.Pref_space.estimate in
      let supreme = C.Pref_space.supreme_cost ps in
      let cmax = (0.2 +. Cqp_util.Rng.float rng 0.7) *. supreme in
      let smin = Cqp_util.Rng.float rng 0.1 *. base in
      let smax = (0.3 +. Cqp_util.Rng.float rng 0.7) *. base in
      let constraints = C.Params.make ~cmax ~smin ~smax () in
      let bnb = C.Solver.max_doi_bnb space constraints in
      let problem = C.Problem.problem3 ~cmax ~smin ~smax in
      let oracle = C.Exhaustive.solve_problem space problem in
      match bnb, oracle with
      | None, None -> true
      | Some a, Some b ->
          abs_float
            (a.C.Solution.params.C.Params.doi
            -. b.C.Solution.params.C.Params.doi)
          < 1e-9
      | _ -> false)

(* Randomized: every solver answer is feasible for its problem. *)
let prop_solver_feasible =
  QCheck.Test.make ~name:"solver answers are feasible" ~count:60
    QCheck.(pair (int_range 2 8) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Cqp_util.Rng.create seed in
      let ps = Testlib.random_space rng ~k in
      let base = C.Estimate.base_size ps.C.Pref_space.estimate in
      let supreme = C.Pref_space.supreme_cost ps in
      let problems =
        [
          C.Problem.problem2 ~cmax:(0.5 *. supreme);
          C.Problem.problem1 ~smin:(0.05 *. base) ~smax:base;
          C.Problem.problem3 ~cmax:(0.5 *. supreme) ~smin:1e-9 ~smax:base;
          C.Problem.problem4 ~dmin:0.5;
          C.Problem.problem6 ~smin:1e-9 ~smax:base;
        ]
      in
      List.for_all
        (fun problem ->
          match C.Solver.solve ps problem with
          | None -> true
          | Some sol -> feasible problem sol)
        problems)

(* Seeded small-K sweep: on every space the five Section-5 algorithms
   and the generic solver on all six Table-1 problems are compared
   against exhaustive enumeration.  The exact algorithms/problems must
   match the optimal objective; the heuristics must stay feasible and
   never beat it.  This pins the incremental state valuation to the
   from-scratch semantics across the whole solving surface. *)
let test_small_k_sweep () =
  for seed = 0 to 24 do
    let rng = Cqp_util.Rng.create (1000 + seed) in
    let k = 2 + (seed mod 6) in
    let ps = Testlib.random_space rng ~k in
    let base = C.Estimate.base_size ps.C.Pref_space.estimate in
    let supreme = C.Pref_space.supreme_cost ps in
    let cmax = (0.2 +. Cqp_util.Rng.float rng 0.6) *. supreme in
    let opt = C.Algorithm.run C.Algorithm.Exhaustive ps ~cmax in
    let opt_doi = opt.C.Solution.params.C.Params.doi in
    List.iter
      (fun (algo, exact) ->
        let sol = C.Algorithm.run algo ps ~cmax in
        let doi = sol.C.Solution.params.C.Params.doi in
        let name = Printf.sprintf "seed %d %s" seed (C.Algorithm.name algo) in
        checkb (name ^ " feasible") true
          (sol.C.Solution.pref_ids = []
          || sol.C.Solution.params.C.Params.cost <= cmax +. 1e-9);
        if exact then checkf (name ^ " optimal") opt_doi doi
        else checkb (name ^ " <= optimal") true (doi <= opt_doi +. 1e-9))
      [
        (C.Algorithm.C_boundaries, true);
        (C.Algorithm.D_maxdoi, true);
        (C.Algorithm.C_maxbounds, false);
        (C.Algorithm.D_singlemaxdoi, false);
        (C.Algorithm.D_heurdoi, false);
      ];
    let smin = 1e-9 and smax = (0.4 +. Cqp_util.Rng.float rng 0.6) *. base in
    let dmin = 0.3 +. Cqp_util.Rng.float rng 0.5 in
    List.iter
      (fun (label, problem, exact) ->
        let name = Printf.sprintf "seed %d %s" seed label in
        let sol, oracle = solve_and_oracle ps problem in
        match sol, oracle with
        | None, None -> ()
        | Some sol, Some oracle ->
            checkb (name ^ " feasible") true (feasible problem sol);
            if exact then
              checkf
                (name ^ " objective")
                (C.Problem.objective_value problem oracle.C.Solution.params)
                (C.Problem.objective_value problem sol.C.Solution.params)
        | Some _, None -> Alcotest.fail (name ^ ": solver beat exhaustive")
        | None, Some _ -> Alcotest.fail (name ^ ": solver missed a solution"))
      [
        ("P1", C.Problem.problem1 ~smin ~smax, false);
        ("P2", C.Problem.problem2 ~cmax, true);
        ("P3", C.Problem.problem3 ~cmax ~smin ~smax, true);
        ("P4", C.Problem.problem4 ~dmin, true);
        ("P5", C.Problem.problem5 ~dmin ~smin ~smax, true);
        ("P6", C.Problem.problem6 ~smin ~smax, true);
        ( "P1, floor -inf only",
          problem_of 1 (C.Params.make ~smin:neg_infinity ()),
          true );
      ]
  done

(* --- pinned answers ----------------------------------------------------- *)

(* Every solver entry point on every Table-1 shape over fixed random
   spaces, with an unlimited budget and with one already expired: the
   pref ids and the [%h] params of each answer, hashed.  Changing which
   search a problem maps to, or how an answer is finished, moves it. *)
let golden_answers_md5 = "711be87bfb45631bf984b411e749439b"

let answers_digest () =
  let buf = Buffer.create 65536 in
  let emit label = function
    | None -> Printf.bprintf buf "%s none\n" label
    | Some (s : C.Solution.t) ->
        let p = s.C.Solution.params in
        Printf.bprintf buf "%s [%s] %h %h %h\n" label
          (String.concat "," (List.map string_of_int s.C.Solution.pref_ids))
          p.C.Params.doi p.C.Params.cost p.C.Params.size
  in
  for seed = 1 to 12 do
    let rng = Cqp_util.Rng.create (7000 + seed) in
    let k = 3 + (seed mod 8) in
    let ps = Testlib.random_space rng ~k in
    let base = C.Estimate.base_size ps.C.Pref_space.estimate in
    let supreme = C.Pref_space.supreme_cost ps in
    let frac lo hi = lo +. Cqp_util.Rng.float rng (hi -. lo) in
    let cmax = frac 0.2 0.8 *. supreme in
    let dmin = frac 0.3 0.9 in
    let smin = frac 0.005 0.2 *. base in
    let smax = frac 0.3 0.9 *. base in
    let problems =
      [
        C.Problem.problem1 ~smin ~smax;
        problem_of 1 (C.Params.make ~smin ());
        problem_of 1 (C.Params.make ~smin:(2. *. base) ());
        problem_of 1 (C.Params.make ~smax ());
        C.Problem.problem2 ~cmax;
        C.Problem.problem3 ~cmax ~smin ~smax;
        problem_of 3 (C.Params.make ~cmax ());
        C.Problem.problem4 ~dmin;
        C.Problem.problem5 ~dmin ~smin ~smax;
        C.Problem.problem6 ~smin ~smax;
        problem_of 6 (C.Params.make ~smax ());
      ]
    in
    List.iteri
      (fun i problem ->
        List.iter
          (fun expired ->
            let budget () =
              if expired then begin
                let b = Cqp_resilience.Budget.start ~deadline_ms:0. () in
                ignore (Cqp_resilience.Budget.expired b);
                b
              end
              else Cqp_resilience.Budget.unlimited
            in
            let label name =
              Printf.sprintf "%d/%d/%b/%s" seed i expired name
            in
            List.iter
              (fun algorithm ->
                emit
                  (label (C.Algorithm.name algorithm))
                  (C.Solver.solve ~algorithm ~budget:(budget ()) ps problem))
              (C.Algorithm.Exhaustive :: C.Algorithm.all);
            emit (label "heuristic")
              (C.Solver.solve_heuristic ~budget:(budget ()) ps problem);
            emit (label "greedy")
              (C.Solver.solve_greedy ~budget:(budget ()) ps problem);
            emit (label "portfolio")
              (C.Solver.portfolio ~budget:(budget ()) ps problem))
          [ false; true ])
      problems
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_answers_golden () =
  Alcotest.(check string) "answers digest" golden_answers_md5 (answers_digest ())

let qc = Testlib.qc

let () =
  Testlib.seed_banner "solver";
  Alcotest.run "solver"
    [
      ( "problems",
        [
          Alcotest.test_case "problem 2" `Quick test_problem2_exact;
          Alcotest.test_case "problem 1" `Quick test_problem1_smin_only;
          Alcotest.test_case "problem 1 with smax" `Quick test_problem1_with_smax_exact;
          Alcotest.test_case "problem 3" `Quick test_problem3_exact;
          Alcotest.test_case "problem 4" `Quick test_problem4_min_cost;
          Alcotest.test_case "problem 4 dmin=0" `Quick test_problem4_dmin_zero_is_empty;
          Alcotest.test_case "problem 5" `Quick test_problem5_min_cost_with_size;
          Alcotest.test_case "problem 6" `Quick test_problem6;
          Alcotest.test_case "infeasible" `Quick test_infeasible_returns_none;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "small-K sweep vs exhaustive" `Quick
            test_small_k_sweep;
          Alcotest.test_case "answers = golden" `Quick test_answers_golden;
          Alcotest.test_case "stats survive finishing" `Quick
            test_stats_survive_finishing;
        ] );
      ( "properties",
        [
          qc prop_bnb_matches_oracle;
          qc prop_max_doi_bnb_matches_oracle;
          qc prop_solver_feasible;
        ] );
    ]

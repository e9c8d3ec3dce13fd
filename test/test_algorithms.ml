(* Tests for the five CQP search algorithms (Section 5.2): the paper's
   worked Figure 6/8 examples, correctness of the exact algorithms
   against exhaustive search, and feasibility/quality of the
   heuristics. *)

module C = Cqp_core
module State = C.State

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* The Figure 6/8 configuration: sub-query costs 120, 80, 60, 40, 30
   (positions c1..c5 of the C vector), cmax = 185.  All node costs in
   the figures follow by additivity (Formula 6): e.g. c1c3 = 180,
   c2c3c4 = 180, c2c4c5 = 150. *)
let fig_space order =
  C.Space.create ~order (Testlib.figure6_space ())

let cmax = 185.

let test_figure6_boundaries () =
  (* The paper's FINDBOUNDARY output is {c1, c1c3, c2c3c4, c2c4c5}; its
     own prose then points out that c2c4c5 "has been wrongly identified
     as a boundary" because it lies below c2c3c4 and announces prune(.)
     as the fix.  We implement that prune, so the boundary set here is
     the corrected {c1, c1c3, c2c3c4}. *)
  let space = fig_space C.Space.By_cost in
  let bounds = C.C_boundaries.find_boundaries ~budget:Cqp_resilience.Budget.unlimited space ~cmax in
  Alcotest.(check (list string))
    "boundaries"
    [ "{1,3}"; "{1}"; "{2,3,4}" ]
    (Testlib.states_to_strings bounds)

let test_figure8_maxbounds () =
  (* Figure 8: C-MAXBOUNDS output is exactly {c1c3, c2c3c4} — no
     subsets, nothing below another bound. *)
  let space = fig_space C.Space.By_cost in
  let bounds = C.C_maxbounds.find_max_bounds ~budget:Cqp_resilience.Budget.unlimited space ~cmax in
  Alcotest.(check (list string))
    "maximal boundaries"
    [ "{1,3}"; "{2,3,4}" ]
    (Testlib.states_to_strings bounds)

let test_figure6_solution_optimal () =
  (* All exact algorithms and the heuristics agree with exhaustive on
     this 5-preference instance. *)
  let ps = Testlib.figure6_space () in
  let reference = C.Algorithm.run C.Algorithm.Exhaustive ps ~cmax in
  List.iter
    (fun algo ->
      let sol = C.Algorithm.run algo ps ~cmax in
      checkf
        (C.Algorithm.name algo ^ " doi")
        reference.C.Solution.params.C.Params.doi
        sol.C.Solution.params.C.Params.doi;
      checkb
        (C.Algorithm.name algo ^ " feasible")
        true
        (sol.C.Solution.params.C.Params.cost <= cmax))
    C.Algorithm.all

let test_boundary_definition () =
  (* Propositions 2/3 imply: every boundary satisfies the constraint
     and all its Vertical predecessors violate it.  A Vertical
     predecessor of R is a state whose vertical set contains R. *)
  let space = fig_space C.Space.By_cost in
  let k = C.Space.k space in
  let bounds = C.C_boundaries.find_boundaries ~budget:Cqp_resilience.Budget.unlimited space ~cmax in
  List.iter
    (fun b ->
      checkb "boundary feasible" true (C.Space.cost space b <= cmax);
      List.iter
        (fun pred ->
          if List.exists (State.equal b) (State.vertical ~k pred) then
            checkb "vertical predecessor violates" true
              (C.Space.cost space pred > cmax))
        (State.all_states ~k))
    bounds

let test_maxbounds_maximality () =
  (* No maximal boundary is a subset of or dominated by another. *)
  let space = fig_space C.Space.By_cost in
  let bounds = C.C_maxbounds.find_max_bounds ~budget:Cqp_resilience.Budget.unlimited space ~cmax in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (State.equal a b) then begin
            checkb "not subset" false (State.subset a b);
            checkb "not dominated" false (State.dominates b a)
          end)
        bounds)
    bounds

let test_best_below () =
  (* Phase 2 on a boundary replaces positions with cheaper-or-equal
     ones of better doi.  With C = identity (cost order = doi order),
     the best node below a boundary is the boundary itself. *)
  let space = fig_space C.Space.By_cost in
  let ids = C.Cost_phase2.best_below space [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "boundary itself" [ 1; 2; 3 ] ids

let test_best_below_crossed_orders () =
  (* Costs and dois anti-correlated: cheap preferences have the best
     dois, so the node below the boundary {c1} (position 0 = the most
     expensive item) is the cheapest item, which has the top doi. *)
  let ps =
    Testlib.fabricate
      ~costs:[| 10.; 20.; 30. |]
      ~dois:[| 0.9; 0.6; 0.3 |]
      ~fracs:[| 0.5; 0.5; 0.5 |]
      ()
  in
  (* D order: dois 0.9, 0.6, 0.3 -> costs 10, 20, 30.  C order:
     positions = items 2, 1, 0 (cost 30, 20, 10). *)
  let space = C.Space.create ~order:C.Space.By_cost ps in
  let ids = C.Cost_phase2.best_below space [ 0 ] in
  Alcotest.(check (list int)) "picks top-doi pref" [ 0 ] ids;
  (* id 0 is the doi-0.9 preference (cost 10 <= cost at position 0). *)
  checkf "its doi" 0.9 (ps.C.Pref_space.items.(List.hd ids)).C.Pref_space.doi

let test_saturate () =
  (* The greedy Horizontal2 climb on the Figure 6/8 costs: each step
     takes the most expensive position that still fits cmax = 185.
     c1 (120) takes c3 (60) and stops at 180; with c3 forbidden it
     takes c4 (40) instead; c2 (80) climbs to c2c3c4 (180); c1c3 has
     nothing left that fits. *)
  let space = fig_space C.Space.By_cost in
  let climb ?forbid state =
    let v, passed =
      C.Space.saturate ?forbid space (C.Space.value space state) ~cmax
    in
    (C.State.to_string v.C.Space.state, passed)
  in
  let pair = Alcotest.(pair string int) in
  Alcotest.check pair "c1" ("{1,3}", 2) (climb [ 0 ]);
  Alcotest.check pair "c1, c3 forbidden" ("{1,4}", 2) (climb ~forbid:2 [ 0 ]);
  Alcotest.check pair "c2" ("{2,3,4}", 3) (climb [ 1 ]);
  Alcotest.check pair "c1c3" ("{1,3}", 1) (climb [ 0; 2 ])

let test_best_expected_scan () =
  (* The phase-two scan over (label, group size, doi) candidates: the
     first of equal dois wins; larger groups come first; once the best
     doi beats the best any smaller group can reach (here the top
     single doi, 0.9), the scan stops without visiting the rest. *)
  let space = fig_space C.Space.By_doi in
  let scan candidates =
    let before = (C.Space.stats space).C.Instrument.states_visited in
    let best =
      C.Cost_phase2.best_expected space
        ~group:(fun (_, g, _) -> g)
        ~value:(fun (label, _, doi) -> (label, doi))
        candidates
    in
    (best, (C.Space.stats space).C.Instrument.states_visited - before)
  in
  let result = Alcotest.(pair (option string) int) in
  Alcotest.check result "empty" (None, 0) (scan []);
  Alcotest.check result "first of a tie" (Some "a", 2)
    (scan [ ("a", 2, 0.7); ("b", 2, 0.7) ]);
  Alcotest.check result "larger groups first" (Some "small", 2)
    (scan [ ("small", 1, 0.8); ("big", 3, 0.5) ]);
  Alcotest.check result "early exit" (Some "big", 1)
    (scan [ ("small", 1, 0.95); ("big", 3, 0.99) ])

(* --- Randomized equivalence against exhaustive ------------------------ *)

let random_equivalence ~exact algo =
  QCheck.Test.make
    ~name:(C.Algorithm.name algo ^ (if exact then " = optimal" else " feasible & <= optimal"))
    ~count:60
    QCheck.(pair (int_range 2 9) (int_range 0 100000))
    (fun (k, seed) ->
      let rng = Cqp_util.Rng.create seed in
      let ps = Testlib.random_space rng ~k in
      let supreme = C.Pref_space.supreme_cost ps in
      let cmax = 0.15 +. Cqp_util.Rng.float rng 0.8 in
      let cmax = cmax *. supreme in
      let opt = C.Algorithm.run C.Algorithm.Exhaustive ps ~cmax in
      let sol = C.Algorithm.run algo ps ~cmax in
      let opt_doi = opt.C.Solution.params.C.Params.doi in
      let doi = sol.C.Solution.params.C.Params.doi in
      let feasible =
        sol.C.Solution.pref_ids = []
        || sol.C.Solution.params.C.Params.cost <= cmax +. 1e-9
      in
      if exact then feasible && abs_float (doi -. opt_doi) < 1e-9
      else feasible && doi <= opt_doi +. 1e-9)

let prop_c_boundaries_exact = random_equivalence ~exact:true C.Algorithm.C_boundaries
let prop_d_maxdoi_exact = random_equivalence ~exact:true C.Algorithm.D_maxdoi
let prop_c_maxbounds_quality = random_equivalence ~exact:false C.Algorithm.C_maxbounds
let prop_d_single_quality = random_equivalence ~exact:false C.Algorithm.D_singlemaxdoi
let prop_d_heur_quality = random_equivalence ~exact:false C.Algorithm.D_heurdoi

(* Heuristic quality: on random instances the heuristics should land
   close to the optimum on average (the paper's Figure 14 shows
   differences of ~1e-7). *)
let test_heuristic_quality_close () =
  let rng = Cqp_util.Rng.create 12345 in
  let total_gap = Array.make 3 0. in
  let runs = 40 in
  for _ = 1 to runs do
    let ps = Testlib.random_space rng ~k:10 in
    let cmax = 0.4 *. C.Pref_space.supreme_cost ps in
    let opt =
      (C.Algorithm.run C.Algorithm.Exhaustive ps ~cmax).C.Solution.params
        .C.Params.doi
    in
    List.iteri
      (fun i algo ->
        let doi =
          (C.Algorithm.run algo ps ~cmax).C.Solution.params.C.Params.doi
        in
        total_gap.(i) <- total_gap.(i) +. (opt -. doi))
      [ C.Algorithm.C_maxbounds; C.Algorithm.D_singlemaxdoi; C.Algorithm.D_heurdoi ]
  done;
  Array.iteri
    (fun i gap ->
      checkb
        (Printf.sprintf "algorithm %d avg gap < 0.02" i)
        true
        (gap /. float_of_int runs < 0.02))
    total_gap

(* --- Knapsack oracle on experiment spaces ------------------------------ *)

(* Under noisy-or (Formula 10) a set's evidence -ln(1 - doi) is the sum
   of its items', and a non-empty set's cost is the sum of its items'
   (Formula 6), so Problem 2 is a 0/1 knapsack: maximize evidence under
   cmax.  The oracle searches it depth first, items in decreasing
   evidence per unit cost, and prunes a branch when Dantzig's LP bound
   (fill greedily, then a fraction of the first item that does not fit)
   cannot beat the best set found.  Its ids are re-valued through
   [Space.params_of_ids], so a tie is judged in the Space's own
   arithmetic. *)
let evidence doi = -.Float.log1p (-.doi)

let knapsack_optimum ps ~cmax =
  let space = C.Space.create ~order:C.Space.By_doi ps in
  let k = C.Space.k space in
  let w_of id = evidence (C.Space.item space id).C.Pref_space.doi in
  let c_of id = (C.Space.item space id).C.Pref_space.cost in
  let order = Array.init k Fun.id in
  Array.stable_sort (fun a b -> compare (w_of b /. c_of b) (w_of a /. c_of a)) order;
  let w = Array.map w_of order and c = Array.map c_of order in
  let rec lp i spent acc =
    if i >= k then acc
    else if spent +. c.(i) <= cmax then lp (i + 1) (spent +. c.(i)) (acc +. w.(i))
    else acc +. (w.(i) *. (cmax -. spent) /. c.(i))
  in
  let best = ref 0. and best_ids = ref [] in
  let rec go i spent value ids =
    if value > !best then begin
      best := value;
      best_ids := ids
    end;
    if i < k && value +. lp i spent 0. > !best then begin
      if spent +. c.(i) <= cmax then
        go (i + 1) (spent +. c.(i)) (value +. w.(i)) (order.(i) :: ids);
      go (i + 1) spent value ids
    end
  in
  go 0 0. 0. [];
  C.Space.params_of_ids space !best_ids

let experiment_pairs =
  lazy
    (let b = Cqp_workload.Experiment.build Cqp_workload.Experiment.quick in
     List.concat_map
       (fun profile ->
         List.map
           (fun q -> (b.Cqp_workload.Experiment.catalog, profile, q))
           b.Cqp_workload.Experiment.queries)
       b.Cqp_workload.Experiment.profiles)

(* On the quick bundle's 20 profile-query pairs at K preferences and
   cmax a fraction of the supreme cost: C_Boundaries and D_MaxDoi reach
   the oracle's evidence within 1e-9 relative, and no heuristic
   exceeds it. *)
let test_knapsack_oracle ~k ~frac () =
  List.iteri
    (fun pair (catalog, profile, query) ->
      let ps =
        C.Pref_space.build ~max_k:k (C.Estimate.create catalog query) profile
      in
      let cmax = frac *. C.Pref_space.supreme_cost ps in
      let opt = evidence (knapsack_optimum ps ~cmax).C.Params.doi in
      List.iter
        (fun algo ->
          let got =
            evidence
              (C.Algorithm.run algo ps ~cmax).C.Solution.params.C.Params.doi
          in
          let label = Printf.sprintf "pair %d: %s" pair (C.Algorithm.name algo) in
          if List.mem algo [ C.Algorithm.C_boundaries; C.Algorithm.D_maxdoi ]
          then
            Alcotest.(check (float (1e-9 *. Float.max 1. opt)))
              (label ^ ": evidence = optimum") opt got
          else
            checkb
              (Printf.sprintf "%s: evidence %.17g <= optimum %.17g" label got opt)
              true
              (got <= opt *. (1. +. 1e-9)))
        C.Algorithm.all)
    (Lazy.force experiment_pairs)

let knapsack_cases =
  List.concat_map
    (fun k ->
      List.map
        (fun pct ->
          let speed = if k > 16 && pct = 30 then `Slow else `Quick in
          Alcotest.test_case
            (Printf.sprintf "optimum at K %d, cmax %d%%" k pct)
            speed
            (test_knapsack_oracle ~k ~frac:(float_of_int pct /. 100.)))
        [ 10; 20; 30 ])
    [ 16; 18; 20 ]

(* Degenerate inputs. *)
let test_empty_space () =
  let ps = Testlib.fabricate ~costs:[||] ~dois:[||] ~fracs:[||] () in
  List.iter
    (fun algo ->
      let sol = C.Algorithm.run algo ps ~cmax:100. in
      checki (C.Algorithm.name algo ^ " empty") 0
        (List.length sol.C.Solution.pref_ids))
    (C.Algorithm.Exhaustive :: C.Algorithm.all)

let test_nothing_feasible () =
  let ps =
    Testlib.fabricate ~costs:[| 50.; 60. |] ~dois:[| 0.9; 0.8 |]
      ~fracs:[| 0.5; 0.5 |] ()
  in
  List.iter
    (fun algo ->
      let sol = C.Algorithm.run algo ps ~cmax:10. in
      checki (C.Algorithm.name algo ^ " infeasible") 0
        (List.length sol.C.Solution.pref_ids))
    (C.Algorithm.Exhaustive :: C.Algorithm.all)

let test_everything_feasible () =
  let ps =
    Testlib.fabricate ~costs:[| 5.; 6.; 7. |] ~dois:[| 0.9; 0.8; 0.7 |]
      ~fracs:[| 0.5; 0.5; 0.5 |] ()
  in
  List.iter
    (fun algo ->
      let sol = C.Algorithm.run algo ps ~cmax:1000. in
      checki (C.Algorithm.name algo ^ " takes all") 3
        (List.length sol.C.Solution.pref_ids))
    (C.Algorithm.Exhaustive :: C.Algorithm.all)

(* Instrumentation sanity: the memory-hungry algorithms should record a
   higher peak than the frugal ones, matching Figure 13. *)
let test_memory_ordering () =
  let rng = Cqp_util.Rng.create 99 in
  let ps = Testlib.random_space rng ~k:14 in
  let cmax = 0.4 *. C.Pref_space.supreme_cost ps in
  let peak algo =
    C.Instrument.peak_bytes (C.Algorithm.run algo ps ~cmax).C.Solution.stats
  in
  let d_maxdoi = peak C.Algorithm.D_maxdoi in
  let d_heur = peak C.Algorithm.D_heurdoi in
  checkb "D_MaxDoi uses more memory than D_HeurDoi" true (d_maxdoi > d_heur)

let qc = Testlib.qc

let () =
  Testlib.seed_banner "algorithms";
  Alcotest.run "algorithms"
    [
      ( "worked examples",
        [
          Alcotest.test_case "figure 6 boundaries" `Quick test_figure6_boundaries;
          Alcotest.test_case "figure 8 max bounds" `Quick test_figure8_maxbounds;
          Alcotest.test_case "figure 6 solution" `Quick test_figure6_solution_optimal;
          Alcotest.test_case "boundary definition" `Quick test_boundary_definition;
          Alcotest.test_case "maxbounds maximality" `Quick test_maxbounds_maximality;
          Alcotest.test_case "best below (aligned)" `Quick test_best_below;
          Alcotest.test_case "best below (crossed)" `Quick test_best_below_crossed_orders;
          Alcotest.test_case "saturate (figure 8 climbs)" `Quick test_saturate;
          Alcotest.test_case "phase-two scan" `Quick test_best_expected_scan;
        ] );
      ( "equivalence",
        [
          qc prop_c_boundaries_exact;
          qc prop_d_maxdoi_exact;
          qc prop_c_maxbounds_quality;
          qc prop_d_single_quality;
          qc prop_d_heur_quality;
          Alcotest.test_case "heuristic quality" `Slow test_heuristic_quality_close;
        ] );
      ("knapsack oracle", knapsack_cases);
      ( "edge cases",
        [
          Alcotest.test_case "empty space" `Quick test_empty_space;
          Alcotest.test_case "nothing feasible" `Quick test_nothing_feasible;
          Alcotest.test_case "everything feasible" `Quick test_everything_feasible;
          Alcotest.test_case "memory ordering" `Quick test_memory_ordering;
        ] );
    ]

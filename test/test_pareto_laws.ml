(* Pareto-front laws and the NSGA-II tri-objective machinery.

   Three layers of guarantees.  Unit regressions pin [Pareto.knee]
   seeding its normalization folds from the front itself (degenerate
   and all-negative fronts).  Qcheck laws cover dominance and skyline
   algebra (irreflexivity, skyline output is a front, idempotence)
   plus Deb's fast non-dominated sort.  The differential anchors the
   serving path: [Nsga2.front] is bit-identical to the exact
   tri-objective DFS front at every K the exact path covers, across
   seeds and repeated runs; the 2D front read off it as a skyline is
   the exhaustive 2D skyline, bit for bit; and the evolutionary path
   never invents a point the exact front refutes. *)

module C = Cqp_core
module Rng = Cqp_util.Rng

let pt ?(ids = []) ?(size = 0.) doi cost =
  { C.Pareto.pref_ids = ids; params = { C.Params.doi; cost; size } }

let point_list =
  Alcotest.testable C.Pareto.pp (fun a b -> List.compare compare a b = 0)

(* --- knee regressions -------------------------------------------------- *)

let test_knee_degenerate () =
  Alcotest.(check bool) "empty front has no knee" true (C.Pareto.knee [] = None);
  let p = pt ~ids:[ 0 ] 0.5 10. in
  Alcotest.(check bool) "singleton front: the knee is the point" true
    (C.Pareto.knee [ p ] = Some p);
  (* Duplicated single-value front: every objective has zero span.
     The old [0.]/[infinity] fold seeds made the normalization depend
     on phantom extremes; seeding from the front keeps this total. *)
  Alcotest.(check bool) "degenerate single-value front collapses to Some" true
    (C.Pareto.knee [ p; p; p ] = Some p);
  let z = pt 0. 0. in
  Alcotest.(check bool) "all-zero point front" true
    (C.Pareto.knee [ z; z ] = Some z)

let test_knee_negative_front () =
  (* The discriminating case for the seeding bug: every doi is
     negative, so folding a phantom [0.] into the max made
     span_d = 0 - (-1) = 1 instead of 0.5 and the knee collapsed to
     the cheapest extreme [a].  Correct normalization picks [b]:
     scores are a = 0, b = 0.8 - 0.5 = 0.3, m = 1 - 1 = 0. *)
  let a = pt ~ids:[ 0 ] (-1.) 0. in
  let b = pt ~ids:[ 1 ] (-0.6) 50. in
  let m = pt ~ids:[ 2 ] (-0.5) 100. in
  Alcotest.(check bool) "negative-doi front: knee is the trade-off point" true
    (C.Pareto.knee [ a; m; b ] = Some b);
  (* Same shape shifted positive picks the same point: the knee is
     translation-invariant now that spans come from the front. *)
  let shift p =
    { p with C.Pareto.params = { p.C.Pareto.params with C.Params.doi = p.C.Pareto.params.C.Params.doi +. 2. } }
  in
  Alcotest.(check bool) "knee is doi-translation invariant" true
    (C.Pareto.knee [ shift a; shift m; shift b ] = Some (shift b))

(* --- qcheck laws: dominance and skylines ------------------------------- *)

let gen_point =
  QCheck.Gen.(
    let* doi = float_range (-1.) 1. in
    let* cost = float_range 0. 200. in
    let* size = float_range 0. 500. in
    return (pt ~size doi cost))

let arb_points =
  QCheck.make
    ~print:(fun ps -> Format.asprintf "%a" C.Pareto.pp ps)
    QCheck.Gen.(list_size (1 -- 30) gen_point)

let prop_dominates_irreflexive =
  QCheck.Test.make ~name:"dominates is irreflexive (2- and 3-objective)"
    ~count:300 arb_points (fun ps ->
      List.for_all
        (fun p ->
          (not (C.Pareto.dominates p p)) && not (C.Nsga2.dominates p p))
        ps)

let prop_dominates_asymmetric =
  QCheck.Test.make ~name:"dominates is asymmetric (2- and 3-objective)"
    ~count:300 arb_points (fun ps ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (not (C.Pareto.dominates a b && C.Pareto.dominates b a))
              && not (C.Nsga2.dominates a b && C.Nsga2.dominates b a))
            ps)
        ps)

let prop_skyline_is_front =
  QCheck.Test.make ~name:"skyline output is a front" ~count:300 arb_points
    (fun ps -> C.Pareto.is_front (C.Pareto.skyline ps))

let prop_skyline_idempotent =
  QCheck.Test.make ~name:"skyline is idempotent" ~count:300 arb_points
    (fun ps ->
      let s = C.Pareto.skyline ps in
      C.Pareto.skyline s = s)

let prop_skyline_covers =
  QCheck.Test.make ~name:"every input is weakly dominated by the skyline"
    ~count:300 arb_points (fun ps ->
      let s = C.Pareto.skyline ps in
      List.for_all
        (fun p ->
          List.exists
            (fun q ->
              q.C.Pareto.params.C.Params.doi >= p.C.Pareto.params.C.Params.doi
              && q.C.Pareto.params.C.Params.cost
                 <= p.C.Pareto.params.C.Params.cost)
            s)
        ps)

let prop_non_dominated_is_front =
  QCheck.Test.make ~name:"Nsga2.non_dominated output is a tri-objective front"
    ~count:300 arb_points (fun ps ->
      let nd = C.Nsga2.non_dominated ps in
      C.Nsga2.is_front nd && C.Nsga2.non_dominated nd = nd)

(* --- Deb's fast non-dominated sort ------------------------------------- *)

let test_nds_chain () =
  let pts =
    [| pt 0.9 10. ~size:10.; pt 0.8 20. ~size:20.; pt 0.7 30. ~size:30. |]
  in
  Alcotest.(check (list (list int)))
    "total dominance chain peels one per rank"
    [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (C.Nsga2.non_dominated_sort pts)

let test_nds_incomparable () =
  let pts =
    [| pt 0.9 30. ~size:10.; pt 0.8 20. ~size:20.; pt 0.7 10. ~size:30. |]
  in
  Alcotest.(check (list (list int)))
    "mutually incomparable points share rank 0"
    [ [ 0; 1; 2 ] ]
    (C.Nsga2.non_dominated_sort pts)

let test_nds_all_equal () =
  let p = pt 0.5 10. ~size:5. in
  Alcotest.(check (list (list int)))
    "identical points never dominate each other"
    [ [ 0; 1; 2 ] ]
    (C.Nsga2.non_dominated_sort [| p; p; p |])

let test_nds_mixed () =
  let a = pt 0.9 10. ~size:10. in
  (* a dominates b and d; b and c are incomparable; d is last. *)
  let b = pt 0.8 20. ~size:10. in
  let c = pt 0.5 10. ~size:5. in
  let d = pt 0.4 30. ~size:50. in
  Alcotest.(check (list (list int)))
    "mixed ranks" [ [ 0; 2 ]; [ 1 ]; [ 3 ] ]
    (C.Nsga2.non_dominated_sort [| a; b; c; d |])

let prop_nds_partitions =
  QCheck.Test.make
    ~name:"non_dominated_sort partitions indices into dominated layers"
    ~count:150 arb_points (fun ps ->
      let pts = Array.of_list ps in
      let fronts = C.Nsga2.non_dominated_sort pts in
      let flat = List.concat fronts in
      List.sort compare flat = List.init (Array.length pts) Fun.id
      && List.for_all
           (fun front ->
             C.Nsga2.is_front (List.map (fun i -> pts.(i)) front))
           fronts
      &&
      (* Every rank-(r+1) member is dominated by some rank-r member. *)
      let rec layered = function
        | prev :: (next :: _ as rest) ->
            List.for_all
              (fun j ->
                List.exists (fun i -> C.Nsga2.dominates pts.(i) pts.(j)) prev)
              next
            && layered rest
        | _ -> true
      in
      layered fronts)

(* --- crowding distance ------------------------------------------------- *)

let test_crowding_small_fronts () =
  Alcotest.(check bool) "two points are both boundaries" true
    (C.Nsga2.crowding [| pt 0.9 10.; pt 0.5 50. |] = [| infinity; infinity |]);
  Alcotest.(check bool) "a single point is a boundary" true
    (C.Nsga2.crowding [| pt 0.9 10. |] = [| infinity |])

let test_crowding_interior () =
  (* Equally spaced on every objective: the interior point's gap is
     the full span on each of the three axes, so its crowding is
     exactly 3; the extremes are infinite. *)
  let front =
    [| pt 0.9 30. ~size:3.; pt 0.8 20. ~size:2.; pt 0.7 10. ~size:1. |]
  in
  let d = C.Nsga2.crowding front in
  Alcotest.(check bool) "boundaries are infinite" true
    (d.(0) = infinity && d.(2) = infinity);
  Alcotest.(check (float 1e-9)) "interior crowding is the normalized gap sum" 3.
    d.(1)

let test_crowding_identical_objectives () =
  (* Zero span on every objective: no boundaries, no gaps — all zeros,
     never NaN. *)
  let p = pt 0.5 10. ~size:5. in
  let d = C.Nsga2.crowding [| p; p; p; p |] in
  Alcotest.(check bool) "identical-objective front crowds to zero" true
    (Array.for_all (fun x -> x = 0.) d)

(* --- hypervolume ------------------------------------------------------- *)

let ref_point = { C.Params.doi = 0.; cost = 20.; size = 5. }

let test_hypervolume_known () =
  Alcotest.(check (float 0.)) "empty front has zero volume" 0.
    (C.Nsga2.hypervolume ~ref_point []);
  (* One point: the dominated region is a single box. *)
  Alcotest.(check (float 1e-9)) "single box" 15.
    (C.Nsga2.hypervolume ~ref_point [ pt 0.5 10. ~size:2. ]);
  (* Two incomparable points: top slab over the taller box plus the
     bottom slab over the 2D union (the smaller rectangle is
     contained, so the union area is the larger one's 60). *)
  let p1 = pt 0.8 15. ~size:4. and p2 = pt 0.4 5. ~size:1. in
  Alcotest.(check (float 1e-9)) "two-point union" 26.
    (C.Nsga2.hypervolume ~ref_point [ p1; p2 ]);
  Alcotest.(check (float 1e-9)) "order does not matter" 26.
    (C.Nsga2.hypervolume ~ref_point [ p2; p1 ]);
  (* A dominated point contributes nothing. *)
  let dominated = pt 0.7 16. ~size:4.5 in
  Alcotest.(check (float 1e-9)) "dominated point adds no volume"
    (C.Nsga2.hypervolume ~ref_point [ p1 ])
    (C.Nsga2.hypervolume ~ref_point [ p1; dominated ]);
  (* A point at (or beyond) the reference contributes nothing. *)
  Alcotest.(check (float 1e-9)) "reference-worse point adds no volume"
    (C.Nsga2.hypervolume ~ref_point [ p1 ])
    (C.Nsga2.hypervolume ~ref_point [ p1; pt 0. 25. ~size:6. ])

(* --- the NSGA-II / exact-DFS differential ------------------------------ *)

let tri_ref front =
  let worst f init =
    List.fold_left (fun m p -> f m p.C.Pareto.params) init front
  in
  {
    C.Params.doi = -1.;
    cost = worst (fun m p -> Float.max m p.C.Params.cost) 0. +. 1.;
    size = worst (fun m p -> Float.max m p.C.Params.size) 0. +. 1.;
  }

let test_front_matches_exact_dfs () =
  (* The acceptance differential: over >= 40 seeded spaces at K <= 12,
     [Nsga2.front] is bit-identical (structural equality, floats
     included) to the exhaustive tri-objective DFS front, and
     identical again on a second run. *)
  let seeds = 45 in
  for seed = 1 to seeds do
    let rng = Rng.create (1000 + seed) in
    let k = 4 + (seed mod 9) in
    let ps = Testlib.random_space rng ~k in
    let space = C.Space.create ~order:C.Space.By_doi ps in
    let exact = C.Nsga2.exact_front space in
    let front = C.Nsga2.front space in
    Alcotest.check point_list
      (Printf.sprintf "seed %d (K=%d): front = exact DFS" seed k)
      exact front;
    Alcotest.check point_list
      (Printf.sprintf "seed %d (K=%d): front is run-deterministic" seed k)
      front (C.Nsga2.front space);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: exact front satisfies is_front" seed)
      true
      (C.Nsga2.is_front exact)
  done

let test_front_matches_exact_constrained () =
  let constraints = C.Params.make ~smin:10. ~smax:100000. () in
  for seed = 1 to 10 do
    let rng = Rng.create (7000 + seed) in
    let ps = Testlib.random_space rng ~k:8 in
    let space = C.Space.create ~order:C.Space.By_doi ps in
    let exact = C.Nsga2.exact_front ~constraints space in
    Alcotest.check point_list
      (Printf.sprintf "seed %d: constrained front = constrained exact DFS" seed)
      exact
      (C.Nsga2.front ~constraints space);
    List.iter
      (fun p ->
        Alcotest.(check bool) "every constrained front point is feasible" true
          (C.Pareto.feasible (Some constraints) p.C.Pareto.params))
      exact
  done

(* The 2D front is the skyline of the tri-objective one: a (doi, cost)
   pair that nothing dominates in two objectives is the projection of
   some point nothing dominates in three.  The reference is a skyline
   over every feasible subset, enumerated independently of [Nsga2].
   Ties may pick a different id set for the same pair, so the
   (doi, cost) sequences are compared as float bits. *)
let exhaustive_skyline ?constraints space =
  let candidates = ref [] in
  C.Exhaustive.iter_subsets space (fun ids _n params ->
      if C.Pareto.feasible constraints params then
        candidates := { C.Pareto.pref_ids = List.rev ids; params } :: !candidates);
  C.Pareto.skyline !candidates

let doi_cost_bits front =
  List.map
    (fun p ->
      ( Int64.bits_of_float p.C.Pareto.params.C.Params.doi,
        Int64.bits_of_float p.C.Pareto.params.C.Params.cost ))
    front

let check_projection ?constraints msg space =
  let projected = C.Pareto.skyline (C.Nsga2.exact_front ?constraints space) in
  let reference = exhaustive_skyline ?constraints space in
  Alcotest.(check (list (pair int64 int64)))
    (msg ^ ": skyline of exact tri front = exhaustive 2D skyline")
    (doi_cost_bits reference) (doi_cost_bits projected)

let test_projection_matches_exhaustive_skyline () =
  for seed = 1 to 45 do
    let rng = Rng.create (1000 + seed) in
    let k = 4 + (seed mod 9) in
    let space =
      C.Space.create ~order:C.Space.By_doi (Testlib.random_space rng ~k)
    in
    check_projection (Printf.sprintf "seed %d (K=%d)" seed k) space
  done;
  let constraints = C.Params.make ~smin:10. ~smax:100000. () in
  for seed = 1 to 10 do
    let rng = Rng.create (7000 + seed) in
    let space =
      C.Space.create ~order:C.Space.By_doi (Testlib.random_space rng ~k:8)
    in
    check_projection ~constraints (Printf.sprintf "constrained seed %d" seed)
      space
  done;
  (* Costs and dois on a 0.25 grid: every sum and noisy-or product is
     exact, so many subsets tie on (doi, cost) and the skyline's
     tie-breaking is what is under test. *)
  let ties =
    Testlib.fabricate
      ~costs:[| 0.25; 0.5; 0.25; 0.75; 0.5; 0.25; 1.; 0.5; 0.75; 0.25 |]
      ~dois:[| 0.25; 0.5; 0.5; 0.75; 0.25; 0.5; 0.75; 0.25; 0.5; 0.25 |]
      ~fracs:[| 0.25; 0.5; 0.75; 0.25; 0.5; 0.75; 0.25; 0.5; 0.75; 0.5 |]
      ()
  in
  check_projection "tie-heavy grid" (C.Space.create ~order:C.Space.By_doi ties)

let test_evolve_consistent_with_exact () =
  (* The evolutionary path at exactly-enumerable K: deterministic
     across runs, front property holds, no point the exact front
     refutes (every GA point is a true front member or dominated by
     one), and it recovers most of the exact hypervolume. *)
  let ratios = ref [] in
  for seed = 1 to 8 do
    let rng = Rng.create (3000 + seed) in
    let k = 8 + (seed mod 5) in
    let ps = Testlib.random_space rng ~k in
    let space = C.Space.create ~order:C.Space.By_doi ps in
    let exact = C.Nsga2.exact_front space in
    let ga = C.Nsga2.evolve space in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: GA front satisfies is_front" seed)
      true (C.Nsga2.is_front ga);
    Alcotest.check point_list
      (Printf.sprintf "seed %d: GA front is run-deterministic" seed)
      ga (C.Nsga2.evolve space);
    List.iter
      (fun g ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: GA point is exact-front-consistent" seed)
          true
          (List.mem g exact
          || List.exists (fun e -> C.Nsga2.dominates e g) exact))
      ga;
    let ref_point = tri_ref exact in
    let hv_exact = C.Nsga2.hypervolume ~ref_point exact in
    let hv_ga = C.Nsga2.hypervolume ~ref_point ga in
    if hv_exact > 0. then ratios := (hv_ga /. hv_exact) :: !ratios
  done;
  List.iter
    (fun r ->
      Alcotest.(check bool) "GA recovers at least 90% of exact hypervolume"
        true (r >= 0.9))
    !ratios

(* --- serving form ------------------------------------------------------ *)

let serving_front () =
  [
    pt ~ids:[] ~size:1. 0.1 5.;
    pt ~ids:[ 0 ] ~size:2. 0.5 10.;
    pt ~ids:[ 1 ] ~size:0.5 0.4 20.;
    pt ~ids:[ 0; 1 ] ~size:3. 0.9 40.;
  ]

let test_serving_pick () =
  let s = C.Nsga2.serving_of_front (serving_front ()) in
  Alcotest.(check int) "serving holds the whole front" 4
    (C.Nsga2.points_held s);
  Alcotest.(check bool) "budget below the cheapest point: nothing fits" true
    (C.Nsga2.pick s ~budget_ms:4. = None);
  let at b = Option.map fst (C.Nsga2.pick s ~budget_ms:b) in
  Alcotest.(check (option int)) "exactly the cheapest point" (Some 0) (at 5.);
  Alcotest.(check (option int)) "mid budget: best doi in prefix" (Some 1)
    (at 12.);
  (* The prefix index matters: point 2 fits a 25ms budget but point 1
     has the better doi, so the argmax looks back. *)
  Alcotest.(check (option int)) "prefix argmax skips a worse-doi point"
    (Some 1) (at 25.);
  Alcotest.(check (option int)) "unbounded budget: global best" (Some 3)
    (at infinity);
  Alcotest.(check bool) "picked index dereferences to the picked point" true
    (match C.Nsga2.pick s ~budget_ms:12. with
    | Some (i, p) -> C.Nsga2.point s i = p
    | None -> false)

let test_serving_knee () =
  let s = C.Nsga2.serving_of_front (serving_front ()) in
  (* The 2D knee of this front is the {0} point (scores: extremes 0,
     interior 0.357...), reported with its cost-order index. *)
  (match C.Nsga2.knee s with
  | Some (1, p) ->
      Alcotest.(check (list int)) "knee ids" [ 0 ] p.C.Pareto.pref_ids
  | other ->
      Alcotest.failf "expected knee at index 1, got %s"
        (match other with
        | None -> "none"
        | Some (i, _) -> Printf.sprintf "index %d" i));
  let empty = C.Nsga2.serving_of_front [] in
  Alcotest.(check bool) "empty serving has no pick and no knee" true
    (C.Nsga2.pick empty ~budget_ms:infinity = None
    && C.Nsga2.knee empty = None)

let () =
  Testlib.seed_banner "test_pareto_laws";
  Alcotest.run "pareto_laws"
    [
      ( "knee",
        [
          Alcotest.test_case "degenerate fronts" `Quick test_knee_degenerate;
          Alcotest.test_case "negative-doi front regression" `Quick
            test_knee_negative_front;
        ] );
      ( "laws",
        [
          Testlib.qc prop_dominates_irreflexive;
          Testlib.qc prop_dominates_asymmetric;
          Testlib.qc prop_skyline_is_front;
          Testlib.qc prop_skyline_idempotent;
          Testlib.qc prop_skyline_covers;
          Testlib.qc prop_non_dominated_is_front;
        ] );
      ( "nds",
        [
          Alcotest.test_case "dominance chain" `Quick test_nds_chain;
          Alcotest.test_case "incomparable" `Quick test_nds_incomparable;
          Alcotest.test_case "all equal" `Quick test_nds_all_equal;
          Alcotest.test_case "mixed ranks" `Quick test_nds_mixed;
          Testlib.qc prop_nds_partitions;
        ] );
      ( "crowding",
        [
          Alcotest.test_case "small fronts all-infinite" `Quick
            test_crowding_small_fronts;
          Alcotest.test_case "interior gap sum" `Quick test_crowding_interior;
          Alcotest.test_case "identical objectives" `Quick
            test_crowding_identical_objectives;
        ] );
      ( "hypervolume",
        [ Alcotest.test_case "known fronts" `Quick test_hypervolume_known ] );
      ( "differential",
        [
          Alcotest.test_case "front = exact DFS at K <= 12" `Quick
            test_front_matches_exact_dfs;
          Alcotest.test_case "constrained front = constrained DFS" `Quick
            test_front_matches_exact_constrained;
          Alcotest.test_case "2D front = skyline of exact tri front" `Quick
            test_projection_matches_exhaustive_skyline;
          Alcotest.test_case "evolve consistent with exact" `Slow
            test_evolve_consistent_with_exact;
        ] );
      ( "serving",
        [
          Alcotest.test_case "budgeted pick" `Quick test_serving_pick;
          Alcotest.test_case "knee floor" `Quick test_serving_knee;
        ] );
    ]

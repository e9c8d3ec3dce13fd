(* Pareto-front laws and the tri-objective front builder.

   Three layers of guarantees.  Unit regressions pin [Pareto.knee]
   seeding its normalization folds from the front itself (degenerate
   and all-negative fronts).  Qcheck laws cover dominance and skyline
   algebra (irreflexivity, skyline output is a front, idempotence) and
   the O(n log n) non-dominated filter against a brute-force O(n^2)
   one.  The differentials anchor the serving path: [Nsga2.build]
   equals an enumeration of every subset, kept here as the oracle, at
   every K up to 20 on random, doi-saturated, tie-heavy and
   size-constrained spaces; the 2D front read off it as a skyline is
   the exhaustive 2D skyline, bit for bit; and past its point budget
   the builder covers the exact front within the factor it reports. *)

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

(* Points on a coarse grid with repeated triples, some under different
   id sets, so ties on one objective or on all three are common. *)
let arb_grid_points =
  let gen_point =
    QCheck.Gen.(
      let* doi = map (fun i -> float_of_int i /. 4.) (0 -- 4) in
      let* cost = map float_of_int (0 -- 3) in
      let* size = map float_of_int (0 -- 3) in
      let* ids = list_size (0 -- 2) (0 -- 3) in
      return (pt ~ids ~size doi cost))
  in
  QCheck.make
    ~print:(fun ps -> Format.asprintf "%a" C.Pareto.pp ps)
    QCheck.Gen.(
      let* pool = list_size (1 -- 8) gen_point in
      list_size (1 -- 30) (oneofl pool))

let triple (p : C.Params.t) =
  ( Int64.bits_of_float p.C.Params.doi,
    Int64.bits_of_float p.C.Params.cost,
    Int64.bits_of_float p.C.Params.size )

let prop_non_dominated_distinct_triples =
  QCheck.Test.make ~name:"Nsga2.non_dominated never repeats a triple"
    ~count:300 arb_grid_points (fun ps ->
      let triples =
        List.map (fun p -> triple p.C.Pareto.params) (C.Nsga2.non_dominated ps)
      in
      List.length (List.sort_uniq compare triples) = List.length triples)

(* The filter by its definition: a point survives when nothing strictly
   dominates it and no point before it in canonical order has its
   triple. *)
let brute_non_dominated ps =
  let sorted = List.sort C.Nsga2.compare_points ps in
  List.filteri
    (fun i p ->
      (not (List.exists (fun q -> C.Nsga2.dominates q p) ps))
      && not
           (List.exists
              (fun q -> q.C.Pareto.params = p.C.Pareto.params)
              (List.filteri (fun j _ -> j < i) sorted)))
    sorted

let prop_non_dominated_brute_force =
  QCheck.Test.make ~name:"Nsga2.non_dominated = brute-force O(n^2) filter"
    ~count:500 arb_grid_points (fun ps ->
      C.Nsga2.non_dominated ps = brute_non_dominated ps)

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

(* --- the enumeration oracle ---------------------------------------------- *)

(* Every subset through [Exhaustive.iter_subsets], the DFS whose float
   path the builder extends along, then the non-dominated filter.  The
   filter runs per chunk of 2^16 candidates, so memory stays at one
   chunk plus the front at K = 20: the front of a union is the front of
   (the front of one part) and the other part. *)
let oracle ?constraints space =
  let front = ref [] and chunk = ref [] and held = ref 0 in
  let flush () =
    front := C.Nsga2.non_dominated (List.rev_append !chunk !front);
    chunk := [];
    held := 0
  in
  C.Exhaustive.iter_subsets space (fun ids _n params ->
      if C.Pareto.feasible constraints params then begin
        chunk := { C.Pareto.pref_ids = List.rev ids; params } :: !chunk;
        incr held;
        if !held = 1 lsl 16 then flush ()
      end);
  flush ();
  !front

(* How many subsets reach each triple of [front], and the last one's
   ids (a subset with a feasible point's triple is itself feasible). *)
let id_sets space front =
  let seen = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace seen (triple p.C.Pareto.params) (0, []))
    front;
  C.Exhaustive.iter_subsets space (fun ids _n params ->
      let t = triple params in
      match Hashtbl.find_opt seen t with
      | Some (n, _) -> Hashtbl.replace seen t (n + 1, List.rev ids)
      | None -> ());
  seen

(* An id set's params, extended in ascending id order as the DFS does. *)
let dfs_params space ids =
  snd
    (List.fold_left
       (fun (n, p) id -> (n + 1, C.Space.params_with_id space ~n p id))
       (0, C.Space.params_of_ids space [])
       ids)

let check_builder ?constraints msg space =
  let front, factor = C.Nsga2.build ?constraints space in
  let exact = oracle ?constraints space in
  Alcotest.(check (float 0.)) (msg ^ ": factor is 1.0") 1. factor;
  Alcotest.(check (list (triple int64 int64 int64)))
    (msg ^ ": distinct triples = the enumeration's, as float bits")
    (List.map (fun p -> triple p.C.Pareto.params) exact)
    (List.map (fun p -> triple p.C.Pareto.params) front);
  let sets = id_sets space exact in
  List.iter
    (fun p ->
      let ids = p.C.Pareto.pref_ids in
      Alcotest.(check bool)
        (msg ^ ": DFS-order params = the point")
        true
        (triple (dfs_params space ids) = triple p.C.Pareto.params);
      Alcotest.(check bool)
        (msg ^ ": point is feasible")
        true
        (C.Pareto.feasible constraints p.C.Pareto.params);
      match Hashtbl.find sets (triple p.C.Pareto.params) with
      | 1, only ->
          Alcotest.(check (list int)) (msg ^ ": the only id set") only ids
      | _ -> ())
    front

(* Space families: [k] preferences drawn from [rng]. *)
let noisy_or rng ~k = (Testlib.random_space rng ~k, None)

(* A third of the items at doi 1: every set holding one ties at doi 1,
   and the front separates those sets by cost and size alone. *)
let saturated rng ~k = (Testlib.saturated_space rng ~k, None)

(* Costs, dois and fractions on a 0.25 grid, zero fractions and doi 1
   included: sums and products are exact, so subsets tie on whole
   triples and partial sets tie before a later item erases the gap. *)
let tie_grid rng ~k =
  let pick a = a.(Rng.int rng (Array.length a)) in
  ( Testlib.fabricate
      ~costs:(Array.init k (fun _ -> pick [| 0.25; 0.5; 0.75; 1. |]))
      ~dois:(Array.init k (fun _ -> pick [| 0.25; 0.5; 0.75; 1. |]))
      ~fracs:(Array.init k (fun _ -> pick [| 0.; 0.25; 0.5; 0.75; 1. |]))
      (),
    None )

(* Size-constrained: smin 1 (generated serving workloads' Problem 3
   bound) or drawn at random, with and without smax. *)
let constrained rng ~k =
  let ps = Testlib.random_space rng ~k in
  let smin = if Rng.bool rng then 1. else Rng.float rng 20. in
  let smax = if Rng.bool rng then Some (smin +. Rng.float rng 60.) else None in
  (ps, Some (C.Params.make ~smin ?smax ()))

let families =
  [
    ("noisy-or", noisy_or, 1);
    ("doi-saturated", saturated, 2);
    ("tie grid", tie_grid, 3);
    ("constrained", constrained, 4);
  ]

let check_family ?(spaces = 1) ~ks (name, family, salt) =
  List.iter
    (fun k ->
      for s = 0 to spaces - 1 do
        let rng = Rng.create ((10_000 * s) + (100 * salt) + k) in
        let ps, constraints = family rng ~k in
        check_builder ?constraints
          (Printf.sprintf "%s K=%d space %d" name k s)
          (C.Space.create ~order:C.Space.By_doi ps)
      done)
    ks

let test_builder_matches_oracle () =
  List.iter (check_family ~spaces:3 ~ks:(List.init 17 Fun.id)) families

(* One space per family, K = 17 to 20 in the families' order. *)
let test_builder_matches_oracle_large_k () =
  List.iteri (fun i family -> check_family ~ks:[ 17 + i ] family) families

let test_front_matches_exact_dfs () =
  (* Over 45 seeded spaces at K <= 12, [Nsga2.front] is bit-identical
     (structural equality, floats and id sets included) to the
     enumeration's front — random spaces have no ties — and identical
     again on a second run. *)
  let seeds = 45 in
  for seed = 1 to seeds do
    let rng = Rng.create (1000 + seed) in
    let k = 4 + (seed mod 9) in
    let ps = Testlib.random_space rng ~k in
    let space = C.Space.create ~order:C.Space.By_doi ps in
    let exact = oracle space in
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
    let exact = oracle ~constraints space in
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

(* Two items tie on doi and cost, and a third with fraction 0 erases
   their size gap: {0,2} and {1,2} reach one triple.  The front lists
   that operating point once. *)
let test_front_lists_a_tie_once () =
  let space =
    C.Space.create ~order:C.Space.By_doi
      (Testlib.fabricate ~costs:[| 1.; 1.; 1. |] ~dois:[| 0.8; 0.8; 0.5 |]
         ~fracs:[| 0.4; 0.6; 0. |] ())
  in
  Alcotest.(check int) "5 operating points, 5 front points" 5
    (List.length (C.Nsga2.front space));
  check_builder "three-item tie" space

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
  let projected = C.Pareto.skyline (C.Nsga2.front ?constraints space) in
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

(* --- the point budget ------------------------------------------------- *)

(* Fractions exp(-c/40) make size fall exactly as cost rises, so no
   subset dominates another: all 2^14 lie on the exact front, so both a
   partial front (2^13 - 1 sets after 13 ids) and the final front pass
   the builder's budget. *)
let budget_space () =
  let rng = Rng.create 4096 in
  let k = 14 in
  let costs = Array.init k (fun _ -> 5. +. Rng.float rng 100.) in
  C.Space.create ~order:C.Space.By_doi
    (Testlib.fabricate ~costs
       ~dois:(Array.init k (fun _ -> 0.05 +. Rng.float rng 0.9))
       ~fracs:(Array.map (fun c -> exp (-.c /. 40.)) costs)
       ())

let check_thinned ?constraints msg space =
  let front, factor = C.Nsga2.build ?constraints space in
  Alcotest.(check bool) (msg ^ ": thinned") true (factor > 1.);
  Alcotest.(check bool)
    (msg ^ ": at most 4,096 points")
    true
    (List.length front <= 4096);
  Alcotest.(check bool)
    (msg ^ ": mutually non-dominated")
    true (C.Nsga2.is_front front);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (msg ^ ": feasible, with DFS-exact params")
        true
        (C.Pareto.feasible constraints p.C.Pareto.params
        && triple (dfs_params space p.C.Pareto.pref_ids)
           = triple p.C.Pareto.params))
    front;
  (* The guarantee covers the size interval with smax divided by the
     factor; smin needs no narrowing, since a thinned set is only
     replaced by one that keeps its extensions above smin.  The factor
     bounds real-number ratios; the slack absorbs float rounding in the
     sums and logarithms behind them. *)
  let narrowed =
    Option.map
      (fun (c : C.Params.constraints) ->
        { c with C.Params.smax = Option.map (fun b -> b /. factor) c.C.Params.smax })
      constraints
  in
  let within = factor *. (1. +. 1e-9) in
  let exact = oracle ?constraints:narrowed space in
  List.iter
    (fun (o : C.Pareto.point) ->
      let o = o.C.Pareto.params in
      Alcotest.(check bool)
        (msg ^ ": exact point covered within the factor")
        true
        (List.exists
           (fun (q : C.Pareto.point) ->
             let q = q.C.Pareto.params in
             q.C.Params.doi >= o.C.Params.doi
             && q.C.Params.cost <= within *. o.C.Params.cost
             && q.C.Params.size <= within *. o.C.Params.size)
           front))
    exact;
  exact

let test_budget () =
  let space = budget_space () in
  Alcotest.(check int) "every subset is on the exact front" 16384
    (List.length (oracle space));
  ignore (check_thinned "unconstrained" space);
  let constraints = C.Params.make ~smin:1e-3 ~smax:50. () in
  let narrowed_front = check_thinned ~constraints "size-constrained" space in
  Alcotest.(check bool) "the narrowed interval still holds most of the front"
    true
    (List.length narrowed_front > 4096)

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
          Testlib.qc prop_non_dominated_distinct_triples;
          Testlib.qc prop_non_dominated_brute_force;
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
          Alcotest.test_case "builder = enumeration at K <= 16" `Quick
            test_builder_matches_oracle;
          Alcotest.test_case "builder = enumeration at K 17-20" `Slow
            test_builder_matches_oracle_large_k;
          Alcotest.test_case "a tied operating point is listed once" `Quick
            test_front_lists_a_tie_once;
          Alcotest.test_case "past the point budget: covered within the factor"
            `Quick test_budget;
        ] );
      ( "serving",
        [
          Alcotest.test_case "budgeted pick" `Quick test_serving_pick;
          Alcotest.test_case "knee floor" `Quick test_serving_knee;
        ] );
    ]

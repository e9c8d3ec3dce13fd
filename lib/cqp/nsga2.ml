module Rng = Cqp_util.Rng

type point = Pareto.point = { pref_ids : int list; params : Params.t }

(* --- tri-objective dominance ----------------------------------------- *)

let dominates a b =
  let pa = a.params and pb = b.params in
  pa.Params.doi >= pb.Params.doi
  && pa.Params.cost <= pb.Params.cost
  && pa.Params.size <= pb.Params.size
  && (pa.Params.doi > pb.Params.doi
     || pa.Params.cost < pb.Params.cost
     || pa.Params.size < pb.Params.size)

let is_front points =
  List.for_all
    (fun a -> not (List.exists (fun b -> dominates b a) points))
    points

(* Canonical front order: cost ascending, then size ascending, then
   doi descending, then the id sets themselves — a total order, so any
   two builders producing the same point set produce bit-identical
   lists. *)
let compare_points a b =
  match Stdlib.compare a.params.Params.cost b.params.Params.cost with
  | 0 -> (
      match Stdlib.compare a.params.Params.size b.params.Params.size with
      | 0 -> (
          match Stdlib.compare b.params.Params.doi a.params.Params.doi with
          | 0 -> Stdlib.compare a.pref_ids b.pref_ids
          | c -> c)
      | c -> c)
  | c -> c

(* Non-dominated filter in canonical order.  Under [compare_points] a
   dominator always sorts before anything it dominates (it has no
   larger cost, no larger size, and no smaller doi), so one pass
   against the kept prefix suffices. *)
let non_dominated candidates =
  let sorted = List.sort compare_points candidates in
  let kept = ref [] in
  List.iter
    (fun c ->
      if not (List.exists (fun k -> dominates k c) !kept) then
        kept := c :: !kept)
    sorted;
  List.rev !kept

(* --- Deb's fast non-dominated sort ----------------------------------- *)

(* O(MN^2): one dominance pass builds, per solution, the set it
   dominates and the count of solutions dominating it; peeling the
   zero-count layer and decrementing through the dominated sets yields
   the fronts without re-running dominance per rank. *)
let sort_by dom n =
  let dominated = Array.make n [] in
  let count = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        if dom i j then dominated.(i) <- j :: dominated.(i)
        else if dom j i then count.(i) <- count.(i) + 1
    done
  done;
  let fronts = ref [] in
  let current = ref [] in
  for i = n - 1 downto 0 do
    if count.(i) = 0 then current := i :: !current
  done;
  while !current <> [] do
    fronts := !current :: !fronts;
    let next = ref [] in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            count.(j) <- count.(j) - 1;
            if count.(j) = 0 then next := j :: !next)
          dominated.(i))
      !current;
    current := List.sort Stdlib.compare !next
  done;
  List.rev !fronts

let non_dominated_sort points =
  sort_by (fun i j -> dominates points.(i) points.(j)) (Array.length points)

(* --- crowding distance ----------------------------------------------- *)

(* Crowding over one front given as indices into [points].  Boundary
   solutions of every spanning objective are infinitely crowded;
   interior ones accumulate the normalized gap between their
   neighbors.  An objective with zero span over the front contributes
   nothing (rather than NaN), so a front identical on every objective
   crowds to all zeros — and a front of at most two points is all
   boundaries, hence all infinite. *)
let crowding_of points front =
  let m = Array.length front in
  let d = Array.make m 0. in
  if m <= 2 then Array.map (fun _ -> infinity) d
  else begin
    let objectives =
      [
        (fun (p : point) -> p.params.Params.doi);
        (fun p -> p.params.Params.cost);
        (fun p -> p.params.Params.size);
      ]
    in
    List.iter
      (fun f ->
        let v i = f points.(front.(i)) in
        let order = Array.init m Fun.id in
        Array.sort
          (fun a b ->
            match Stdlib.compare (v a) (v b) with
            | 0 -> Stdlib.compare a b
            | c -> c)
          order;
        let span = v order.(m - 1) -. v order.(0) in
        if span > 0. then begin
          d.(order.(0)) <- infinity;
          d.(order.(m - 1)) <- infinity;
          for i = 1 to m - 2 do
            if d.(order.(i)) <> infinity then
              d.(order.(i)) <-
                d.(order.(i)) +. ((v order.(i + 1) -. v order.(i - 1)) /. span)
          done
        end)
      objectives;
    d
  end

let crowding points =
  crowding_of points (Array.init (Array.length points) Fun.id)

(* --- hypervolume ------------------------------------------------------ *)

(* Area of the union of origin-anchored rectangles [0,x] x [0,y]:
   sweep by decreasing x, each rectangle adds its width times the
   height above the tallest already swept. *)
let area2 rects =
  let sorted =
    List.sort
      (fun (x1, y1) (x2, y2) ->
        match Stdlib.compare x2 x1 with
        | 0 -> Stdlib.compare y2 y1
        | c -> c)
      rects
  in
  let best_y = ref 0. in
  List.fold_left
    (fun acc (x, y) ->
      if y > !best_y then begin
        let acc = acc +. (x *. (y -. !best_y)) in
        best_y := y;
        acc
      end
      else acc)
    0. sorted

let hypervolume ~ref_point points =
  (* Transform to maximize-from-origin coordinates (how much better
     than the reference on each objective); points not strictly better
     than the reference on every objective contribute nothing. *)
  let boxes =
    List.filter_map
      (fun (p : point) ->
        let x = ref_point.Params.cost -. p.params.Params.cost in
        let y = ref_point.Params.size -. p.params.Params.size in
        let z = p.params.Params.doi -. ref_point.Params.doi in
        if x > 0. && y > 0. && z > 0. then Some (x, y, z) else None)
      points
  in
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> Stdlib.compare b a) boxes
  in
  (* Slice along the doi axis from the top: each slab's volume is its
     height times the 2D union of every box at least that tall. *)
  let rec slabs acc seen = function
    | [] -> acc
    | (x, y, z) :: rest ->
        let seen = (x, y) :: seen in
        let z_next = match rest with [] -> 0. | (_, _, z') :: _ -> z' in
        slabs (acc +. ((z -. z_next) *. area2 seen)) seen rest
  in
  slabs 0. [] sorted

(* --- exact tri-objective front ---------------------------------------- *)

let exact_front ?constraints space =
  let k = Space.k space in
  if k > Exhaustive.max_k then
    invalid_arg
      (Printf.sprintf "Nsga2.exact_front: K = %d exceeds %d" k
         Exhaustive.max_k);
  let candidates = ref [] in
  Exhaustive.iter_subsets space (fun ids _n params ->
      if Pareto.feasible constraints params then
        candidates := { pref_ids = List.rev ids; params } :: !candidates);
  non_dominated !candidates

(* --- evolutionary front (K beyond exact enumeration) ------------------ *)

(* Search settings are constants, not arguments: [front] must be a pure
   function of its inputs, which the front cache and the differential
   suites rely on. *)
let evaluations = 4096
let population = 64
let mutation_rate = 0.03
let seed = 0x4E534741 (* "NSGA" *)

let ids_of_bits bits =
  let ids = ref [] in
  Array.iteri (fun i b -> if b then ids := i :: !ids) bits;
  List.rev !ids

(* Constraint handling is Deb's constrained domination: a feasible
   point dominates any infeasible one, a less-violating infeasible
   point dominates a more-violating one, and two feasible points fall
   back to objective dominance.  Violation is the distance to the size
   interval (the only constraint that filters candidates here — see
   {!Pareto.feasible}). *)
let size_violation constraints (p : Params.t) =
  match constraints with
  | None -> 0.
  | Some c ->
      let below =
        match c.Params.smin with
        | Some b when p.Params.size < b -> b -. p.Params.size
        | _ -> 0.
      in
      let above =
        match c.Params.smax with
        | Some b when p.Params.size > b -> p.Params.size -. b
        | _ -> 0.
      in
      below +. above

let constrained_dominates (pa, va) (pb, vb) =
  if va = 0. && vb = 0. then dominates pa pb
  else if va = 0. then true
  else if vb = 0. then false
  else va < vb

(* Scalarize (rank, crowding) for the shared tournament operator:
   ranks are whole numbers apart, the crowding term stays inside
   (0, 1), so rank always wins and crowding settles within-rank. *)
let scalar_fitness rank crowd =
  let cterm =
    if crowd = infinity then 0.999 else 0.998 *. (crowd /. (1. +. crowd))
  in
  -.float_of_int rank +. cterm

let evolve ?constraints space =
  let k = Space.k space in
  let eval_point ids =
    { pref_ids = ids; params = Space.params_of_ids space ids }
  in
  if k = 0 then
    non_dominated
      (List.filter
         (fun p -> Pareto.feasible constraints p.params)
         [ eval_point [] ])
  else begin
    let rng = Rng.create seed in
    (* Every feasible evaluation feeds an archive keyed by the id set;
       the returned front is the non-dominated filter over the whole
       archive, so the GA can only add points, never lose one it has
       already seen. *)
    let archive = Hashtbl.create 256 in
    let eval bits =
      let p = eval_point (ids_of_bits bits) in
      let v = size_violation constraints p.params in
      if v = 0. && not (Hashtbl.mem archive p.pref_ids) then
        Hashtbl.add archive p.pref_ids p;
      (p, v)
    in
    (* Seed the population with the empty set and the singletons (the
       extremes of the cost axis and the building blocks of the doi
       axis), then fill with random genomes. *)
    let genome i =
      if i = 0 then Array.make k false
      else if i <= k then Array.init k (fun j -> j = i - 1)
      else Array.init k (fun _ -> Rng.bool rng)
    in
    let pop = ref (Array.init population genome) in
    let scored = ref (Array.map eval !pop) in
    let evals = ref population in
    let rank_and_crowd arr =
      let n = Array.length arr in
      let fronts =
        sort_by (fun i j -> constrained_dominates arr.(i) arr.(j)) n
      in
      let rank = Array.make n 0 in
      let crowd = Array.make n 0. in
      let pts = Array.map fst arr in
      List.iteri
        (fun r front ->
          let fa = Array.of_list front in
          let d = crowding_of pts fa in
          Array.iteri
            (fun i idx ->
              rank.(idx) <- r;
              crowd.(idx) <- d.(i))
            fa)
        fronts;
      (rank, crowd)
    in
    while !evals + population <= evaluations do
      let parents = !pop and parent_scores = !scored in
      let rank, crowd = rank_and_crowd parent_scores in
      let fits =
        Array.init (Array.length parents) (fun i ->
            scalar_fitness rank.(i) crowd.(i))
      in
      let children =
        Array.init population (fun _ ->
            let a = Metaheuristics.Ga.tournament ~rng fits in
            let b = Metaheuristics.Ga.tournament ~rng fits in
            let child =
              Metaheuristics.Ga.one_point ~rng parents.(a) parents.(b)
            in
            Metaheuristics.Ga.point_mutate ~rng ~rate:mutation_rate
              (fun _ bit -> not bit)
              child;
            child)
      in
      let child_scores = Array.map eval children in
      evals := !evals + population;
      (* Elitist (mu + lambda) environmental selection: re-rank the
         combined pool, keep the best [population] by (rank, crowding,
         index) — index last makes the cut deterministic. *)
      let combined = Array.append parents children in
      let combined_scores = Array.append parent_scores child_scores in
      let rank, crowd = rank_and_crowd combined_scores in
      let order = Array.init (Array.length combined) Fun.id in
      Array.sort
        (fun a b ->
          match Stdlib.compare rank.(a) rank.(b) with
          | 0 -> (
              match Stdlib.compare crowd.(b) crowd.(a) with
              | 0 -> Stdlib.compare a b
              | c -> c)
          | c -> c)
        order;
      pop := Array.init population (fun i -> combined.(order.(i)));
      scored := Array.init population (fun i -> combined_scores.(order.(i)))
    done;
    non_dominated (Hashtbl.fold (fun _ p acc -> p :: acc) archive [])
  end

let front ?constraints ?(exact_max_k = Exhaustive.max_k) space =
  if Space.k space <= min exact_max_k Exhaustive.max_k then
    exact_front ?constraints space
  else evolve ?constraints space

(* --- serving form ------------------------------------------------------ *)

type serving = {
  points : point array;
  best_doi : int array;
}

let serving_of_front front =
  let points = Array.of_list (List.sort compare_points front) in
  let n = Array.length points in
  let best_doi = Array.make n 0 in
  for i = 1 to n - 1 do
    best_doi.(i) <-
      (if
         points.(i).params.Params.doi
         > points.(best_doi.(i - 1)).params.Params.doi
       then i
       else best_doi.(i - 1))
  done;
  { points; best_doi }

let points_held s = Array.length s.points
let point s i = s.points.(i)

let pick s ~budget_ms =
  let n = Array.length s.points in
  if n = 0 || not (s.points.(0).params.Params.cost <= budget_ms) then None
  else begin
    (* Largest index whose cost fits the budget (points are sorted by
       cost ascending), then the best-doi point within that prefix. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if s.points.(mid).params.Params.cost <= budget_ms then lo := mid
      else hi := mid - 1
    done;
    let i = s.best_doi.(!lo) in
    Some (i, s.points.(i))
  end

let knee s =
  match Pareto.knee (Array.to_list s.points) with
  | None -> None
  | Some p ->
      let best = ref None in
      Array.iteri
        (fun i q -> if !best = None && compare_points q p = 0 then best := Some i)
        s.points;
      Option.map (fun i -> (i, s.points.(i))) !best

module Budget = Cqp_resilience.Budget

(* Preference ids in increasing item cost, ties by id. *)
let by_cost space =
  List.init (Space.k space) Fun.id
  |> List.sort (fun a b ->
         Stdlib.compare
           (Space.item space a).Pref_space.cost
           (Space.item space b).Pref_space.cost)
  |> Array.of_list

(* Cost over cmax or size under smin: both only worsen as preferences
   are added, so no superset of such a set is feasible. *)
let hopeless (constraints : Params.constraints) (p : Params.t) =
  Params.violates_cost constraints p
  ||
  match constraints.Params.smin with
  | Some smin -> p.Params.size < smin
  | None -> false

(* The one greedy walk: add [order]'s ids to the empty set, one at a
   time, until the constraints hold.  [Ok ids] then; [Error ids], the
   ids added so far, when the order or the budget runs out first. *)
let add_until_feasible ?(budget = Budget.unlimited) space constraints order =
  let rec go i ids n p =
    if Params.satisfies constraints p then Ok ids
    else if i >= Array.length order || Budget.poll budget then Error ids
    else begin
      let id = order.(i) in
      go (i + 1) (id :: ids) (n + 1) (Space.params_with_id space ~n p id)
    end
  in
  go 0 [] 0 (Space.params_of_ids space [])

(* A branch-and-bound's answer, as [Algorithm.run] finishes a search:
   the wall time since [start] stamped on the space's instrument (and
   so on the answer's snapshot), then its counters published. *)
let finish_bnb space ~start best =
  let stats = Space.stats space in
  stats.Instrument.wall_seconds <- (Cqp_obs.Clock.raw_us () -. start) /. 1e6;
  let result = Option.map (Solution.of_ids space) best in
  Instrument.publish stats;
  result

(* Branch-and-bound for the cost-minimization problems (4, 5, 6).

   Preferences are considered in increasing cost order; the search adds
   or skips each in turn.  Pruning:
   - bound: current cost already >= best known feasible cost;
   - doi infeasibility: even combining every remaining preference
     cannot reach dmin;
   - size infeasibility: the current size is already below smin (sizes
     only shrink as preferences are added). *)
let min_cost_bnb ?(budget = Budget.unlimited) space
    (constraints : Params.constraints) =
  Cqp_obs.Trace.with_span ~name:"solver.min_cost_bnb"
    ~attrs:(fun () -> [ Cqp_obs.Attr.int "k" (Space.k space) ])
  @@ fun () ->
  let start = Cqp_obs.Clock.raw_us () in
  let k = Space.k space in
  let stats = Space.stats space in
  let by_cost = by_cost space in
  let item id = Space.item space id in
  (* suffix_doi_bound.(i): noisy-or doi of items by_cost.(i..) — an upper
     bound on what the remaining choices can still contribute. *)
  let ps = Space.pref_space space in
  let suffix_doi_bound = Array.make (k + 1) 0. in
  for i = k - 1 downto 0 do
    suffix_doi_bound.(i) <-
      Estimate.combine_doi_incr ps.Pref_space.estimate
        suffix_doi_bound.(i + 1)
        (item by_cost.(i)).Pref_space.doi
  done;
  let best = ref None in
  let best_cost = ref infinity in
  let feasible p = Params.satisfies constraints p in
  (* A node budget bounds the worst case (deep dmin targets): past it —
     or past the wall-clock deadline — the search stops expanding and
     the greedy completion below covers feasibility.

     Note on costs: each item's cost already includes scanning Q's
     relations (it prices one whole sub-query, Formula 6), so the
     accumulated cost of a non-empty set is simply the sum of item
     costs; only the empty set is priced as Q itself (base cost). *)
  let nodes = ref 2_000_000 in
  let rec go i chosen n (params : Params.t) =
    Instrument.visit stats;
    decr nodes;
    if params.Params.cost < !best_cost then begin
      if feasible params then begin
        best := Some (List.rev chosen);
        best_cost := params.Params.cost
      end;
      (* Once feasible, deeper nodes only add cost: stop this branch.
         (doi grows and size shrinks with additions, but both are
         already within bounds and cost strictly increases.) *)
      if
        i < k
        && (not (feasible params))
        && !nodes > 0
        && not (Budget.poll budget)
      then begin
        let remaining_possible =
          (* Could the constraints still be met further down? *)
          (match constraints.Params.dmin with
          | Some dmin ->
              Estimate.combine_doi_incr ps.Pref_space.estimate
                params.Params.doi suffix_doi_bound.(i)
              >= dmin
          | None -> true)
          &&
          match constraints.Params.smin with
          | Some smin -> params.Params.size >= smin
          | None -> true
        in
        if remaining_possible then begin
          let id = by_cost.(i) in
          let with_params = Space.params_with_id space ~n params id in
          (* Branch skipping the item first (cheaper stays cheaper). *)
          go (i + 1) chosen n params;
          go (i + 1) (id :: chosen) (n + 1) with_params
        end
      end
    end
  in
  go 0 [] 0 (Space.params_of_ids space []);
  if !nodes <= 0 then Cqp_obs.Metrics.incr "solver.budget_exhausted";
  (if !best = None && (!nodes <= 0 || Budget.expired budget) then
     (* Budget (nodes or deadline) ran out before any feasible node:
        greedy completion.  Cheapest-first minimizes cost but may never
        reach a deep dmin target within k additions, so a
        decreasing-doi pass (preference ids are the D order) is tried
        before giving up. *)
     let walk order =
       Result.to_option (add_until_feasible space constraints order)
     in
     best :=
       match walk by_cost with
       | Some _ as ids -> ids
       | None -> walk (Array.init k Fun.id));
  finish_bnb space ~start !best

(* Branch-and-bound for the doi-maximization problems with size
   intervals (1, 3).  Items are taken in decreasing doi order (the D
   order: identity on preference ids); pruning:
   - optimistic bound: current doi noisy-or'ed with every remaining doi
     cannot beat the best feasible doi found;
   - monotone infeasibility: cost above cmax or size below smin only
     worsen as preferences are added;
   - size above smax is repaired by adding, so it never prunes. *)
let max_doi_bnb ?(budget = Budget.unlimited) space
    (constraints : Params.constraints) =
  Cqp_obs.Trace.with_span ~name:"solver.max_doi_bnb"
    ~attrs:(fun () -> [ Cqp_obs.Attr.int "k" (Space.k space) ])
  @@ fun () ->
  let start = Cqp_obs.Clock.raw_us () in
  let k = Space.k space in
  let stats = Space.stats space in
  let ps = Space.pref_space space in
  let item id = Space.item space id in
  let suffix_doi = Array.make (k + 1) 0. in
  for i = k - 1 downto 0 do
    suffix_doi.(i) <-
      Estimate.combine_doi_incr ps.Pref_space.estimate suffix_doi.(i + 1)
        (item i).Pref_space.doi
  done;
  let best = ref None in
  let best_doi = ref neg_infinity in
  let best_cost = ref infinity in
  let feasible p = Params.satisfies constraints p in
  let nodes = ref 2_000_000 in
  let record ids (params : Params.t) =
    if
      params.Params.doi > !best_doi +. 1e-15
      || (params.Params.doi >= !best_doi -. 1e-15
         && params.Params.cost < !best_cost)
      || !best = None
    then begin
      best := Some ids;
      best_doi := params.Params.doi;
      best_cost := params.Params.cost
    end
  in
  let rec go i chosen n (params : Params.t) =
    Instrument.visit stats;
    decr nodes;
    if feasible params then record (List.rev chosen) params;
    if i < k && !nodes > 0 && not (Budget.poll budget) then begin
      let optimistic =
        Estimate.combine_doi_incr ps.Pref_space.estimate params.Params.doi
          suffix_doi.(i)
      in
      let still_viable =
        optimistic > !best_doi +. 1e-15
        || (!best = None && optimistic >= !best_doi)
      in
      if still_viable && not (hopeless constraints params) then begin
        (* As in min_cost_bnb: item costs each price a full sub-query,
           so a non-empty set costs the plain sum; the empty set is Q
           itself — [params_with_id] handles both through [n]. *)
        let with_params = Space.params_with_id space ~n params i in
        (* Include-first: high-doi sets are reached early, making the
           optimistic bound effective. *)
        go (i + 1) (i :: chosen) (n + 1) with_params;
        go (i + 1) chosen n params
      end
    end
  in
  go 0 [] 0 (Space.params_of_ids space []);
  if !nodes <= 0 then Cqp_obs.Metrics.incr "solver.budget_exhausted";
  finish_bnb space ~start !best

(* Greedy repair towards a size interval: add the preference that costs
   least while [size > smax] (more conjuncts shrink the answer), drop
   the lowest-doi one while [size < smin].  Candidates are sorted once
   up front and membership is a bit per id, so a repair is
   O(k log k + k·|ids|) instead of re-filtering, re-sorting and
   [List.mem]-scanning the candidate list on every iteration. *)
let repair_size space (constraints : Params.constraints) ids =
  let params ids = Space.params_of_ids space ids in
  let member = Array.make (Space.k space) false in
  List.iter (fun id -> member.(id) <- true) ids;
  let by_cost = by_cost space in
  let rec grow ids =
    let p = params ids in
    match constraints.Params.smax with
    | Some smax when p.Params.size > smax -> (
        let viable =
          Array.find_opt
            (fun id ->
              (not member.(id))
              && not (hopeless constraints (params (id :: ids))))
            by_cost
        in
        match viable with
        | Some id ->
            member.(id) <- true;
            grow (id :: ids)
        | None -> ids)
    | _ -> ids
  in
  (* Dropping the lowest-doi member never changes the relative order of
     the rest: sort once by increasing doi and shed from the head. *)
  let rec shed ids =
    let p = params ids in
    match constraints.Params.smin with
    | Some smin when p.Params.size < smin -> (
        match ids with _lowest :: rest -> shed rest | [] -> ids)
    | _ -> ids
  in
  shed
    (List.sort
       (fun a b ->
         Stdlib.compare
           (Space.item space a).Pref_space.doi
           (Space.item space b).Pref_space.doi)
       (grow ids))

(* --- the Section-6 reduction ------------------------------------------- *)

(* The four searches a Table-1 problem maps to. *)
type search =
  | Doi_under_cost of Pref_space.t * float
      (* maximize doi under a cost bound, on the given space: Problem 2
         on its own, Problem 1 without smax on [Pref_space.log_size]
         with the bound log (size(Q) / smin) *)
  | Unreachable  (* Problem 1 whose base size is below smin *)
  | Interval of float
      (* [max_doi_bnb] on the constraints (Problems 1 and 3); the float
         caps the cost of the heuristic probes: cmax, or infinity *)
  | Min_cost  (* [min_cost_bnb] (Problems 4-6) *)

(* [Problem.make] gives Problems 2 and 3 a cmax and Problem 1 a size
   bound, so every problem reduces. *)
let reduce ps (problem : Problem.t) =
  let c = problem.Problem.constraints in
  match (problem.Problem.number, c.Params.smin, c.Params.smax) with
  | 2, _, _ -> Doi_under_cost (ps, Option.get c.Params.cmax)
  | 1, Some smin, None ->
      let base = Estimate.base_size ps.Pref_space.estimate in
      if base < smin then Unreachable
      else
        (* A floor at or below 0 keeps every set: no bound, not a NaN. *)
        let bound = if smin <= 0. then infinity else log (base /. smin) in
        Doi_under_cost (Pref_space.log_size ps, bound)
  | (1 | 3), _, _ ->
      Interval (Option.value c.Params.cmax ~default:infinity)
  | _ -> Min_cost

(* The one finishing step: run [search] on a space of the original
   preferences of its own (spaces carry single-writer instrumentation,
   so racing portfolio members must not share one), re-evaluate its
   answer there, repair the size when the constraints do not hold, and
   keep the search's stats. *)
let finished ps (problem : Problem.t) search =
  let constraints = problem.Problem.constraints in
  let space = Space.create ~order:Space.By_doi ps in
  Option.bind (search space) (fun (sol : Solution.t) ->
      let feasible ids =
        let s = Solution.of_ids space ids in
        if Params.satisfies constraints s.Solution.params then
          Some { s with Solution.stats = sol.Solution.stats }
        else None
      in
      match feasible sol.Solution.pref_ids with
      | Some _ as s -> s
      | None -> feasible (repair_size space constraints sol.Solution.pref_ids))

let doi_search ~budget algorithm ps ~cmax _space =
  Some (Algorithm.run ~budget algorithm ps ~cmax)

let solve ?(algorithm = Algorithm.C_boundaries) ?(budget = Budget.unlimited)
    ps (problem : Problem.t) =
  Cqp_obs.Trace.with_span ~name:"solver.solve"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.int "problem" problem.Problem.number;
        Cqp_obs.Attr.str "algorithm" (Algorithm.name algorithm);
        Cqp_obs.Attr.int "k" (Pref_space.k ps);
      ])
  @@ fun () ->
  let constraints = problem.Problem.constraints in
  match reduce ps problem with
  | Doi_under_cost (ps', cmax) ->
      finished ps problem (doi_search ~budget algorithm ps' ~cmax)
  | Unreachable -> None
  | Interval _ ->
      finished ps problem (fun space -> max_doi_bnb ~budget space constraints)
  | Min_cost ->
      finished ps problem (fun space -> min_cost_bnb ~budget space constraints)

(* --- degraded rungs --------------------------------------------------- *)

(* One cheap heuristic instead of the configured algorithm: the serve
   path's first degradation rung.  D-SINGLEMAXDOI is the cheapest
   Section-5 algorithm that still explores alternatives; the
   cost-minimization problems take the cheapest-first walk (the same
   completion min_cost_bnb falls back to). *)
let solve_heuristic ?(budget = Budget.unlimited) ps (problem : Problem.t) =
  let constraints = problem.Problem.constraints in
  let single ps' ~cmax = doi_search ~budget Algorithm.D_singlemaxdoi ps' ~cmax in
  match reduce ps problem with
  | Doi_under_cost (ps', cmax) -> finished ps problem (single ps' ~cmax)
  | Unreachable -> None
  | Interval cap -> finished ps problem (single ps ~cmax:cap)
  | Min_cost ->
      finished ps problem (fun space ->
          add_until_feasible ~budget space constraints (by_cost space)
          |> Result.to_option
          |> Option.map (Solution.of_ids space))

(* The last personalized rung: one doi-ordered pass, no search at all.
   Maximization problems take every preference that keeps the state
   feasible-so-far; minimization problems add until the constraints are
   met.  The finishing size repair runs on the result, so a feasible
   answer is still guaranteed whenever one greedy pass can reach one. *)
let solve_greedy ?(budget = Budget.unlimited) ps (problem : Problem.t) =
  let constraints = problem.Problem.constraints in
  finished ps problem @@ fun space ->
  let k = Space.k space in
  let ids =
    match problem.Problem.objective with
    | Problem.Maximize_doi ->
        let rec take id ids n p =
          if id >= k || Budget.poll budget then ids
          else begin
            let p' = Space.params_with_id space ~n p id in
            if hopeless constraints p' then take (id + 1) ids n p
            else take (id + 1) (id :: ids) (n + 1) p'
          end
        in
        take 0 [] 0 (Space.params_of_ids space [])
    | Problem.Minimize_cost -> (
        match
          add_until_feasible ~budget space constraints (Array.init k Fun.id)
        with
        | Ok ids | Error ids -> ids)
  in
  Some (Solution.of_ids space ids)

(* --- portfolio ------------------------------------------------------- *)

(* Deterministic order on preference-id sets, used to break objective
   ties so the merged winner never depends on which pool domain
   finished first: smaller state bitmask wins while ids fit in one
   (k <= State.max_mask_bits), lexicographic ascending-sorted ids
   otherwise. *)
let ids_precede k a b =
  if k <= State.max_mask_bits then
    let mask ids = List.fold_left (fun m id -> m lor (1 lsl id)) 0 ids in
    mask a < mask b
  else
    Stdlib.compare
      (List.sort Stdlib.compare a)
      (List.sort Stdlib.compare b)
    < 0

(* Left fold over candidates in member order: strictly better objective
   replaces, an exact tie replaces only when the id set precedes.  Both
   inputs and fold order are index-determined, so the result is
   independent of scheduling. *)
let merge_candidates problem k candidates =
  Array.fold_left
    (fun acc (label, sol) ->
      match (sol, acc) with
      | None, _ -> acc
      | Some s, None -> Some (label, s)
      | Some (s : Solution.t), Some (_, (b : Solution.t)) ->
          let v = Problem.objective_value problem s.Solution.params in
          let bv = Problem.objective_value problem b.Solution.params in
          if
            Problem.better problem v bv
            || (not (Problem.better problem bv v))
               && ids_precede k s.Solution.pref_ids b.Solution.pref_ids
          then Some (label, s)
          else acc)
    None candidates

let run_members ?pool members =
  let jobs =
    Array.map (fun (label, run) () -> (label, run ())) (Array.of_list members)
  in
  match pool with
  | Some pool -> Cqp_par.Pool.map pool (fun job -> job ()) jobs
  | None -> Array.map (fun job -> job ()) jobs

let portfolio ?pool ?(budget = Budget.unlimited) ps (problem : Problem.t) =
  Cqp_obs.Trace.with_span ~name:"solver.portfolio"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.int "problem" problem.Problem.number;
        Cqp_obs.Attr.int "k" (Pref_space.k ps);
      ])
  @@ fun () ->
  let constraints = problem.Problem.constraints in
  let rng = Cqp_util.Rng.create 0x5EED in
  let member label search = (label, fun () -> finished ps problem search) in
  (* The metaheuristic probes solve the doi-under-cost shape; on an
     interval they run under its cap and rely on [finish]'s repair to
     pull the answer into the interval. *)
  let probes ps' ~cmax =
    [
      member "SA" (fun _ ->
          let rng = Cqp_util.Rng.split rng 0 in
          let space = Space.create ~order:Space.By_doi ps' in
          Some
            (Metaheuristics.simulated_annealing ~deadline:budget ~rng space
               ~cmax));
      member "Tabu" (fun _ ->
          let rng = Cqp_util.Rng.split rng 1 in
          let space = Space.create ~order:Space.By_doi ps' in
          Some (Metaheuristics.tabu ~deadline:budget ~rng space ~cmax));
    ]
  in
  let members =
    match reduce ps problem with
    | Doi_under_cost (ps', cmax) ->
        List.map
          (fun a -> member (Algorithm.name a) (doi_search ~budget a ps' ~cmax))
          Algorithm.all
        @ probes ps' ~cmax
    | Unreachable -> []
    | Interval cap ->
        member "Max_doi_bnb" (fun space -> max_doi_bnb ~budget space constraints)
        :: probes ps ~cmax:cap
    | Min_cost ->
        [
          member "Min_cost_bnb" (fun space ->
              min_cost_bnb ~budget space constraints);
        ]
  in
  Cqp_obs.Metrics.incr "solver.portfolio.races";
  Cqp_obs.Metrics.add "solver.portfolio.members" (List.length members);
  let candidates = run_members ?pool members in
  match merge_candidates problem (Pref_space.k ps) candidates with
  | None -> None
  | Some (label, sol) ->
      Cqp_obs.Metrics.incr ("solver.portfolio.win." ^ label);
      Some sol

(* Branch-and-bound for the cost-minimization problems (4, 5, 6).

   Preferences are considered in increasing cost order; the search adds
   or skips each in turn.  Pruning:
   - bound: current cost already >= best known feasible cost;
   - doi infeasibility: even combining every remaining preference
     cannot reach dmin;
   - size infeasibility: the current size is already below smin (sizes
     only shrink as preferences are added). *)
module Budget = Cqp_resilience.Budget

let min_cost_bnb ?(budget = Budget.unlimited) space
    (constraints : Params.constraints) =
  Cqp_obs.Trace.with_span ~name:"solver.min_cost_bnb"
    ~attrs:(fun () -> [ Cqp_obs.Attr.int "k" (Space.k space) ])
  @@ fun () ->
  let k = Space.k space in
  let stats = Space.stats space in
  let by_cost =
    List.init k (fun id -> id)
    |> List.sort
         (fun a b ->
           Stdlib.compare
             (Space.item space a).Pref_space.cost
             (Space.item space b).Pref_space.cost)
    |> Array.of_list
  in
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
  (if !best = None && (!nodes <= 0 || Budget.expired budget) then begin
     (* Budget (nodes or deadline) ran out before any feasible node:
        greedy completion.  Cheapest-first minimizes cost but may never
        reach a deep dmin target within k additions, so a
        decreasing-doi pass (preference ids are the D order) is tried
        before giving up. *)
     let try_order order =
       let rec greedy i acc n p =
         if i >= Array.length order then None
         else begin
           let id = order.(i) in
           let p = Space.params_with_id space ~n p id in
           let acc = id :: acc in
           if feasible p then Some acc else greedy (i + 1) acc (n + 1) p
         end
       in
       greedy 0 [] 0 (Space.params_of_ids space [])
     in
     let by_doi = Array.init k (fun id -> id) in
     match try_order by_cost with
     | Some ids -> best := Some ids
     | None -> (
         match try_order by_doi with
         | Some ids -> best := Some ids
         | None -> ())
   end);
  let result = Option.map (Solution.of_ids space) !best in
  Instrument.publish stats;
  result

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
      let monotone_ok =
        (match constraints.Params.cmax with
        | Some cmax -> params.Params.cost <= cmax
        | None -> true)
        &&
        match constraints.Params.smin with
        | Some smin -> params.Params.size >= smin
        | None -> true
      in
      if still_viable && monotone_ok then begin
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
  let result = Option.map (Solution.of_ids space) !best in
  Instrument.publish stats;
  result

(* Greedy repair towards a size interval: add the preference that costs
   least while [size > smax] (more conjuncts shrink the answer), drop
   the lowest-doi one while [size < smin].  Candidates are sorted once
   up front and membership is a bit per id, so a repair is
   O(k log k + k·|ids|) instead of re-filtering, re-sorting and
   [List.mem]-scanning the candidate list on every iteration. *)
let repair_size space (constraints : Params.constraints) ids =
  let k = Space.k space in
  let params ids = Space.params_of_ids space ids in
  let member = Array.make k false in
  List.iter (fun id -> member.(id) <- true) ids;
  let by_cost =
    List.init k Fun.id
    |> List.sort (fun a b ->
           Stdlib.compare
             (Space.item space a).Pref_space.cost
             (Space.item space b).Pref_space.cost)
  in
  let rec grow ids =
    let p = params ids in
    match constraints.Params.smax with
    | Some smax when p.Params.size > smax -> (
        let viable =
          List.find_opt
            (fun id ->
              (not member.(id))
              &&
              let p' = params (id :: ids) in
              (not (Params.violates_cost constraints p'))
              && not
                   (match constraints.Params.smin with
                   | Some smin -> p'.Params.size < smin
                   | None -> false))
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

(* A Problem-2-shaped view of a size-constrained problem: per-item cost
   becomes -log frac so that "size >= smin" is "Σ cost' <= cmax'". *)
let log_size_space ps =
  let open Pref_space in
  let base = Estimate.base_size ps.estimate in
  let items =
    Array.map
      (fun it ->
        let frac = if base > 0. then it.size /. base else 0. in
        let cost = if frac <= 0. then 1e9 else -.log frac in
        { it with cost })
      ps.items
  in
  let c = Array.init (Array.length items) (fun i -> i) in
  Array.sort
    (fun i j ->
      match Stdlib.compare items.(j).cost items.(i).cost with
      | 0 -> Stdlib.compare i j
      | cmp -> cmp)
    c;
  { ps with items; c }

let log_size_pref_space = log_size_space

let run_doi_max ?budget algorithm ps ~cmax =
  Algorithm.run ?budget algorithm ps ~cmax

(* Accept a solution as-is when feasible, otherwise try repairing the
   size interval and re-check. *)
let check_feasible constraints space (sol : Solution.t) =
  if Params.satisfies constraints sol.Solution.params then Some sol
  else begin
    let ids = repair_size space constraints sol.Solution.pref_ids in
    let sol' = Solution.of_ids space ids in
    if Params.satisfies constraints sol'.Solution.params then Some sol'
    else None
  end

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
  let check_feasible space sol = check_feasible constraints space sol in
  match problem.Problem.number with
  | 2 -> (
      match constraints.Params.cmax with
      | None -> invalid_arg "Solver.solve: Problem 2 requires cmax"
      | Some cmax ->
          let sol = run_doi_max ~budget algorithm ps ~cmax in
          let space = Space.create ~order:Space.By_doi ps in
          check_feasible space sol)
  | 1 when constraints.Params.smax = None -> (
      (* Pure lower size bound: the exact log-space reduction lets the
         chosen Section-5 algorithm do the work. *)
      match constraints.Params.smin with
      | None -> invalid_arg "Solver.solve: Problem 1 requires smin"
      | Some smin ->
          let base = Estimate.base_size ps.Pref_space.estimate in
          if base < smin then None
          else begin
            let cmax' = log (base /. smin) in
            let ps' = log_size_space ps in
            let sol = run_doi_max ~budget algorithm ps' ~cmax:cmax' in
            let space = Space.create ~order:Space.By_doi ps in
            check_feasible space
              (Solution.of_ids space sol.Solution.pref_ids)
          end)
  | 1 | 3 ->
      if problem.Problem.number = 3 && constraints.Params.cmax = None then
        invalid_arg "Solver.solve: Problem 3 requires cmax";
      let space = Space.create ~order:Space.By_doi ps in
      max_doi_bnb ~budget space constraints
  | 4 | 5 | 6 ->
      let space = Space.create ~order:Space.By_doi ps in
      min_cost_bnb ~budget space constraints
  | n -> invalid_arg (Printf.sprintf "Solver.solve: unknown problem %d" n)

(* --- degraded rungs --------------------------------------------------- *)

(* One cheap heuristic instead of the configured algorithm: the serve
   path's first degradation rung.  D-SINGLEMAXDOI is the cheapest
   Section-5 algorithm that still explores alternatives, and the
   log-size reduction keeps it applicable to Problem 1 without smax;
   the cost-minimization problems get a cheapest-first greedy (the same
   completion min_cost_bnb falls back to). *)
let cheapest_first_greedy ~budget space (constraints : Params.constraints) =
  let k = Space.k space in
  let by_cost =
    List.init k Fun.id
    |> List.sort (fun a b ->
           Stdlib.compare
             (Space.item space a).Pref_space.cost
             (Space.item space b).Pref_space.cost)
    |> Array.of_list
  in
  let rec grow i ids n p =
    if Params.satisfies constraints p then Some ids
    else if i >= k || Budget.poll budget then None
    else begin
      let id = by_cost.(i) in
      grow (i + 1) (id :: ids) (n + 1) (Space.params_with_id space ~n p id)
    end
  in
  match grow 0 [] 0 (Space.params_of_ids space []) with
  | Some ids -> Some (Solution.of_ids space ids)
  | None -> None

let solve_heuristic ?(budget = Budget.unlimited) ps (problem : Problem.t) =
  let constraints = problem.Problem.constraints in
  let finish sol =
    let space = Space.create ~order:Space.By_doi ps in
    check_feasible constraints space
      (Solution.of_ids space sol.Solution.pref_ids)
  in
  match problem.Problem.number with
  | 1 when constraints.Params.smax = None -> (
      match constraints.Params.smin with
      | None -> invalid_arg "Solver.solve_heuristic: Problem 1 requires smin"
      | Some smin ->
          let base = Estimate.base_size ps.Pref_space.estimate in
          if base < smin then None
          else
            finish
              (run_doi_max ~budget Algorithm.D_singlemaxdoi
                 (log_size_space ps)
                 ~cmax:(log (base /. smin))))
  | 1 | 2 | 3 ->
      if problem.Problem.number = 2 && constraints.Params.cmax = None then
        invalid_arg "Solver.solve_heuristic: Problem 2 requires cmax";
      let cmax =
        match constraints.Params.cmax with Some c -> c | None -> infinity
      in
      finish (run_doi_max ~budget Algorithm.D_singlemaxdoi ps ~cmax)
  | 4 | 5 | 6 ->
      let space = Space.create ~order:Space.By_doi ps in
      cheapest_first_greedy ~budget space constraints
  | n ->
      invalid_arg (Printf.sprintf "Solver.solve_heuristic: unknown problem %d" n)

(* The last personalized rung: one doi-ordered pass, no search at all.
   Maximization problems take every preference that keeps the state
   feasible-so-far; minimization problems add until the constraints are
   met.  [check_feasible]'s size repair runs on the result, so a
   feasible answer is still guaranteed whenever one greedy pass can
   reach one. *)
let solve_greedy ?(budget = Budget.unlimited) ps (problem : Problem.t) =
  let constraints = problem.Problem.constraints in
  let space = Space.create ~order:Space.By_doi ps in
  let k = Space.k space in
  let maximize = problem.Problem.number <= 3 in
  let violates (p : Params.t) =
    Params.violates_cost constraints p
    ||
    match constraints.Params.smin with
    | Some smin -> p.Params.size < smin
    | None -> false
  in
  let rec go id ids n p =
    if id >= k || Budget.poll budget then ids
    else if (not maximize) && Params.satisfies constraints p then ids
    else begin
      let p' = Space.params_with_id space ~n p id in
      if maximize && violates p' then go (id + 1) ids n p
      else go (id + 1) (id :: ids) (n + 1) p'
    end
  in
  let ids = go 0 [] 0 (Space.params_of_ids space []) in
  check_feasible constraints space (Solution.of_ids space ids)

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

(* The metaheuristic probes solve the Problem-2 shape (doi under a cost
   cap); the size-interval problems run them with the cap (or none) and
   rely on [check_feasible]'s repair to pull the answer into the
   interval. *)
let probe_members ~budget ~rng ~label_suffix ps ~cmax ~finish =
  let probe name f = (name ^ label_suffix, f) in
  [
    probe "SA" (fun () ->
        let rng = Cqp_util.Rng.split rng 0 in
        let space = Space.create ~order:Space.By_doi ps in
        finish
          (Metaheuristics.simulated_annealing ~deadline:budget ~rng space
             ~cmax));
    probe "Tabu" (fun () ->
        let rng = Cqp_util.Rng.split rng 1 in
        let space = Space.create ~order:Space.By_doi ps in
        finish (Metaheuristics.tabu ~deadline:budget ~rng space ~cmax));
  ]

let portfolio ?pool ?(budget = Budget.unlimited) ps (problem : Problem.t) =
  Cqp_obs.Trace.with_span ~name:"solver.portfolio"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.int "problem" problem.Problem.number;
        Cqp_obs.Attr.int "k" (Pref_space.k ps);
      ])
  @@ fun () ->
  let constraints = problem.Problem.constraints in
  let k = Pref_space.k ps in
  let rng = Cqp_util.Rng.create 0x5EED in
  let finish_on base_ps sol =
    (* Evaluate (and if needed repair) the candidate on a space of its
       own: spaces carry single-writer instrumentation, so racing
       members must not share one. *)
    let space = Space.create ~order:Space.By_doi base_ps in
    check_feasible constraints space
      (Solution.of_ids space sol.Solution.pref_ids)
  in
  let members =
    match problem.Problem.number with
    | 2 -> (
        match constraints.Params.cmax with
        | None -> invalid_arg "Solver.portfolio: Problem 2 requires cmax"
        | Some cmax ->
            List.map
              (fun a ->
                ( Algorithm.name a,
                  fun () -> finish_on ps (run_doi_max ~budget a ps ~cmax) ))
              Algorithm.all
            @ probe_members ~budget ~rng ~label_suffix:"" ps ~cmax
                ~finish:(finish_on ps))
    | 1 when constraints.Params.smax = None -> (
        match constraints.Params.smin with
        | None -> invalid_arg "Solver.portfolio: Problem 1 requires smin"
        | Some smin ->
            let base = Estimate.base_size ps.Pref_space.estimate in
            if base < smin then []
            else begin
              let cmax' = log (base /. smin) in
              let ps' = log_size_space ps in
              List.map
                (fun a ->
                  ( Algorithm.name a,
                    fun () ->
                      finish_on ps (run_doi_max ~budget a ps' ~cmax:cmax') ))
                Algorithm.all
              @ probe_members ~budget ~rng ~label_suffix:"(log)" ps'
                  ~cmax:cmax' ~finish:(finish_on ps)
            end)
    | 1 | 3 ->
        if problem.Problem.number = 3 && constraints.Params.cmax = None then
          invalid_arg "Solver.portfolio: Problem 3 requires cmax";
        let cmax =
          match constraints.Params.cmax with
          | Some cmax -> cmax
          | None -> infinity
        in
        ( "Max_doi_bnb",
          fun () ->
            max_doi_bnb ~budget
              (Space.create ~order:Space.By_doi ps)
              constraints )
        :: probe_members ~budget ~rng ~label_suffix:"" ps ~cmax
             ~finish:(finish_on ps)
    | 4 | 5 | 6 ->
        [
          ( "Min_cost_bnb",
            fun () ->
              min_cost_bnb ~budget
                (Space.create ~order:Space.By_doi ps)
                constraints );
        ]
    | n ->
        invalid_arg (Printf.sprintf "Solver.portfolio: unknown problem %d" n)
  in
  Cqp_obs.Metrics.incr "solver.portfolio.races";
  Cqp_obs.Metrics.add "solver.portfolio.members" (List.length members);
  let candidates = run_members ?pool members in
  match merge_candidates problem k candidates with
  | None -> None
  | Some (label, sol) ->
      Cqp_obs.Metrics.incr ("solver.portfolio.win." ^ label);
      Some sol

(* --- parallel exhaustive oracle -------------------------------------- *)

(* All 2^K subsets, partitioned by the membership pattern of the low
   [b] preference ids.  The partition scheme is fixed (never derived
   from the pool size), each shard's enumeration threads parameters in
   ascending id order exactly like [Exhaustive.iter_subsets], and both
   the shard-local best and the final merge use the same
   objective-then-[ids_precede] rule — so the oracle's answer is a
   deterministic function of the problem alone, with any pool or none. *)
let parallel_oracle ?pool ps (problem : Problem.t) =
  let k = Pref_space.k ps in
  if k > Exhaustive.max_k then
    invalid_arg
      (Printf.sprintf "Solver.parallel_oracle: K = %d exceeds the %d-bit cap"
         k Exhaustive.max_k);
  let b = min k 4 in
  let better_entry (ids, v) = function
    | None -> true
    | Some (bids, bv) ->
        Problem.better problem v bv
        || ((not (Problem.better problem bv v)) && ids_precede k ids bids)
  in
  let shard pattern =
    let space = Space.create ~order:Space.By_doi ps in
    let stats = Space.stats space in
    let best = ref None in
    let consider ids p =
      Instrument.visit stats;
      if Params.satisfies problem.Problem.constraints p then begin
        let v = Problem.objective_value problem p in
        if better_entry (ids, v) !best then best := Some (ids, v)
      end
    in
    let rec go i ids n p =
      consider ids p;
      for j = i to k - 1 do
        go (j + 1) (j :: ids) (n + 1) (Space.params_with_id space ~n p j)
      done
    in
    let fixed =
      List.filter
        (fun id -> pattern land (1 lsl id) <> 0)
        (List.init b Fun.id)
    in
    go b (List.rev fixed) (List.length fixed) (Space.params_of_ids space fixed);
    !best
  in
  let jobs = Array.init (1 lsl b) (fun pattern () -> shard pattern) in
  let results =
    match pool with
    | Some pool -> Cqp_par.Pool.map pool (fun job -> job ()) jobs
    | None -> Array.map (fun job -> job ()) jobs
  in
  let best =
    Array.fold_left
      (fun acc -> function
        | Some entry when better_entry entry acc -> Some entry
        | _ -> acc)
      None results
  in
  Option.map
    (fun (ids, _) ->
      Solution.of_ids (Space.create ~order:Space.By_doi ps) ids)
    best

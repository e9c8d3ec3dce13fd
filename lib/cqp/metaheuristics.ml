module Rng = Cqp_util.Rng
module Deadline = Cqp_resilience.Budget

type budget = { evaluations : int }

let default_budget = { evaluations = 2000 }

(* States are boolean inclusion vectors over preference ids. *)
let ids_of_bits bits =
  let ids = ref [] in
  Array.iteri (fun i b -> if b then ids := i :: !ids) bits;
  List.rev !ids

(* Fitness: doi when the cost budget holds, else a large penalty scaled
   by the violation so the search is guided back to feasibility. *)
let fitness_of ~cmax (p : Params.t) =
  if p.Params.cost <= cmax then p.Params.doi
  else -.(p.Params.cost -. cmax) /. (cmax +. 1.)

let fitness space ~cmax bits =
  fitness_of ~cmax (Space.params_of_ids space (ids_of_bits bits))

(* The flip neighborhoods of SA and tabu change one preference at a
   time, so probes are priced with one O(1) extension or retraction of
   the current parameters; a retraction that is not invertible (an
   item at doi 1 or size fraction 0) falls back to a from-scratch
   fold.  [bits] must already reflect the flipped set. *)
let probe_params space ~n current_params bits flip =
  if bits.(flip) then Space.params_with_id space ~n current_params flip
  else
    match Space.params_without_id space ~n current_params flip with
    | Some p -> p
    | None -> Space.params_of_ids space (ids_of_bits bits)

let best_feasible space ~cmax candidates =
  let best = ref None and best_doi = ref 0. in
  List.iter
    (fun bits ->
      let ids = ids_of_bits bits in
      let p = Space.params_of_ids space ids in
      if
        p.Params.cost <= cmax
        && (p.Params.doi > !best_doi || !best = None)
      then begin
        best_doi := p.Params.doi;
        best := Some ids
      end)
    candidates;
  match !best with
  | Some ids -> Solution.of_ids space ids
  | None -> Solution.empty space

let random_bits rng k =
  Array.init k (fun _ -> Rng.bool rng)

(* Generic, representation-agnostic GA operators.  [genetic] below is
   built on them, and the adversarial workload curriculum
   (lib/curriculum) reuses them over its genome vectors — one seeded
   implementation of selection/crossover/mutation, not two.  Each
   operator draws a fixed number of values from [rng] (tournament: two
   ints; one_point: one int; point_mutate: one float per site, plus
   whatever the site mutator draws), so call sites control the stream
   layout exactly. *)
module Ga = struct
  let tournament ~rng fits =
    let n = Array.length fits in
    let a = Rng.int rng n and b = Rng.int rng n in
    if fits.(a) >= fits.(b) then a else b

  let one_point ~rng a b =
    let k = Array.length a in
    if Array.length b <> k then
      invalid_arg "Metaheuristics.Ga.one_point: parent length mismatch";
    let cut = Rng.int rng k in
    Array.init k (fun i -> if i < cut then a.(i) else b.(i))

  let point_mutate ~rng ~rate mutator genes =
    Array.iteri
      (fun i g -> if Rng.float rng 1.0 < rate then genes.(i) <- mutator rng g)
      genes
end

let simulated_annealing ?(budget = default_budget)
    ?(deadline = Deadline.unlimited) ~rng space ~cmax =
  let k = Space.k space in
  if k = 0 then Solution.empty space
  else begin
    let current = Array.make k false in
    (* Start from the empty set: always feasible wrt the cost bound. *)
    let cur_params = ref (Space.params_of_ids space []) in
    let n = ref 0 in
    let current_fit = ref (fitness_of ~cmax !cur_params) in
    let best = ref (Array.copy current) in
    let best_fit = ref !current_fit in
    let temperature = ref 1.0 in
    let accepts = ref 0 in
    let remaining = ref budget.evaluations in
    while !remaining > 0 && not (Deadline.poll deadline) do
      decr remaining;
      let flip = Rng.int rng k in
      current.(flip) <- not current.(flip);
      let p = probe_params space ~n:!n !cur_params current flip in
      let f = fitness_of ~cmax p in
      let accept =
        f >= !current_fit
        || Rng.float rng 1.0 < exp ((f -. !current_fit) /. max 1e-9 !temperature)
      in
      if accept then begin
        current_fit := f;
        cur_params := p;
        n := !n + (if current.(flip) then 1 else -1);
        incr accepts;
        (* Periodic re-anchoring bounds float drift from long chains of
           O(1) updates. *)
        if !accepts land 127 = 0 then
          cur_params := Space.params_of_ids space (ids_of_bits current);
        if f > !best_fit then begin
          best_fit := f;
          best := Array.copy current
        end
      end
      else current.(flip) <- not current.(flip);
      temperature := !temperature *. 0.995
    done;
    best_feasible space ~cmax [ !best ]
  end

let genetic ?(budget = default_budget) ?(deadline = Deadline.unlimited) ~rng
    space ~cmax =
  let population = 24 and mutation_rate = 0.05 in
  let k = Space.k space in
  if k = 0 then Solution.empty space
  else begin
    let pop =
      Array.init population (fun i ->
          if i = 0 then Array.make k false else random_bits rng k)
    in
    let fits = Array.map (fitness space ~cmax) pop in
    let evals = ref population in
    let tournament () = Ga.tournament ~rng fits in
    let crossover a b = Ga.one_point ~rng pop.(a) pop.(b) in
    let mutate child =
      Ga.point_mutate ~rng ~rate:mutation_rate (fun _ bit -> not bit) child
    in
    while !evals < budget.evaluations && not (Deadline.poll deadline) do
      let child = crossover (tournament ()) (tournament ()) in
      mutate child;
      let f = fitness space ~cmax child in
      incr evals;
      (* Replace the current worst. *)
      let worst = ref 0 in
      Array.iteri (fun i fi -> if fi < fits.(!worst) then worst := i) fits;
      if f > fits.(!worst) then begin
        pop.(!worst) <- child;
        fits.(!worst) <- f
      end
    done;
    best_feasible space ~cmax (Array.to_list pop)
  end

let tabu ?(budget = default_budget) ?(deadline = Deadline.unlimited) ~rng
    space ~cmax =
  let tenure = 8 in
  let k = Space.k space in
  if k = 0 then Solution.empty space
  else begin
    ignore rng;
    let current = Array.make k false in
    let best = ref (Array.copy current) in
    let cur_params = ref (Space.params_of_ids space []) in
    let n = ref 0 in
    let best_fit = ref (fitness_of ~cmax !cur_params) in
    let tabu_until = Array.make k 0 in
    let evals = ref 0 in
    let iter = ref 0 in
    while !evals < budget.evaluations && not (Deadline.poll deadline) do
      incr iter;
      (* Evaluate the whole flip neighborhood; take the best non-tabu
         move (aspiration: a tabu move improving the global best is
         allowed).  Probes are O(1) off the current parameters. *)
      let best_move = ref (-1) and best_move_fit = ref neg_infinity in
      let best_move_params = ref !cur_params in
      for i = 0 to k - 1 do
        if !evals < budget.evaluations then begin
          current.(i) <- not current.(i);
          let p = probe_params space ~n:!n !cur_params current i in
          let f = fitness_of ~cmax p in
          incr evals;
          current.(i) <- not current.(i);
          let allowed = tabu_until.(i) <= !iter || f > !best_fit in
          if allowed && f > !best_move_fit then begin
            best_move := i;
            best_move_fit := f;
            best_move_params := p
          end
        end
      done;
      if !best_move >= 0 then begin
        current.(!best_move) <- not current.(!best_move);
        cur_params := !best_move_params;
        n := !n + (if current.(!best_move) then 1 else -1);
        (* Periodic re-anchoring bounds float drift from long chains of
           O(1) updates. *)
        if !iter land 63 = 0 then
          cur_params := Space.params_of_ids space (ids_of_bits current);
        tabu_until.(!best_move) <- !iter + tenure;
        if !best_move_fit > !best_fit then begin
          best_fit := !best_move_fit;
          best := Array.copy current
        end
      end
    done;
    best_feasible space ~cmax [ !best ]
  end

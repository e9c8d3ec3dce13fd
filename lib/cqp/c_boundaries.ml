module Budget = Cqp_resilience.Budget

let find_boundaries ~budget space ~cmax =
  let k = Space.k space in
  if k = 0 then []
  else begin
    let stats = Space.stats space in
    let rq = Rq.create ~words:Space.entry_words stats in
    let visited = Space.Visited.create space 256 in
    let boundaries = ref [] in
    (* Boundaries bucketed by group size: a state can only lie below a
       boundary of its own group (Definition 1 — [dominates] implies
       equal group size), so the dominance scan inspects one bucket
       instead of the whole boundary list. *)
    let by_group : (int, State.t list ref) Hashtbl.t = Hashtbl.create 16 in
    let add_boundary (v : Space.valued) =
      boundaries := v.state :: !boundaries;
      let g = State.group_size v.state in
      match Hashtbl.find_opt by_group g with
      | Some bucket -> bucket := v.state :: !bucket
      | None -> Hashtbl.add by_group g (ref [ v.state ])
    in
    let below_boundary (v : Space.valued) =
      match Hashtbl.find_opt by_group (State.group_size v.state) with
      | None -> false
      | Some bucket ->
          List.exists (fun b -> State.dominates b v.state) !bucket
    in
    (* Same test for the Vertical neighbor of [v] that replaces [p] by
       [q], straight off the parent's state — no neighbor list built. *)
    let below_boundary_subst (v : Space.valued) ~p ~q =
      match Hashtbl.find_opt by_group (State.group_size v.state) with
      | None -> false
      | Some bucket ->
          List.exists
            (fun b -> State.dominates_subst b v.state ~p ~q)
            !bucket
    in
    let prune v = Space.Visited.mem visited v || below_boundary v in
    let mark v = Space.Visited.add visited v in
    let seed = Space.value_singleton space 0 in
    mark seed;
    Rq.push_tail rq seed;
    (* On deadline expiry the scan stops where it is; the boundaries
       found so far feed phase 2 as the best-so-far answer. *)
    Rq.drain ~budget rq (fun v ->
        Instrument.visit stats;
        if v.Space.params.Params.cost <= cmax then begin
          add_boundary v;
          Instrument.hold stats v.Space.state;
          match Space.horizontal_v space v with
          | Some v' when not (prune v') ->
              mark v';
              Rq.push_tail rq v'
          | Some _ | None -> ()
        end
        else
          (* Vertical neighbors explored head-first so the current
             group finishes before the next begins; visited and
             dominance pruning run on keys, before valuation. *)
          Space.iter_vertical ~rev:true space v
            ~keep:(fun ~p ~q key ->
              (not (Space.Visited.mem_key visited key))
              && not (below_boundary_subst v ~p ~q))
            ~f:(fun v' ->
              mark v';
              Rq.push_head rq v'));
    !boundaries
  end

let solve ?(budget = Budget.unlimited) space ~cmax =
  let boundaries =
    Cqp_obs.Trace.with_span ~name:"c_boundaries.find_boundaries" (fun () ->
        let bs = find_boundaries ~budget space ~cmax in
        Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "boundaries" (List.length bs));
        bs)
  in
  if boundaries = [] then Solution.empty space
  else
    Cqp_obs.Trace.with_span ~name:"c_boundaries.phase2" (fun () ->
        Cost_phase2.find_max_doi space boundaries)

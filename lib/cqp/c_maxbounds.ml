module Budget = Cqp_resilience.Budget

let find_max_bounds ~budget space ~cmax =
  let kk = Space.k space in
  if kk = 0 then []
  else begin
    let stats = Space.stats space in
    let visited = Space.Visited.create space 256 in
    (* Bounds are kept with their keys; subset tests are a single [land]
       (or an O(words) bitset sweep at large K — the int-mask fallback
       used to overflow past position 61).  Only maximal bounds are
       retained: pushing a new bound evicts (and releases) the bounds
       it contains. *)
    let max_bounds : (Space.key * State.t) list ref = ref [] in
    let covered key =
      List.exists (fun (bk, _) -> Space.key_subset key bk) !max_bounds
    in
    let push_bound (v : Space.valued) =
      let kept, evicted =
        List.partition
          (fun (bk, _) -> not (Space.key_subset bk v.Space.key))
          !max_bounds
      in
      max_bounds := (v.Space.key, v.state) :: kept;
      Instrument.hold stats v.state;
      List.iter (fun (_, b) -> Instrument.release stats b) evicted
    in
    let prune v = Space.Visited.mem visited v || covered v.Space.key in
    let find_max_bound seed_pos =
      let rq = Rq.create ~words:Space.entry_words stats in
      let seed = Space.value_singleton space seed_pos in
      if not (prune seed) then begin
        Space.Visited.add visited seed;
        Rq.push_head rq seed
      end;
      Rq.drain ~budget rq (fun v0 ->
          (* A bound found after v0 was enqueued may already cover it. *)
          if not (covered v0.Space.key) then begin
            Instrument.visit stats;
            let v =
              if v0.Space.params.Params.cost <= cmax then
                fst (Space.saturate space v0 ~cmax)
              else v0
            in
            if (not (State.equal v.Space.state v0.Space.state))
               && not (prune v)
            then push_bound v;
            Space.iter_vertical space v
              ~keep:(fun ~p:_ ~q:_ key ->
                Space.key_mem key seed_pos
                && not (Space.Visited.mem_key visited key || covered key))
              ~f:(fun v' ->
                Space.Visited.add visited v';
                Rq.push_head rq v')
          end)
    in
    let last_size () =
      match !max_bounds with
      | [] -> 0
      | (_, head) :: _ -> State.group_size head
    in
    let pos = ref 0 in
    while !pos + last_size () < kk && not (Budget.expired budget) do
      find_max_bound !pos;
      incr pos
    done;
    List.map snd !max_bounds
  end

let solve ?(budget = Budget.unlimited) space ~cmax =
  let bounds =
    Cqp_obs.Trace.with_span ~name:"c_maxbounds.find_max_bounds" (fun () ->
        let bs = find_max_bounds ~budget space ~cmax in
        Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "max_bounds" (List.length bs));
        bs)
  in
  let candidates =
    if bounds <> [] then bounds
    else
      (* No multi-preference bound was found; fall back to the feasible
         singletons, which the greedy rounds skip when they cannot
         grow. *)
      List.filter
        (fun s -> Space.cost space s <= cmax)
        (List.init (Space.k space) State.singleton)
  in
  if candidates = [] then Solution.empty space
  else
    Cqp_obs.Trace.with_span ~name:"c_maxbounds.phase2" (fun () ->
        Cost_phase2.find_max_doi space candidates)

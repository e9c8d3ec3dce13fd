module Budget = Cqp_resilience.Budget

let rounds ~name ~budget space ~cmax round =
  let k = Space.k space in
  if k = 0 then Solution.empty space
  else begin
    let ps = Space.pref_space space in
    let best = ref None and best_doi = ref 0. in
    let consider (v : Space.valued) =
      let doi = v.params.Params.doi in
      if (doi > !best_doi || Option.is_none !best) && v.params.Params.cost <= cmax
      then begin
        best_doi := doi;
        best := Some v.state
      end
    in
    (* After the round seeded at [pos], BestExpectedDoi is the doi of
       the preferences from [pos] on combined. *)
    let rec go pos best_expected =
      if pos < k && !best_doi <= best_expected && not (Budget.expired budget)
      then begin
        Cqp_obs.Trace.with_span ~name
          ~attrs:(fun () -> [ Cqp_obs.Attr.int "seed" pos ])
          (fun () -> round ~consider pos);
        go (pos + 1) (Pref_space.suffix_doi ps pos)
      end
      else pos
    in
    let rounds = go 0 (Pref_space.suffix_doi ps 0) in
    Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "rounds" rounds);
    match !best with
    | None -> Solution.empty space
    | Some r -> Solution.of_ids space (Space.pref_ids space r)
  end

let solve ?(budget = Budget.unlimited) space ~cmax =
  let stats = Space.stats space in
  let visited = Space.Visited.create space 256 in
  rounds ~name:"d_singlemaxdoi.round" ~budget space ~cmax
    (fun ~consider seed_pos ->
      let rq = Rq.create ~words:Space.entry_words stats in
      let seed = Space.value_singleton space seed_pos in
      if not (Space.Visited.mem visited seed) then begin
        Space.Visited.add visited seed;
        Rq.push_head rq seed
      end;
      Rq.drain ~budget rq (fun v0 ->
          Instrument.visit stats;
          let v =
            if v0.Space.params.Params.cost <= cmax then
              fst (Space.saturate space v0 ~cmax)
            else v0
          in
          consider v;
          Space.iter_vertical space v
            ~keep:(fun ~p:_ ~q:_ key ->
              Space.key_mem key seed_pos
              && not (Space.Visited.mem_key visited key))
            ~f:(fun v' ->
              Space.Visited.add visited v';
              Rq.push_head rq v')))

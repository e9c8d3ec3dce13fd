module Budget = Cqp_resilience.Budget

let find_optimal_valued ~budget space ~cmax =
  let k = Space.k space in
  if k = 0 then []
  else begin
    let stats = Space.stats space in
    let rq = Rq.create ~words:Space.entry_words stats in
    let visited = Space.Visited.create space 256 in
    let solutions = ref [] in
    let mark v = Space.Visited.add visited v in
    let seed = Space.value_singleton space 0 in
    mark seed;
    Rq.push_tail rq seed;
    let rec loop () =
      if Budget.poll budget then ()
      else
      match Rq.pop rq with
      | None -> ()
      | Some v ->
          Instrument.visit stats;
          let continue_from =
            if v.Space.params.Params.cost <= cmax then begin
              (* Climb horizontally while the budget holds. *)
              let rec climb (v : Space.valued) =
                match Space.horizontal_v space v with
                | Some v' when v'.params.Params.cost <= cmax -> climb v'
                | next -> (v, next)
              in
              let last_good, violator = climb v in
              solutions := last_good :: !solutions;
              Instrument.hold stats last_good.Space.state;
              Option.value violator ~default:last_good
            end
            else v
          in
          Space.iter_vertical space continue_from
            ~keep:(fun ~p:_ ~q:_ key ->
              not (Space.Visited.mem_key visited key))
            ~f:(fun v' ->
              mark v';
              Rq.push_tail rq v');
          loop ()
    in
    loop ();
    !solutions
  end

let solve ?(budget = Budget.unlimited) space ~cmax =
  let stats = Space.stats space in
  let solutions =
    Cqp_obs.Trace.with_span ~name:"d_maxdoi.find_optimal" (fun () ->
        let ss = find_optimal_valued ~budget space ~cmax in
        Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "candidates" (List.length ss));
        ss)
  in
  if solutions = [] then Solution.empty space
  else
    Cqp_obs.Trace.with_span ~name:"d_maxdoi.select_best" (fun () ->
    let ps = Space.pref_space space in
    let ordered =
      List.stable_sort
        (fun (a : Space.valued) (b : Space.valued) ->
          Stdlib.compare (State.group_size b.state) (State.group_size a.state))
        solutions
    in
    let best = ref None and best_doi = ref 0. in
    (try
       let kr = ref (Space.k space) in
       List.iter
         (fun (v : Space.valued) ->
           let g = State.group_size v.state in
           if g < !kr then begin
             let bound = Pref_space.prefix_doi ps g in
             if !best_doi > bound then raise Exit;
             kr := g
           end;
           Instrument.visit stats;
           let doi = v.params.Params.doi in
           if doi > !best_doi || !best = None then begin
             best_doi := doi;
             best := Some v.state
           end)
         ordered
     with Exit -> ());
    match !best with
    | None -> Solution.empty space
    | Some r -> Solution.of_ids space (Space.pref_ids space r))

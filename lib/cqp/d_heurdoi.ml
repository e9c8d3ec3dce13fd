module Budget = Cqp_resilience.Budget

let solve ?(budget = Budget.unlimited) space ~cmax =
  let stats = Space.stats space in
  (* Every state a climb passes counts as visited. *)
  let climb ?forbid v =
    let v, passed = Space.saturate ?forbid space v ~cmax in
    for _ = 1 to passed do
      Instrument.visit stats
    done;
    v
  in
  D_singlemaxdoi.rounds ~name:"d_heurdoi.round" ~budget space ~cmax
    (fun ~consider seed_pos ->
      let seed = Space.value_singleton space seed_pos in
      if seed.Space.params.Params.cost <= cmax then begin
        let r = climb seed in
        consider r;
        (* Heuristic probes: drop the solution's tail elements one at a
           time — an O(1) parameter retraction each — and re-climb
           without them. *)
        let arr = Array.of_list r.Space.state in
        let cur = ref r in
        let i = ref (Array.length arr - 1) in
        while !i >= 1 && not (Budget.poll budget) do
          cur := Space.remove_pos space !cur arr.(!i);
          consider (climb ~forbid:arr.(!i) !cur);
          decr i
        done
      end)

let best_below space boundary =
  let k = Space.k space in
  let used = Array.make k false in
  let slot_best pos =
    (* Smallest preference id among positions [pos, K-1] of C not yet
       used: that preference has the best doi available to this slot. *)
    let best = ref None in
    for j = pos to k - 1 do
      let id = Space.pref_id space j in
      if not used.(id) then
        match !best with
        | Some b when b <= id -> ()
        | _ -> best := Some id
    done;
    !best
  in
  (* Most constrained slot first: largest position has the fewest
     candidate replacements. *)
  let slots = List.rev boundary in
  List.filter_map
    (fun pos ->
      match slot_best pos with
      | Some id ->
          used.(id) <- true;
          Some id
      | None -> None)
    slots
  |> List.sort Stdlib.compare

let best_expected space ~group ~value candidates =
  let stats = Space.stats space in
  let ps = Space.pref_space space in
  let ordered =
    List.stable_sort (fun a b -> Stdlib.compare (group b) (group a)) candidates
  in
  let rec scan best best_doi kr = function
    | [] -> best
    | c :: rest ->
        let g = group c in
        (* Best possible doi from any group of size <= g. *)
        if g < kr && best_doi > Pref_space.prefix_doi ps g then best
        else begin
          Instrument.visit stats;
          let answer, doi = value c in
          if doi > best_doi || Option.is_none best then
            scan (Some answer) doi (min g kr) rest
          else scan best best_doi (min g kr) rest
        end
  in
  scan None 0. (Space.k space) ordered

let find_max_doi space boundaries =
  match
    best_expected space ~group:State.group_size
      ~value:(fun boundary ->
        let ids = best_below space boundary in
        (ids, (Space.params_of_ids space ids).Params.doi))
      boundaries
  with
  | None -> Solution.empty space
  | Some ids -> Solution.of_ids space ids

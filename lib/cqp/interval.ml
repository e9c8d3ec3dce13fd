type boundaries = { up : State.t list; low : State.t list }

(* Phase one: FINDBOUNDARY with the Section-6 enhancement — when a
   state satisfies the upper limit, keep exploring its group as if it
   had not (to find the low borderline: the last states still above
   [lo]). *)
let find_boundaries space ~lo ~hi =
  let k = Space.k space in
  if k = 0 then { up = []; low = [] }
  else begin
    let stats = Space.stats space in
    let rq = Rq.create ~words:Space.entry_words stats in
    let visited = Space.Visited.create space 256 in
    let up = ref [] and low = ref [] in
    let mark v = Space.Visited.add visited v in
    let below_up (v : Space.valued) =
      List.exists (fun b -> State.dominates b v.state) !up
    in
    let seed = Space.value_singleton space 0 in
    mark seed;
    Rq.push_tail rq seed;
    Rq.drain ~budget:Cqp_resilience.Budget.unlimited rq (fun v ->
        Instrument.visit stats;
        let resource = v.Space.params.Params.cost in
        (* Vertical neighbors are valued once and reused by the push
           loop and the low-borderline test below. *)
        let verticals () = Space.vertical_v space v in
        if resource <= hi then begin
          if not (below_up v) then begin
            up := v.Space.state :: !up;
            Instrument.hold stats v.Space.state
          end;
          if resource >= lo then begin
            (* Still above the low borderline: its Vertical
               descendants may be too — keep walking the group so the
               low boundaries (last states >= lo) are found. *)
            let vs = verticals () in
            List.iter
              (fun (v' : Space.valued) ->
                if
                  (not (Space.Visited.mem visited v'))
                  && v'.params.Params.cost >= lo
                then begin
                  mark v';
                  Rq.push_head rq v'
                end)
              vs;
            if
              not
                (List.exists
                   (fun (v' : Space.valued) ->
                     v'.params.Params.cost >= lo)
                   vs)
            then begin
              low := v.Space.state :: !low;
              Instrument.hold stats v.Space.state
            end
          end;
          (match Space.horizontal_v space v with
          | Some v' when not (Space.Visited.mem visited v') ->
              mark v';
              Rq.push_tail rq v'
          | Some _ | None -> ())
        end
        else
          List.iter
            (fun v' ->
              if not (Space.Visited.mem visited v' || below_up v')
              then begin
                mark v';
                Rq.push_head rq v'
              end)
            (List.rev (verticals ())));
    { up = !up; low = !low }
  end

(* Phase two: below each upper boundary, greedily pick the best-doi
   replacements that keep the resource above [lo].  Slots are filled
   most-constrained first, each taking the smallest unused preference
   id (best doi) whose resource keeps the partial sum able to reach
   [lo] given the remaining slots' maxima. *)
let best_below_with_floor space ~lo boundary =
  let k = Space.k space in
  let used = Array.make k false in
  let slots = List.rev boundary in
  (* max_resource.(pos) = the largest single-item resource available at
     position >= pos (resources are stored decreasing in the order
     vector, so it is the resource at the smallest free position). *)
  let resource_at pos = Space.pos_cost space pos in
  let rec assign slots acc_resource acc_ids =
    match slots with
    | [] -> if acc_resource >= lo then Some acc_ids else None
    | pos :: rest ->
        (* Candidates for this slot: positions j >= pos, not used.  Try
           them in increasing preference id (best doi first); accept the
           first whose choice leaves the rest able to reach lo. *)
        let candidates =
          List.init (k - pos) (fun off -> pos + off)
          |> List.filter (fun j -> not used.(Space.pref_id space j))
          |> List.sort (fun a b ->
                 Stdlib.compare (Space.pref_id space a) (Space.pref_id space b))
        in
        let rest_max =
          (* Upper bound on what the remaining slots can contribute:
             each remaining slot takes its own position's resource or
             larger (positions are resource-decreasing, and slot p can
             use any j >= p, whose resource <= resource p; so the max
             is the sum of the slots' own positions). *)
          List.fold_left (fun acc p -> acc +. resource_at p) 0. rest
        in
        let rec try_candidates = function
          | [] -> None
          | j :: others -> (
              let r = resource_at j in
              if acc_resource +. r +. rest_max < lo then
                (* Even the best completion cannot reach the floor with
                   this (and any cheaper) choice: the candidates are in
                   doi order, not resource order, so keep trying. *)
                try_candidates others
              else begin
                let id = Space.pref_id space j in
                used.(id) <- true;
                match assign rest (acc_resource +. r) (id :: acc_ids) with
                | Some ids -> Some ids
                | None ->
                    used.(id) <- false;
                    try_candidates others
              end)
        in
        try_candidates candidates
  in
  assign slots 0. []

let solve space ~lo ~hi =
  let { up; low = _ } = find_boundaries space ~lo ~hi in
  let best = ref None and best_doi = ref neg_infinity in
  List.iter
    (fun boundary ->
      match best_below_with_floor space ~lo boundary with
      | Some ids ->
          let doi = (Space.params_of_ids space ids).Params.doi in
          if doi > !best_doi then begin
            best_doi := doi;
            best := Some ids
          end
      | None -> ())
    up;
  Option.map (Solution.of_ids space) !best

let of_size_bounds ps ~smin ~smax =
  if smin > smax then None
  else begin
    let base = Estimate.base_size ps.Pref_space.estimate in
    let lo = if smax >= base then 0. else log (base /. smax) in
    let hi = if smin <= 0. then infinity else log (base /. smin) in
    Some (Space.create ~order:Space.By_cost (Pref_space.log_size ps), lo, hi)
  end

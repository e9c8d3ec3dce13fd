type point = { pref_ids : int list; params : Params.t }

let exact_budget_k = 16

let dominates a b =
  a.params.Params.doi >= b.params.Params.doi
  && a.params.Params.cost <= b.params.Params.cost
  && (a.params.Params.doi > b.params.Params.doi
     || a.params.Params.cost < b.params.Params.cost)

let is_front points =
  List.for_all
    (fun a -> not (List.exists (fun b -> dominates b a) points))
    points

(* Keep the non-dominated subset of candidates sorted by cost: scan in
   increasing cost and keep a point only when it strictly improves the
   best doi seen so far. *)
let skyline candidates =
  let sorted =
    List.sort
      (fun a b ->
        match Stdlib.compare a.params.Params.cost b.params.Params.cost with
        | 0 -> Stdlib.compare b.params.Params.doi a.params.Params.doi
        | c -> c)
      candidates
  in
  let best_doi = ref neg_infinity in
  List.filter
    (fun p ->
      if p.params.Params.doi > !best_doi then begin
        best_doi := p.params.Params.doi;
        true
      end
      else false)
    sorted

let feasible constraints (p : Params.t) =
  match constraints with
  | None -> true
  | Some c ->
      (* Only the size interval filters candidates here: doi and cost
         are the objectives themselves. *)
      not (Params.violates_size c p)

let knee points =
  match skyline points with
  | [] -> None
  | [ p ] -> Some p
  | front ->
      let doi_of p = p.params.Params.doi and cost_of p = p.params.Params.cost in
      (* Seed every extreme fold from the first point: seeding with
         [0.] would fold a phantom zero into fronts whose objectives
         are all negative (or all zero), skewing the normalization. *)
      let h = List.hd front in
      let min_c = List.fold_left (fun m p -> min m (cost_of p)) (cost_of h) front in
      let max_c = List.fold_left (fun m p -> max m (cost_of p)) (cost_of h) front in
      let min_d = List.fold_left (fun m p -> min m (doi_of p)) (doi_of h) front in
      let max_d = List.fold_left (fun m p -> max m (doi_of p)) (doi_of h) front in
      let span_c = max 1e-9 (max_c -. min_c) in
      let span_d = max 1e-9 (max_d -. min_d) in
      (* Maximize normalized doi minus normalized cost: the point with
         the best trade-off relative to the front's extremes. *)
      let score p =
        ((doi_of p -. min_d) /. span_d) -. ((cost_of p -. min_c) /. span_c)
      in
      List.fold_left
        (fun best p ->
          match best with
          | Some b when score b >= score p -> best
          | _ -> Some p)
        None front

let pp ppf points =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun p ->
      Format.fprintf ppf "{%s} %a@ "
        (String.concat ","
           (List.map (fun i -> "p" ^ string_of_int (i + 1)) p.pref_ids))
        Params.pp p.params)
    points;
  Format.pp_close_box ppf ()

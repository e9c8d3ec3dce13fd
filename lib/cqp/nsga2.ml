type point = Pareto.point = { pref_ids : int list; params : Params.t }

(* --- tri-objective dominance ----------------------------------------- *)

let dominates a b =
  let pa = a.params and pb = b.params in
  pa.Params.doi >= pb.Params.doi
  && pa.Params.cost <= pb.Params.cost
  && pa.Params.size <= pb.Params.size
  && (pa.Params.doi > pb.Params.doi
     || pa.Params.cost < pb.Params.cost
     || pa.Params.size < pb.Params.size)

let is_front points =
  List.for_all
    (fun a -> not (List.exists (fun b -> dominates b a) points))
    points

(* Canonical front order: cost ascending, then size ascending, then
   doi descending, then the id sets — a total order in which a weak
   dominator comes before what it dominates. *)
let compare_points a b =
  match Stdlib.compare a.params.Params.cost b.params.Params.cost with
  | 0 -> (
      match Stdlib.compare a.params.Params.size b.params.Params.size with
      | 0 -> (
          match Stdlib.compare b.params.Params.doi a.params.Params.doi with
          | 0 -> Stdlib.compare a.pref_ids b.pref_ids
          | c -> c)
      | c -> c)
  | c -> c

(* --- the non-dominated filter ------------------------------------------ *)

(* Keep, in order, the elements of [sorted] for which no earlier kept
   element is no worse on doi, cost and size with a size [stands_in x]
   accepts (a test monotone in that size).  [sorted] is in canonical
   order, so every weak dominator comes first and the test is a binary
   search plus a best-doi query over a range of positions in size
   order, O(n log n) in all.  Of several equal triples the first stays. *)
let sweep ~stands_in sorted =
  let n = Array.length sorted in
  let size i = sorted.(i).params.Params.size in
  let by_size = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare (size i) (size j)) by_size;
  let pos = Array.make n 0 in
  Array.iteri (fun j i -> pos.(i) <- j) by_size;
  (* The first position in [lo, hi) whose size [ok] accepts, else hi. *)
  let rec first ok lo hi =
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if ok (size by_size.(mid)) then first ok lo mid else first ok (mid + 1) hi
  in
  (* A bottom-up segment tree (leaves n .. 2n-1) of the best doi kept
     at each position. *)
  let tree = Array.make (2 * n) neg_infinity in
  let rec best l h acc =
    if l >= h then acc
    else
      let acc = if l land 1 = 1 then Float.max acc tree.(l) else acc in
      let acc = if h land 1 = 1 then Float.max acc tree.(h - 1) else acc in
      best ((l + 1) / 2) (h / 2) acc
  in
  let rec insert i doi =
    if i >= 1 then (
      tree.(i) <- Float.max tree.(i) doi;
      insert (i / 2) doi)
  in
  let kept = ref [] in
  Array.iteri
    (fun i x ->
      let doi = x.params.Params.doi and at = pos.(i) + n in
      let lo = first (stands_in x) 0 pos.(i) + n in
      if best lo at neg_infinity < doi then begin
        kept := x :: !kept;
        insert at doi
      end)
    sorted;
  List.rev !kept

let non_dominated candidates =
  let sorted = Array.of_list candidates in
  Array.sort compare_points sorted;
  sweep ~stands_in:(fun _ _ -> true) sorted

(* --- hypervolume ------------------------------------------------------ *)

(* Area of the union of origin-anchored rectangles [0,x] x [0,y]:
   sweep by decreasing x, each rectangle adds its width times the
   height above the tallest already swept. *)
let area2 rects =
  let sorted =
    List.sort
      (fun (x1, y1) (x2, y2) ->
        match Stdlib.compare x2 x1 with
        | 0 -> Stdlib.compare y2 y1
        | c -> c)
      rects
  in
  let best_y = ref 0. in
  List.fold_left
    (fun acc (x, y) ->
      if y > !best_y then begin
        let acc = acc +. (x *. (y -. !best_y)) in
        best_y := y;
        acc
      end
      else acc)
    0. sorted

let hypervolume ~ref_point points =
  (* Transform to maximize-from-origin coordinates (how much better
     than the reference on each objective); points not strictly better
     than the reference on every objective contribute nothing. *)
  let boxes =
    List.filter_map
      (fun (p : point) ->
        let x = ref_point.Params.cost -. p.params.Params.cost in
        let y = ref_point.Params.size -. p.params.Params.size in
        let z = p.params.Params.doi -. ref_point.Params.doi in
        if x > 0. && y > 0. && z > 0. then Some (x, y, z) else None)
      points
  in
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> Stdlib.compare b a) boxes
  in
  (* Slice along the doi axis from the top: each slab's volume is its
     height times the 2D union of every box at least that tall. *)
  let rec slabs acc seen = function
    | [] -> acc
    | (x, y, z) :: rest ->
        let seen = (x, y) :: seen in
        let z_next = match rest with [] -> 0. | (_, _, z') :: _ -> z' in
        slabs (acc +. ((z -. z_next) *. area2 seen)) seen rest
  in
  slabs 0. [] sorted

(* --- the front builder -------------------------------------------------- *)

(* Adding a preference adds its cost, multiplies size by its fraction
   and can only raise doi, each a monotone float operation.  So if set A
   is no worse than set B on all three objectives, neither is A ∪ X than
   B ∪ X, and B can go before it is extended (the multi-objective
   knapsack DP of Nemhauser and Ullmann, 1969).  Under a lower size
   bound, A must also stay >= smin wherever B ∪ X does; sizes only
   shrink, so such an X holds only ids B can take on its own.  So A
   stands in for B when it is no smaller, or when it stays >= smin after
   all those ids, multiplied in id order as an extension would.  (A's
   smallest reachable size is a coarser test: on random spaces with
   smin = 1 it thinned 11 of 25 fronts at K = 16; this one, none.) *)

(* Partial fronts of the paper's full bundle peak at about 2,100 points
   at K = 40, so its fronts, and serving's, stay exact. *)
let point_budget = 4096

(* Thin a non-dominated list to at most [point_budget] elements, in
   canonical order (Papadimitriou and Yannakakis, FOCS 2000).  Cells over
   (log cost, log size) are (1 + ε) wide, ε = 2^-10 at first, and
   (1 + ε) squares until the list fits.  In decreasing doi order, an
   element goes when the largest kept in its cell stands in for it, so
   it is covered within the factor on cost and size, and successive
   factors multiply.  Once the factor overflows, smin is ignored. *)
let thin ~stands_in xs =
  if List.compare_length_with xs point_budget <= 0 then (xs, 1.)
  else begin
    let by_doi =
      List.stable_sort
        (fun a b -> Float.compare b.params.Params.doi a.params.Params.doi)
        xs
    in
    let rec attempt width =
      let factor = Float.exp width in
      let cell v =
        if v > 0. then Float.to_int (Float.floor (Float.log v /. width))
        else min_int
      in
      (* A cell's largest kept size; a failed stand-in test means the
         element is larger still. *)
      let largest = Hashtbl.create point_budget in
      let kept =
        List.filter
          (fun x ->
            let p = x.params in
            let c = (cell p.Params.cost, cell p.Params.size) in
            match Hashtbl.find_opt largest c with
            | Some s when factor = infinity || stands_in x s -> false
            | _ ->
                Hashtbl.replace largest c p.Params.size;
                true)
          by_doi
      in
      if List.compare_length_with kept point_budget > 0 then
        attempt (2. *. width)
      else (List.sort compare_points kept, factor)
    in
    attempt (Float.log1p (Float.ldexp 1. (-10)))
  end

(* Partial sets are points whose ids run last added first.  A partial
   front is thinned as the next step begins, and the last one only once
   the final front is known. *)
let build ?constraints space =
  let k = Space.k space and feasible = Pareto.feasible constraints in
  let smin = Option.bind constraints (fun c -> c.Params.smin) in
  let alive s =
    match smin with Some b -> s.params.Params.size >= b | None -> true
  in
  (* Does a set of size [y] stand in for [s], ids [next] .. k-1 left? *)
  let stands_in ~next s y =
    match smin with
    | None -> true
    | Some b ->
        let size = s.params.Params.size and reach = ref y in
        for j = next to k - 1 do
          let f = Space.frac space j in
          if size *. f >= b then reach := !reach *. f
        done;
        y >= size || !reach >= b
  in
  let empty = { pref_ids = []; params = Space.params_of_ids space [] } in
  let step (front, factor) id =
    let front, f = thin ~stands_in:(stands_in ~next:id) front in
    let extend s =
      let n = List.length s.pref_ids in
      { pref_ids = id :: s.pref_ids;
        params = Space.params_with_id space ~n s.params id }
    in
    let candidates =
      Array.of_list (List.filter alive (List.map extend (empty :: front)) @ front)
    in
    Array.sort compare_points candidates;
    (sweep ~stands_in:(stands_in ~next:(id + 1)) candidates, factor *. f)
  in
  let partials, factor = List.fold_left step ([], 1.) (List.init k Fun.id) in
  let points =
    List.filter (fun s -> feasible s.params) (empty :: partials)
    |> List.map (fun s -> { s with pref_ids = List.rev s.pref_ids })
  in
  let front, f = thin ~stands_in:(fun _ _ -> true) (non_dominated points) in
  (front, factor *. f)

let front ?constraints ?exact_max_k:_ space = fst (build ?constraints space)

(* --- serving form ------------------------------------------------------ *)

type serving = {
  points : point array;
  best_doi : int array;
}

let serving_of_front front =
  let points = Array.of_list (List.sort compare_points front) in
  let n = Array.length points in
  let best_doi = Array.make n 0 in
  for i = 1 to n - 1 do
    best_doi.(i) <-
      (if
         points.(i).params.Params.doi
         > points.(best_doi.(i - 1)).params.Params.doi
       then i
       else best_doi.(i - 1))
  done;
  { points; best_doi }

let points_held s = Array.length s.points
let point s i = s.points.(i)

let pick s ~budget_ms =
  let n = Array.length s.points in
  if n = 0 || not (s.points.(0).params.Params.cost <= budget_ms) then None
  else begin
    (* Largest index whose cost fits the budget (points are sorted by
       cost ascending), then the best-doi point within that prefix. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if s.points.(mid).params.Params.cost <= budget_ms then lo := mid
      else hi := mid - 1
    done;
    let i = s.best_doi.(!lo) in
    Some (i, s.points.(i))
  end

let knee s =
  match Pareto.knee (Array.to_list s.points) with
  | None -> None
  | Some p ->
      let best = ref None in
      Array.iteri
        (fun i q -> if !best = None && compare_points q p = 0 then best := Some i)
        s.points;
      Option.map (fun i -> (i, s.points.(i))) !best

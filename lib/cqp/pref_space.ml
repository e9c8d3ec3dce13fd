module Doi = Cqp_prefs.Doi
module Path = Cqp_prefs.Path
module Profile = Cqp_prefs.Profile
module Ast = Cqp_sql.Ast

type item = { path : Path.t; doi : float; cost : float; size : float }

type t = {
  estimate : Estimate.t;
  items : item array;
  d : int array;
  c : int array;
  s : int array;
}

type orders = D_only | All_orders

(* A single preference can never appear in a feasible personalized query
   when its own sub-query already violates an upper cost bound (costs
   add up) or already returns fewer tuples than the size lower bound
   (adding preferences only shrinks results further). *)
let item_viable (constraints : Params.constraints) ~cost ~size =
  (match constraints.Params.cmax with
  | Some cmax -> cost <= cmax
  | None -> true)
  &&
  match constraints.Params.smin with
  | Some smin -> size >= smin
  | None -> true

(* Chains are kept only if the cost of scanning their relations alone
   stays under the bound; otherwise no completion can be feasible. *)
let chain_viable est (constraints : Params.constraints) rev_joins tail_rel =
  match constraints.Params.cmax with
  | None -> true
  | Some cmax ->
      let rels =
        tail_rel :: List.map (fun j -> j.Profile.j_to_rel) rev_joins
      in
      let blocks =
        List.fold_left
          (fun acc rel -> acc + Estimate.blocks est rel)
          0
          (List.sort_uniq String.compare rels)
      in
      Estimate.base_cost est +. float_of_int blocks <= cmax

let complete_of_chain rev_joins sel =
  (* rev_joins = [j_n; ...; j_1] where j_1 starts at the anchor. *)
  List.fold_left (fun p j -> Path.extend j p) (Path.atomic sel) rev_joins

(* The personalization-graph walk alone.  Its output depends only on
   the profile, Q's anchor relation set, the path-length bound, and
   chain-viability pruning (cmax against base_cost and per-relation
   block counts) — NOT on Q's WHERE clause — which is exactly what
   makes it shareable across requests; the serve layer caches this list
   keyed on those inputs and re-runs {!assemble} per request. *)
let extract ?(constraints = Params.unconstrained) ?max_path_length estimate
    profile =
  Cqp_obs.Trace.with_span ~name:"pref_space.extract" @@ fun () ->
  let catalog = Estimate.catalog estimate in
  let max_path_length =
    match max_path_length with
    | Some n -> n
    | None -> List.length (Cqp_relal.Catalog.names catalog)
  in
  let anchors =
    Cqp_sql.Ast.tables_of (Estimate.query estimate) |> List.map fst
    |> List.sort_uniq String.compare
  in
  (* The paper pops candidates best-first by doi.  Because doi along a
     chain is non-increasing (Formula 2), emitting depth-first and
     sorting after pricing yields exactly the same P and D vector while
     keeping the traversal allocation-free; chain pruning is applied at
     generation time either way. *)
  let results = ref [] in
  let emitted = ref 0 in
  let seen_paths = Hashtbl.create 64 in
  let max_depth = ref 0 in
  let rec expand rev_joins tail_rel depth =
    if depth <= max_path_length then begin
      if depth > !max_depth then max_depth := depth;
      List.iter
        (fun (sel : Profile.selection) ->
          let path = complete_of_chain rev_joins sel in
          let key = Format.asprintf "%a" Path.pp path in
          if not (Hashtbl.mem seen_paths key) then begin
            Hashtbl.add seen_paths key ();
            incr emitted;
            results := path :: !results
          end)
        (Profile.selections_on profile tail_rel);
      if depth < max_path_length then
        List.iter
          (fun (j : Profile.join) ->
            let rels_so_far =
              tail_rel
              :: List.map (fun jn -> jn.Profile.j_from_rel) rev_joins
            in
            if
              (not (List.mem j.Profile.j_to_rel rels_so_far))
              && chain_viable estimate constraints (j :: rev_joins)
                   j.Profile.j_to_rel
            then expand (j :: rev_joins) j.Profile.j_to_rel (depth + 1))
          (Profile.joins_from profile tail_rel)
    end
  in
  (* The walk order is the trace's span order: one child span per
     anchor relation of Q, attributed with how deep the join-chain
     expansion went and how many candidates it emitted. *)
  List.iter
    (fun anchor ->
      Cqp_obs.Trace.with_span ~name:"pref_space.expand"
        ~attrs:(fun () -> [ Cqp_obs.Attr.str "anchor" anchor ])
        (fun () ->
          let before = !emitted in
          max_depth := 0;
          expand [] anchor 1;
          Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "depth" !max_depth);
          Cqp_obs.Trace.add_attr
            (Cqp_obs.Attr.int "emitted" (!emitted - before))))
    anchors;
  if Cqp_obs.Metrics.is_enabled () then
    Cqp_obs.Metrics.add "pref_space.candidates" (Hashtbl.length seen_paths);
  Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "anchors" (List.length anchors));
  List.rev !results

(* The C vector: positions in decreasing cost, ties by position. *)
let cost_order items =
  let c = Array.init (Array.length items) (fun i -> i) in
  Array.sort
    (fun i j ->
      match Stdlib.compare items.(j).cost items.(i).cost with
      | 0 -> Stdlib.compare i j
      | cmp -> cmp)
    c;
  c

let of_items ?max_k ?(orders = All_orders) estimate items =
  let sorted =
    List.sort
      (fun a b ->
        match Stdlib.compare b.doi a.doi with
        | 0 -> Path.compare a.path b.path
        | c -> c)
      items
  in
  let kept =
    match max_k with
    | None -> sorted
    | Some k -> List.filteri (fun i _ -> i < k) sorted
  in
  let items = Array.of_list kept in
  let k = Array.length items in
  let d = Array.init k (fun i -> i) in
  let c, s =
    match orders with
    | D_only -> ([||], [||])
    | All_orders ->
        let c = cost_order items in
        let s = Array.init k (fun i -> i) in
        Array.sort
          (fun i j ->
            match Stdlib.compare items.(i).size items.(j).size with
            | 0 -> Stdlib.compare i j
            | cmp -> cmp)
          s;
        (c, s)
  in
  if Cqp_obs.Metrics.is_enabled () then
    Cqp_obs.Metrics.add "pref_space.prefs_extracted" k;
  Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "k" k);
  { estimate; items; d; c; s }

let assemble ?(constraints = Params.unconstrained) ?max_k ?orders estimate
    paths =
  (* Price every candidate with THIS request's estimator (cost and size
     depend on Q's full WHERE clause through base_cost/base_size, so
     they must not be cached with the walk), filter, then sort and
     truncate in [of_items]. *)
  of_items ?max_k ?orders estimate
    (List.filter_map
       (fun path ->
         let doi = Path.doi path in
         let cost = Estimate.item_cost estimate path in
         let size = Estimate.item_size estimate path in
         if item_viable constraints ~cost ~size then
           Some { path; doi; cost; size }
         else None)
       paths)

let build ?constraints ?max_k ?max_path_length ?orders estimate profile =
  Cqp_obs.Trace.with_span ~name:"pref_space.build" @@ fun () ->
  let paths = extract ?constraints ?max_path_length estimate profile in
  assemble ?constraints ?max_k ?orders estimate paths

let k t = Array.length t.items

let supreme_cost t =
  if Array.length t.items = 0 then Estimate.base_cost t.estimate
  else Array.fold_left (fun acc it -> acc +. it.cost) 0. t.items

let log_size t =
  let base = Estimate.base_size t.estimate in
  let items =
    Array.map
      (fun it ->
        let frac = if base > 0. then it.size /. base else 0. in
        { it with cost = (if frac <= 0. then 1e9 else -.log frac) })
      t.items
  in
  { t with items; c = cost_order items }

let supreme_doi t =
  Doi.combine (Array.to_list (Array.map (fun it -> it.doi) t.items))

let prefix_doi t g =
  let g = min g (Array.length t.items) in
  let acc = ref 0. in
  for i = 0 to g - 1 do
    acc := Doi.combine_incr !acc t.items.(i).doi
  done;
  !acc

let suffix_doi t from =
  let acc = ref 0. in
  for i = from to Array.length t.items - 1 do
    acc := Doi.combine_incr !acc t.items.(i).doi
  done;
  !acc

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "P (K = %d):@ " (k t);
  Array.iteri
    (fun i it ->
      Format.fprintf ppf "  p%d: %a  cost=%.1f size=%.1f@ " (i + 1)
        Path.pp it.path it.cost it.size)
    t.items;
  let pp_vec name vec =
    Format.fprintf ppf "%s = {%s}@ " name
      (String.concat ", "
         (List.map (fun i -> string_of_int (i + 1)) (Array.to_list vec)))
  in
  pp_vec "D" t.d;
  if Array.length t.c > 0 then pp_vec "C" t.c;
  if Array.length t.s > 0 then pp_vec "S" t.s;
  Format.pp_close_box ppf ()

(* Tests for parameter estimation: the paper's cost model (Formulas 6
   and 11), the size model, and the three partial orders (Formulas 4,
   7, 8) the algorithms depend on. *)

module V = Cqp_relal.Value
module C = Cqp_core
module Profile = Cqp_prefs.Profile
module Path = Cqp_prefs.Path

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* Catalog with controlled block counts: block_size 64.  movie width 56
   -> 1 tuple/block; director width 32 -> 2/block; genre width 24 ->
   2/block. *)
let catalog =
  let c = Cqp_relal.Catalog.create () in
  let add name cols rows =
    Cqp_relal.Catalog.add c
      (Cqp_relal.Relation.of_tuples ~block_size:64
         (Cqp_relal.Schema.make name cols)
         rows)
  in
  add "movie"
    [ ("mid", V.Tint, 8); ("title", V.Tstring, 24); ("year", V.Tint, 8); ("did", V.Tint, 8) ]
    (List.init 10 (fun i ->
         Cqp_relal.Tuple.make
           [ V.Int i; V.String (Printf.sprintf "m%d" i); V.Int (1990 + i); V.Int (i mod 4) ]));
  add "director"
    [ ("did", V.Tint, 8); ("name", V.Tstring, 24) ]
    (List.init 4 (fun i ->
         Cqp_relal.Tuple.make [ V.Int i; V.String (Printf.sprintf "d%d" i) ]));
  add "genre"
    [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ]
    (List.init 10 (fun i ->
         Cqp_relal.Tuple.make
           [ V.Int i; V.String (if i mod 2 = 0 then "comedy" else "drama") ]));
  c

let movie_blocks = Cqp_relal.Catalog.blocks catalog "movie"
let director_blocks = Cqp_relal.Catalog.blocks catalog "director"
let genre_blocks = Cqp_relal.Catalog.blocks catalog "genre"
let query = Cqp_sql.Parser.parse "select title from movie"
let est = C.Estimate.create catalog query

let sel_comedy = Profile.selection "genre" "genre" (V.String "comedy") 0.6
let sel_d1 = Profile.selection "director" "name" (V.String "d1") 0.8
let join_mg = Profile.join "movie" "mid" "genre" "mid" 0.9
let join_md = Profile.join "movie" "did" "director" "did" 1.0
let path_genre = Path.extend join_mg (Path.atomic sel_comedy)
let path_dir = Path.extend join_md (Path.atomic sel_d1)

let test_base_cost () =
  (* cost(Q) = b * blocks(movie), b = 1ms *)
  checkf "base cost" (float_of_int movie_blocks) (C.Estimate.base_cost est)

let test_item_cost () =
  (* Sub-query for the genre path scans movie + genre. *)
  checkf "genre path cost"
    (float_of_int (movie_blocks + genre_blocks))
    (C.Estimate.item_cost est path_genre);
  checkf "director path cost"
    (float_of_int (movie_blocks + director_blocks))
    (C.Estimate.item_cost est path_dir)

let test_cost_additivity () =
  (* Formula 11: cost(Qx) = sum of sub-query costs. *)
  let p = C.Estimate.params_of est [ path_genre; path_dir ] in
  checkf "additive"
    (C.Estimate.item_cost est path_genre +. C.Estimate.item_cost est path_dir)
    p.C.Params.cost

let test_base_size () =
  checkf "size of full scan" 10. (C.Estimate.base_size est)

let test_item_frac_bounds () =
  let f = C.Estimate.item_frac est path_genre in
  checkb "in (0,1]" true (f > 0. && f <= 1.);
  (* 'comedy' covers half the genre tuples and each movie has one
     genre row here, so the kept fraction should be near 0.5. *)
  checkb "near half" true (f > 0.3 && f <= 0.7)

let test_doi_formulas () =
  (* Formula 9 on the path, Formula 10 across paths. *)
  checkf "path doi" (0.9 *. 0.6) (Cqp_prefs.Path.doi path_genre);
  let p = C.Estimate.params_of est [ path_genre; path_dir ] in
  checkf "conjunction doi"
    (1. -. ((1. -. (0.9 *. 0.6)) *. (1. -. (1.0 *. 0.8))))
    p.C.Params.doi

let test_params_empty () =
  let p = C.Estimate.params_of est [] in
  checkf "doi 0" 0. p.C.Params.doi;
  checkf "cost = base" (C.Estimate.base_cost est) p.C.Params.cost;
  checkf "size = base" (C.Estimate.base_size est) p.C.Params.size

let test_unknown_relation () =
  checkb "unknown relation rejected" true
    (match
       C.Estimate.create catalog (Cqp_sql.Parser.parse "select x from nosuch")
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_selective_query_size () =
  let est2 =
    C.Estimate.create catalog
      (Cqp_sql.Parser.parse "select title from movie where year = 1995")
  in
  checkb "selection shrinks estimate" true
    (C.Estimate.base_size est2 < C.Estimate.base_size est);
  checkb "join query cost includes both relations" true
    (C.Estimate.base_cost
       (C.Estimate.create catalog
          (Cqp_sql.Parser.parse
             "select title from movie m, director d where m.did = d.did"))
    = float_of_int (movie_blocks + director_blocks))

let test_mirrored_comparison_size () =
  (* A literal on the left is the mirrored comparison, priced alike. *)
  let size sql =
    C.Estimate.base_size (C.Estimate.create catalog (Cqp_sql.Parser.parse sql))
  in
  List.iter
    (fun (col_first, lit_first) ->
      checkf lit_first
        (size ("select title from movie where " ^ col_first))
        (size ("select title from movie where " ^ lit_first)))
    [
      ("year >= 1994", "1994 <= year");
      ("year < 1992", "1992 > year");
      ("year = 1995", "1995 = year");
    ]

(* --- The three partial orders over random subsets --------------------- *)

let paths = [ path_genre; path_dir; Path.atomic (Profile.selection "movie" "year" (V.Int 1995) 0.3) ]

let subsets =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        let r = go rest in
        List.map (fun s -> x :: s) r @ r
  in
  go paths

let test_partial_orders () =
  (* For every Px ⊆ Py: Formula 4 (doi <=), 7 (cost <=), 8 (size >=). *)
  List.iter
    (fun px ->
      List.iter
        (fun py ->
          let subset a b = List.for_all (fun x -> List.memq x b) a in
          if subset px py then begin
            let pp_x = C.Estimate.params_of est px in
            let pp_y = C.Estimate.params_of est py in
            checkb "Formula 4 (doi)" true
              (pp_x.C.Params.doi <= pp_y.C.Params.doi +. 1e-12);
            if px <> [] then
              checkb "Formula 7 (cost)" true
                (pp_x.C.Params.cost <= pp_y.C.Params.cost +. 1e-12);
            checkb "Formula 8 (size)" true
              (pp_x.C.Params.size >= pp_y.C.Params.size -. 1e-12)
          end)
        subsets)
    subsets

let prop_fabricated_orders =
  QCheck.Test.make ~name:"partial orders on fabricated spaces" ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Cqp_util.Rng.create seed in
      let ps = Testlib.random_space rng ~k:6 in
      let space = C.Space.create ~order:C.Space.By_doi ps in
      let p_of ids = C.Space.params_of_ids space ids in
      List.for_all
        (fun ids ->
          match ids with
          | [] -> true
          | _ :: rest ->
              let full = p_of ids and sub = p_of rest in
              sub.C.Params.doi <= full.C.Params.doi +. 1e-12
              && sub.C.Params.cost <= full.C.Params.cost +. 1e-12
              && sub.C.Params.size >= full.C.Params.size -. 1e-12)
        (C.State.all_states ~k:6))

let qc = Testlib.qc

let () =
  Testlib.seed_banner "estimate";
  Alcotest.run "estimate"
    [
      ( "cost",
        [
          Alcotest.test_case "base" `Quick test_base_cost;
          Alcotest.test_case "item" `Quick test_item_cost;
          Alcotest.test_case "additive (Formula 11)" `Quick test_cost_additivity;
        ] );
      ( "size",
        [
          Alcotest.test_case "base" `Quick test_base_size;
          Alcotest.test_case "fraction" `Quick test_item_frac_bounds;
          Alcotest.test_case "selective query" `Quick test_selective_query_size;
          Alcotest.test_case "mirrored comparison" `Quick
            test_mirrored_comparison_size;
        ] );
      ( "doi",
        [
          Alcotest.test_case "formulas 9/10" `Quick test_doi_formulas;
          Alcotest.test_case "empty set" `Quick test_params_empty;
        ] );
      ( "orders",
        [
          Alcotest.test_case "formulas 4/7/8" `Quick test_partial_orders;
          qc prop_fabricated_orders;
          Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
        ] );
    ]

(* Tests for the preference model: doi arithmetic, profiles, paths, and
   the personalization graph. *)

module V = Cqp_relal.Value
module Doi = Cqp_prefs.Doi
module Profile = Cqp_prefs.Profile
module Path = Cqp_prefs.Path
module Pgraph = Cqp_prefs.Pgraph

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Doi -------------------------------------------------------------- *)

let test_doi_compose () =
  checkf "product" 0.72 (Doi.compose [ 0.8; 0.9 ]);
  checkf "empty neutral" 1.0 (Doi.compose []);
  checkb "invalid doi" true
    (match Doi.compose [ 1.5 ] with
    | exception Doi.Invalid_doi _ -> true
    | _ -> false)

let test_doi_combine () =
  (* Formula 10: 1 - (1-0.5)(1-0.8) = 0.9 *)
  checkf "noisy or" 0.9 (Doi.combine [ 0.5; 0.8 ]);
  checkf "empty" 0.0 (Doi.combine []);
  checkf "incremental agrees"
    (Doi.combine [ 0.3; 0.4; 0.5 ])
    (Doi.combine_incr (Doi.combine [ 0.3; 0.4 ]) 0.5)

let doi_gen = QCheck.Gen.(float_bound_inclusive 1.0)

(* Formula 2: f⊗ bounded by the minimum constituent. *)
let prop_compose_bounded =
  QCheck.Test.make ~name:"compose <= min constituent" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) doi_gen))
    (fun dois -> Doi.compose dois <= List.fold_left min 1.0 dois +. 1e-12)

(* Formula 4: conjunction doi grows with the set. *)
let prop_combine_monotone =
  QCheck.Test.make ~name:"combine monotone under inclusion" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 6) doi_gen) doi_gen))
    (fun (dois, extra) ->
      Doi.combine (extra :: dois) >= Doi.combine dois -. 1e-12)

let prop_combine_bounded =
  QCheck.Test.make ~name:"combine in [0,1]" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) doi_gen))
    (fun dois ->
      let d = Doi.combine dois in
      d >= 0. && d <= 1.)

(* --- Profile ----------------------------------------------------------- *)

let figure1 =
  Profile.of_strings
    [
      ("genre.genre = 'musical'", 0.5);
      ("movie.mid = genre.mid", 0.9);
      ("movie.did = director.did", 1.0);
      ("director.name = 'W. Allen'", 0.8);
    ]

let test_profile_parse () =
  checki "selections" 2 (List.length (Profile.selections figure1));
  checki "joins" 2 (List.length (Profile.joins figure1));
  checki "size" 4 (Profile.size figure1);
  let s = List.hd (Profile.selections_on figure1 "genre") in
  checkf "doi" 0.5 s.Profile.s_doi;
  checkb "value" true (V.equal (V.String "musical") s.Profile.s_value)

let test_profile_parse_flip () =
  match Profile.parse_atom "1990 <= movie.year" 0.4 with
  | `Sel s ->
      checkb "flipped to >=" true (s.Profile.s_op = Cqp_sql.Ast.Ge);
      Alcotest.(check string) "rel" "movie" s.Profile.s_rel
  | `Join _ -> Alcotest.fail "expected selection"

let test_profile_parse_reject () =
  checkb "non-atomic rejected" true
    (match Profile.parse_atom "a.x = 1 and b.y = 2" 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "unqualified rejected" true
    (match Profile.parse_atom "genre = 'musical'" 0.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_profile_doi_range () =
  checkb "doi > 1 rejected" true
    (match Profile.selection "g" "g" (V.Int 1) 1.5 with
    | exception Doi.Invalid_doi _ -> true
    | _ -> false);
  checkb "NaN doi rejected" true
    (match Profile.selection "g" "g" (V.Int 1) Float.nan with
    | exception Doi.Invalid_doi _ -> true
    | _ -> false)

let test_profile_adjacency () =
  checki "joins from movie" 2 (List.length (Profile.joins_from figure1 "movie"));
  checki "joins from genre" 0 (List.length (Profile.joins_from figure1 "genre"));
  checki "sels on director" 1
    (List.length (Profile.selections_on figure1 "director"))

(* --- Catalog for validation/graph tests ------------------------------- *)

let catalog =
  let c = Cqp_relal.Catalog.create () in
  let add name cols rows =
    Cqp_relal.Catalog.add c
      (Cqp_relal.Relation.of_tuples (Cqp_relal.Schema.make name cols) rows)
  in
  add "movie"
    [ ("mid", V.Tint, 8); ("title", V.Tstring, 24); ("did", V.Tint, 8) ]
    [ Cqp_relal.Tuple.make [ V.Int 1; V.String "m"; V.Int 1 ] ];
  add "director"
    [ ("did", V.Tint, 8); ("name", V.Tstring, 24) ]
    [ Cqp_relal.Tuple.make [ V.Int 1; V.String "d" ] ];
  add "genre"
    [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ]
    [ Cqp_relal.Tuple.make [ V.Int 1; V.String "comedy" ] ];
  c

let test_profile_validate () =
  checkb "figure1 valid" true (Profile.validate catalog figure1 = Ok ());
  let bad =
    Profile.of_list [ `Sel (Profile.selection "nosuch" "x" (V.Int 1) 0.5) ]
  in
  checkb "unknown relation flagged" true
    (match Profile.validate catalog bad with
    | Error [ msg ] -> msg = "unknown relation nosuch"
    | _ -> false);
  let bad_ty =
    Profile.of_list [ `Sel (Profile.selection "movie" "mid" (V.String "x") 0.5) ]
  in
  checkb "type mismatch flagged" true
    (match Profile.validate catalog bad_ty with
    | Error _ -> true
    | Ok () -> false)

(* --- Path -------------------------------------------------------------- *)

let sel_allen = Profile.selection "director" "name" (V.String "W. Allen") 0.8
let join_md = Profile.join "movie" "did" "director" "did" 1.0
let join_mg = Profile.join "movie" "mid" "genre" "mid" 0.9
let sel_musical = Profile.selection "genre" "genre" (V.String "musical") 0.5

let test_path_basics () =
  let p = Path.extend join_md (Path.atomic sel_allen) in
  Alcotest.(check string) "anchor" "movie" (Path.anchor p);
  checki "length" 2 (Path.length p);
  Alcotest.(check (list string)) "relations" [ "movie"; "director" ]
    (Path.relations p);
  (* Formula 9: doi = 1.0 * 0.8 *)
  checkf "composed doi" 0.8 (Path.doi p);
  checkb "acyclic" true (Path.is_acyclic p)

let test_path_extend_mismatch () =
  checkb "wrong target" true
    (match Path.extend join_mg (Path.atomic sel_allen) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_path_condition () =
  let p = Path.extend join_mg (Path.atomic sel_musical) in
  Alcotest.(check string)
    "condition sql" "movie.mid = genre.mid and genre.genre = 'musical'"
    (Cqp_sql.Printer.predicate_to_string (Path.condition p))

let test_path_would_cycle () =
  let p = Path.extend join_md (Path.atomic sel_allen) in
  (* Prepending a fresh relation is fine; one already on the path cycles. *)
  checkb "fresh ok" false
    (Path.would_cycle (Profile.join "genre" "mid" "movie" "mid" 0.9) p);
  checkb "revisit cycles" true
    (Path.would_cycle (Profile.join "director" "did" "movie" "did" 1.0) p)

(* Formula 9 composes by product, which Formula 2 bounds by the
   minimum constituent. *)
let test_path_min_compose () =
  let p = Path.extend join_mg (Path.atomic sel_musical) in
  checkf "product" 0.45 (Path.doi p);
  checkb "at most the min constituent" true (Path.doi p <= 0.5)

(* --- Pgraph ------------------------------------------------------------ *)

let graph = Pgraph.build catalog figure1

let test_pgraph_counts () =
  (* nodes: 3 relations + (3+2+2) attributes + 2 value nodes = 12 *)
  checki "nodes" 12 (List.length (Pgraph.nodes graph));
  checki "edges" 4 (List.length (Pgraph.edges graph))

let test_pgraph_paths () =
  let paths = Pgraph.acyclic_paths_from graph "movie" in
  (* from movie: join to genre + musical; join to director + W. Allen *)
  checki "two paths" 2 (List.length paths);
  let dois = List.sort compare (List.map Path.doi paths) in
  checkf "doi 1" 0.45 (List.nth dois 0);
  checkf "doi 2" 0.8 (List.nth dois 1)

let test_pgraph_paths_from_leaf () =
  let paths = Pgraph.acyclic_paths_from graph "genre" in
  checki "only local selection" 1 (List.length paths);
  checki "atomic" 1 (Path.length (List.hd paths))

let test_pgraph_max_length () =
  let paths = Pgraph.acyclic_paths_from ~max_length:1 graph "movie" in
  checki "no implicit prefs at length 1" 0 (List.length paths)

let test_pgraph_reachable () =
  Alcotest.(check (list string))
    "reachable" [ "director"; "genre"; "movie" ]
    (List.sort compare (Pgraph.reachable_relations graph "movie"));
  Alcotest.(check (list string))
    "leaf reaches itself" [ "genre" ]
    (Pgraph.reachable_relations graph "genre")

let test_pgraph_invalid_profile () =
  let bad = Profile.of_list [ `Sel (Profile.selection "zzz" "a" (V.Int 1) 0.1) ] in
  checkb "build rejects" true
    (match Pgraph.build catalog bad with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qc = Testlib.qc

let () =
  Testlib.seed_banner "prefs";
  Alcotest.run "prefs"
    [
      ( "doi",
        [
          Alcotest.test_case "compose" `Quick test_doi_compose;
          Alcotest.test_case "combine" `Quick test_doi_combine;
          qc prop_compose_bounded;
          qc prop_combine_monotone;
          qc prop_combine_bounded;
        ] );
      ( "profile",
        [
          Alcotest.test_case "parse figure 1" `Quick test_profile_parse;
          Alcotest.test_case "parse flipped" `Quick test_profile_parse_flip;
          Alcotest.test_case "parse rejects" `Quick test_profile_parse_reject;
          Alcotest.test_case "doi range" `Quick test_profile_doi_range;
          Alcotest.test_case "adjacency" `Quick test_profile_adjacency;
          Alcotest.test_case "validate" `Quick test_profile_validate;
        ] );
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "extend mismatch" `Quick test_path_extend_mismatch;
          Alcotest.test_case "condition" `Quick test_path_condition;
          Alcotest.test_case "would cycle" `Quick test_path_would_cycle;
          Alcotest.test_case "min compose" `Quick test_path_min_compose;
        ] );
      ( "pgraph",
        [
          Alcotest.test_case "counts" `Quick test_pgraph_counts;
          Alcotest.test_case "paths from movie" `Quick test_pgraph_paths;
          Alcotest.test_case "paths from leaf" `Quick test_pgraph_paths_from_leaf;
          Alcotest.test_case "max length" `Quick test_pgraph_max_length;
          Alcotest.test_case "reachable" `Quick test_pgraph_reachable;
          Alcotest.test_case "invalid profile" `Quick test_pgraph_invalid_profile;
        ] );
    ]

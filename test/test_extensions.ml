(* Tests for the extension features: result ranking (Section 3's r-based
   ranking), the footnote-1 merged construction, the Pareto front
   (Section 8 future work), plan explanation, and CSV I/O. *)

module V = Cqp_relal.Value
module C = Cqp_core
module Profile = Cqp_prefs.Profile
module Path = Cqp_prefs.Path
module Parser = Cqp_sql.Parser
module Engine = Cqp_exec.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* Movie fixture reused from the rewrite tests. *)
let catalog =
  let c = Cqp_relal.Catalog.create () in
  let add name cols rows =
    Cqp_relal.Catalog.add c
      (Cqp_relal.Relation.of_tuples (Cqp_relal.Schema.make name cols) rows)
  in
  add "movie"
    [ ("mid", V.Tint, 8); ("title", V.Tstring, 24); ("year", V.Tint, 8); ("did", V.Tint, 8) ]
    [
      Cqp_relal.Tuple.make [ V.Int 1; V.String "Annie Hall"; V.Int 1977; V.Int 1 ];
      Cqp_relal.Tuple.make [ V.Int 2; V.String "Everyone Says"; V.Int 1996; V.Int 1 ];
      Cqp_relal.Tuple.make [ V.Int 3; V.String "Chicago"; V.Int 2002; V.Int 2 ];
      Cqp_relal.Tuple.make [ V.Int 4; V.String "Cabaret"; V.Int 1972; V.Int 3 ];
    ];
  add "director"
    [ ("did", V.Tint, 8); ("name", V.Tstring, 24) ]
    [
      Cqp_relal.Tuple.make [ V.Int 1; V.String "W. Allen" ];
      Cqp_relal.Tuple.make [ V.Int 2; V.String "R. Marshall" ];
      Cqp_relal.Tuple.make [ V.Int 3; V.String "B. Fosse" ];
    ];
  add "genre"
    [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ]
    [
      Cqp_relal.Tuple.make [ V.Int 1; V.String "comedy" ];
      Cqp_relal.Tuple.make [ V.Int 2; V.String "musical" ];
      Cqp_relal.Tuple.make [ V.Int 3; V.String "musical" ];
      Cqp_relal.Tuple.make [ V.Int 4; V.String "musical" ];
    ];
  c

let path_allen =
  Path.extend
    (Profile.join "movie" "did" "director" "did" 1.0)
    (Path.atomic (Profile.selection "director" "name" (V.String "W. Allen") 0.8))

let path_musical =
  Path.extend
    (Profile.join "movie" "mid" "genre" "mid" 0.9)
    (Path.atomic (Profile.selection "genre" "genre" (V.String "musical") 0.5))

let q = Parser.parse "select title from movie"
let title row = V.to_string (Cqp_relal.Tuple.get row 0)

(* --- Ranker ------------------------------------------------------------ *)

let test_rank_any_of () =
  let r =
    C.Ranker.rank catalog q [ (path_allen, 0.8); (path_musical, 0.45) ]
  in
  (* Satisfiers: Allen -> Annie Hall, Everyone Says; musical ->
     Everyone Says, Chicago, Cabaret.  Everyone Says satisfies both and
     must rank first with noisy-or 1-(1-0.8)(1-0.45) = 0.89. *)
  checki "four ranked rows" 4 (List.length r.C.Ranker.ranked);
  let first = List.hd r.C.Ranker.ranked in
  Alcotest.(check string) "top row" "Everyone Says" (title first.C.Ranker.row);
  checkf "top score" 0.89 first.C.Ranker.score;
  Alcotest.(check (list int)) "satisfies both" [ 0; 1 ] first.C.Ranker.satisfied;
  (* scores are non-increasing *)
  let scores = List.map (fun rr -> rr.C.Ranker.score) r.C.Ranker.ranked in
  checkb "sorted" true (scores = List.sort (fun a b -> compare b a) scores)

let test_rank_all_of () =
  let r =
    C.Ranker.rank ~mode:C.Ranker.All_of catalog q
      [ (path_allen, 0.8); (path_musical, 0.45) ]
  in
  checki "only the intersection" 1 (List.length r.C.Ranker.ranked);
  Alcotest.(check string)
    "it" "Everyone Says"
    (title (List.hd r.C.Ranker.ranked).C.Ranker.row)

let test_rank_matches_personalized_query () =
  (* All_of ranking must return exactly the rows the Section 4.2
     personalized query returns. *)
  let paths = [ path_allen; path_musical ] in
  let strict = Engine.execute catalog (C.Rewrite.personalize ~dedup:true catalog q paths) in
  let ranked =
    C.Ranker.rank ~mode:C.Ranker.All_of catalog q
      [ (path_allen, 0.8); (path_musical, 0.45) ]
  in
  Alcotest.(check (list string))
    "same rows"
    (List.sort compare (List.map title strict.Engine.rows))
    (List.sort compare
       (List.map (fun rr -> title rr.C.Ranker.row) ranked.C.Ranker.ranked))

let test_rank_empty_paths () =
  let r = C.Ranker.rank catalog q [] in
  checki "plain query rows" 4 (List.length r.C.Ranker.ranked);
  List.iter (fun rr -> checkf "zero score" 0. rr.C.Ranker.score) r.C.Ranker.ranked

let test_rank_duplicate_branch_rows_counted_once () =
  (* Add a second musical row for Chicago: the musical sub-query yields
     Chicago twice but it must count once toward the preference. *)
  let c2 = Cqp_relal.Catalog.create () in
  List.iter
    (fun name ->
      Cqp_relal.Catalog.add c2 (Cqp_relal.Catalog.get catalog name))
    [ "movie"; "director" ];
  Cqp_relal.Catalog.add c2
    (Cqp_relal.Relation.of_tuples
       (Cqp_relal.Schema.make "genre" [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ])
       [
         Cqp_relal.Tuple.make [ V.Int 3; V.String "musical" ];
         Cqp_relal.Tuple.make [ V.Int 3; V.String "musical" ];
       ]);
  let r = C.Ranker.rank c2 q [ (path_musical, 0.5) ] in
  checki "one row" 1 (List.length r.C.Ranker.ranked);
  checkf "score = single doi" 0.5 (List.hd r.C.Ranker.ranked).C.Ranker.score

(* --- Merged construction (footnote 1) ----------------------------------- *)

let test_merged_equivalence () =
  let paths = [ path_allen; path_musical ] in
  let union_q = C.Rewrite.personalize ~dedup:true catalog q paths in
  let merged_q = C.Rewrite.personalize_merged catalog q paths in
  Cqp_sql.Analyzer.check catalog merged_q;
  let rows q = List.sort compare (List.map title (Engine.execute catalog q).Engine.rows) in
  Alcotest.(check (list string)) "same answers" (rows union_q) (rows merged_q)

let test_merged_cheaper () =
  let paths = [ path_allen; path_musical ] in
  let union_q = C.Rewrite.personalize catalog q paths in
  let merged_q = C.Rewrite.personalize_merged catalog q paths in
  let cost q = (Engine.execute catalog q).Engine.block_reads in
  checkb "merged reads fewer blocks" true (cost merged_q < cost union_q)

let test_merged_cost_estimate () =
  let est = C.Estimate.create catalog q in
  let paths = [ path_allen; path_musical ] in
  let merged = C.Estimate.merged_cost est paths in
  let union =
    List.fold_left (fun acc p -> acc +. C.Estimate.item_cost est p) 0. paths
  in
  checkb "estimate also cheaper" true (merged < union);
  (* merged = base + extras; union = 2*base + extras *)
  checkf "difference is one base scan"
    (C.Estimate.base_cost est)
    (union -. merged);
  (* And the estimate matches the engine's measured blocks. *)
  let real = (Engine.execute catalog (C.Rewrite.personalize_merged catalog q paths)).Engine.block_reads in
  checkf "matches engine" (float_of_int real) merged

let test_merged_same_relation_twice () =
  (* Two genre preferences: each needs its own genre instance. *)
  let path_comedy =
    Path.extend
      (Profile.join "movie" "mid" "genre" "mid" 0.9)
      (Path.atomic (Profile.selection "genre" "genre" (V.String "comedy") 0.5))
  in
  let c3 = Cqp_relal.Catalog.create () in
  List.iter
    (fun name -> Cqp_relal.Catalog.add c3 (Cqp_relal.Catalog.get catalog name))
    [ "movie"; "director" ];
  Cqp_relal.Catalog.add c3
    (Cqp_relal.Relation.of_tuples
       (Cqp_relal.Schema.make "genre" [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ])
       [
         Cqp_relal.Tuple.make [ V.Int 1; V.String "comedy" ];
         Cqp_relal.Tuple.make [ V.Int 1; V.String "musical" ];
         Cqp_relal.Tuple.make [ V.Int 2; V.String "musical" ];
       ]);
  let merged = C.Rewrite.personalize_merged c3 q [ path_musical; path_comedy ] in
  Cqp_sql.Analyzer.check c3 merged;
  let rows = Engine.execute c3 merged in
  (* Only Annie Hall (mid 1) is both comedy and musical. *)
  Alcotest.(check (list string)) "both genres" [ "Annie Hall" ]
    (List.map title rows.Engine.rows)

(* --- Pareto -------------------------------------------------------------- *)

let space_of ps = C.Space.create ~order:C.Space.By_doi ps

(* The doi/cost front: the skyline of [Nsga2.front]'s tri-objective
   front (exact at these K). *)
let front_2d ?constraints space =
  C.Pareto.skyline (C.Nsga2.front ?constraints space)

let ps0 =
  Testlib.fabricate
    ~costs:[| 40.; 25.; 35.; 15.; 10. |]
    ~dois:[| 0.9; 0.8; 0.6; 0.5; 0.4 |]
    ~fracs:[| 0.7; 0.5; 0.6; 0.8; 0.4 |]
    ()

let test_pareto_exact_front () =
  let space = space_of ps0 in
  let front = front_2d space in
  checkb "non-empty" true (front <> []);
  checkb "mutually non-dominated" true (C.Pareto.is_front front);
  (* The empty personalization (cheapest) and the full set (max doi)
     are both on the front. *)
  checkb "contains empty" true
    (List.exists (fun p -> p.C.Pareto.pref_ids = []) front);
  checkb "contains full" true
    (List.exists
       (fun p -> List.length p.C.Pareto.pref_ids = 5)
       front)

let test_pareto_front_covers_problem2 () =
  (* For any cmax, the Problem-2 optimum must be a front point (same
     doi at no greater cost). *)
  let space = space_of ps0 in
  let front = front_2d space in
  List.iter
    (fun cmax ->
      let opt = C.Exhaustive.solve space ~cmax in
      let doi = opt.C.Solution.params.C.Params.doi in
      checkb
        (Printf.sprintf "front covers cmax=%.0f" cmax)
        true
        (List.exists
           (fun p ->
             p.C.Pareto.params.C.Params.doi >= doi -. 1e-9
             && p.C.Pareto.params.C.Params.cost <= cmax +. 1e-9)
           front))
    [ 20.; 50.; 80.; 200. ]

let test_pareto_knee () =
  let space = space_of ps0 in
  let front = front_2d space in
  match C.Pareto.knee front with
  | Some k -> checkb "knee on front" true (List.exists (fun p -> p = k) front)
  | None -> Alcotest.fail "expected a knee"

let test_pareto_size_constraint () =
  let space = space_of ps0 in
  let base = C.Estimate.base_size ps0.C.Pref_space.estimate in
  let constraints = C.Params.make ~smax:(0.6 *. base) () in
  let front = front_2d ~constraints space in
  List.iter
    (fun p ->
      checkb "size bound holds" true
        (p.C.Pareto.params.C.Params.size <= (0.6 *. base) +. 1e-9))
    front

(* --- Explain ------------------------------------------------------------- *)

let test_explain_scan () =
  let plan = Cqp_exec.Explain.explain catalog (Parser.parse "select title from movie") in
  match plan with
  | Cqp_exec.Explain.Plan_select p ->
      checki "one source" 1 (List.length p.Cqp_exec.Explain.sources);
      let s = List.hd p.Cqp_exec.Explain.sources in
      checki "cardinality" 4 s.Cqp_exec.Explain.cardinality;
      checkb "no joins" true (p.Cqp_exec.Explain.joins = [])
  | _ -> Alcotest.fail "expected select plan"

let test_explain_join_and_pushdown () =
  let sql =
    "select m.title from movie m, director d where m.did = d.did and d.name = 'W. Allen'"
  in
  let plan = Cqp_exec.Explain.explain catalog (Parser.parse sql) in
  match plan with
  | Cqp_exec.Explain.Plan_select p ->
      (* name = 'W. Allen' pushes to the director scan *)
      let d = List.nth p.Cqp_exec.Explain.sources 1 in
      checki "pushed to d" 1 (List.length d.Cqp_exec.Explain.pushed_down);
      (match p.Cqp_exec.Explain.joins with
      | [ j ] -> (
          match j.Cqp_exec.Explain.method_ with
          | `Hash [ _ ] -> ()
          | _ -> Alcotest.fail "expected single-key hash join")
      | _ -> Alcotest.fail "expected one join step");
      checkb "no residual" true (p.Cqp_exec.Explain.residual = [])
  | _ -> Alcotest.fail "expected select plan"

let test_explain_union_and_string () =
  let sql = "select title from movie union all select name from director" in
  let plan = Cqp_exec.Explain.explain catalog (Parser.parse sql) in
  (match plan with
  | Cqp_exec.Explain.Plan_union [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected 2-branch union");
  let s = Cqp_exec.Explain.to_string catalog (Parser.parse sql) in
  checkb "mentions scans" true
    (String.length s > 0
    &&
    let contains needle hay =
      let n = String.length needle and m = String.length hay in
      let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    contains "scan movie" s && contains "scan director" s)

let test_explain_cartesian () =
  let plan =
    Cqp_exec.Explain.explain catalog
      (Parser.parse "select m.title from movie m, director d")
  in
  match plan with
  | Cqp_exec.Explain.Plan_select { joins = [ j ]; _ } ->
      checkb "cartesian" true (j.Cqp_exec.Explain.method_ = `Cartesian)
  | _ -> Alcotest.fail "expected one cartesian join"

(* --- CSV ----------------------------------------------------------------- *)

module Csv = Cqp_relal.Csv

let test_csv_parse_line () =
  Alcotest.(check (list string))
    "plain" [ "a"; "b"; "c" ] (Csv.parse_line "a,b,c");
  Alcotest.(check (list string))
    "quoted" [ "a,b"; "c\"d"; "" ]
    (Csv.parse_line "\"a,b\",\"c\"\"d\",");
  Alcotest.(check (list string)) "empty fields" [ ""; "" ] (Csv.parse_line ",")

let test_csv_roundtrip () =
  let schema =
    Cqp_relal.Schema.make "t"
      [ ("id", V.Tint, 8); ("name", V.Tstring, 24); ("score", V.Tfloat, 8) ]
  in
  let rel =
    Cqp_relal.Relation.of_tuples schema
      [
        Cqp_relal.Tuple.make [ V.Int 1; V.String "plain"; V.Float 1.5 ];
        Cqp_relal.Tuple.make [ V.Int 2; V.String "has,comma"; V.Float 2.5 ];
        Cqp_relal.Tuple.make [ V.Int 3; V.String "has\"quote"; V.Null ];
      ]
  in
  let doc = Csv.to_string rel in
  let rel2 = Csv.load_string schema doc in
  checki "cardinality" 3 (Cqp_relal.Relation.cardinality rel2);
  let rows r = List.map Cqp_relal.Tuple.to_list (Cqp_relal.Relation.to_list r) in
  checkb "identical" true
    (List.for_all2
       (fun a b -> List.for_all2 V.equal a b)
       (rows rel) (rows rel2))

let test_csv_type_errors () =
  let schema = Cqp_relal.Schema.make "t" [ ("id", V.Tint, 8) ] in
  checkb "bad int" true
    (match Csv.load_string schema "id\nnot_a_number\n" with
    | exception Csv.Csv_error (_, 2) -> true
    | _ -> false);
  checkb "bad header" true
    (match Csv.load_string schema "wrong\n1\n" with
    | exception Csv.Csv_error (_, 1) -> true
    | _ -> false);
  checkb "arity" true
    (match Csv.load_string schema "id\n1,2\n" with
    | exception Csv.Csv_error (_, 2) -> true
    | _ -> false)

let test_csv_no_header_and_nulls () =
  let schema =
    Cqp_relal.Schema.make "t" [ ("id", V.Tint, 8); ("x", V.Tfloat, 8) ]
  in
  let rel = Csv.load_string ~header:false schema "1,\n2,3.5\n" in
  checki "rows" 2 (Cqp_relal.Relation.cardinality rel);
  let first = List.hd (Cqp_relal.Relation.to_list rel) in
  checkb "empty cell is NULL" true (V.is_null (Cqp_relal.Tuple.get first 1))

(* --- Report ------------------------------------------------------------ *)

let test_report_structure () =
  let ps =
    Testlib.fabricate
      ~costs:[| 30.; 25.; 40. |]
      ~dois:[| 0.9; 0.8; 0.7 |]
      ~fracs:[| 0.5; 0.6; 0.7 |]
      ()
  in
  let problem = C.Problem.problem2 ~cmax:60. in
  let sol = Option.get (C.Solver.solve ps problem) in
  let report = C.Report.build problem ps sol in
  checki "chosen + rejected = K" 3
    (List.length report.C.Report.chosen + List.length report.C.Report.rejected);
  List.iter
    (fun (r : C.Report.rejected) ->
      checkb "reason non-empty" true (String.length r.C.Report.reason > 0))
    report.C.Report.rejected;
  (* The chosen set {p1,p2} costs 55 <= 60; p3 would push it to 95. *)
  checki "two chosen" 2 (List.length report.C.Report.chosen);
  let s = C.Report.to_string report in
  checkb "mentions budget" true
    (let contains needle hay =
       let n = String.length needle and m = String.length hay in
       let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains "exceed the cost budget" s)

let test_report_min_cost_reason () =
  let ps =
    Testlib.fabricate
      ~costs:[| 30.; 25. |]
      ~dois:[| 0.9; 0.8 |]
      ~fracs:[| 0.5; 0.6 |]
      ()
  in
  let problem = C.Problem.problem4 ~dmin:0.85 in
  let sol = Option.get (C.Solver.solve ps problem) in
  let report = C.Report.build problem ps sol in
  checki "one chosen (the 0.9)" 1 (List.length report.C.Report.chosen);
  match report.C.Report.rejected with
  | [ r ] ->
      checkb "not-needed reason" true
        (String.length r.C.Report.reason > 0
        && String.sub r.C.Report.reason 0 10 = "not needed")
  | _ -> Alcotest.fail "expected one rejection"

(* --- Catalog persistence --------------------------------------------------- *)

module Catalog_io = Cqp_relal.Catalog_io

let test_catalog_roundtrip () =
  let dir = Filename.temp_file "cqp_catalog" "" in
  Sys.remove dir;
  Catalog_io.save catalog dir;
  let loaded = Catalog_io.load dir in
  Alcotest.(check (list string))
    "same relations"
    (Cqp_relal.Catalog.names catalog)
    (Cqp_relal.Catalog.names loaded);
  List.iter
    (fun name ->
      let a = Cqp_relal.Catalog.get catalog name in
      let b = Cqp_relal.Catalog.get loaded name in
      checki (name ^ " cardinality")
        (Cqp_relal.Relation.cardinality a)
        (Cqp_relal.Relation.cardinality b);
      checki (name ^ " blocks")
        (Cqp_relal.Relation.blocks a)
        (Cqp_relal.Relation.blocks b);
      checkb (name ^ " rows equal") true
        (List.for_all2
           (fun x y -> Cqp_relal.Tuple.equal x y)
           (Cqp_relal.Relation.to_list a)
           (Cqp_relal.Relation.to_list b)))
    (Cqp_relal.Catalog.names catalog);
  (* A query over the reloaded catalog gives the same answer. *)
  let rows cat =
    List.map title (Engine.execute cat q).Engine.rows |> List.sort compare
  in
  Alcotest.(check (list string)) "query agrees" (rows catalog) (rows loaded)

let test_manifest_line_roundtrip () =
  let rel = Cqp_relal.Catalog.get catalog "movie" in
  let line = Catalog_io.manifest_line rel in
  let schema, block_size = Catalog_io.parse_manifest_line line in
  checkb "schema equal" true
    (Cqp_relal.Schema.equal schema (Cqp_relal.Relation.schema rel));
  checki "block size" (Cqp_relal.Relation.block_size rel) block_size

let test_manifest_errors () =
  checkb "bad line" true
    (match Catalog_io.parse_manifest_line "garbage" with
    | exception Catalog_io.Manifest_error _ -> true
    | _ -> false);
  checkb "bad type" true
    (match Catalog_io.parse_manifest_line "t|64|a:zzz:8" with
    | exception Catalog_io.Manifest_error _ -> true
    | _ -> false);
  checkb "missing dir" true
    (match Catalog_io.load "/nonexistent/cqp" with
    | exception Catalog_io.Manifest_error _ -> true
    | _ -> false)

(* --- State.mask ----------------------------------------------------------- *)

let test_state_mask () =
  checki "mask" 0b1011 (C.State.mask [ 0; 1; 3 ]);
  checkb "subset via mask" true
    (let a = C.State.mask [ 1; 3 ] and b = C.State.mask [ 0; 1; 3 ] in
     a land b = a)

let () =
  Testlib.seed_banner "extensions";
  Alcotest.run "extensions"
    [
      ( "ranker",
        [
          Alcotest.test_case "any-of ranking" `Quick test_rank_any_of;
          Alcotest.test_case "all-of ranking" `Quick test_rank_all_of;
          Alcotest.test_case "matches personalized query" `Quick test_rank_matches_personalized_query;
          Alcotest.test_case "empty paths" `Quick test_rank_empty_paths;
          Alcotest.test_case "duplicates once" `Quick test_rank_duplicate_branch_rows_counted_once;
        ] );
      ( "merged",
        [
          Alcotest.test_case "equivalence" `Quick test_merged_equivalence;
          Alcotest.test_case "cheaper" `Quick test_merged_cheaper;
          Alcotest.test_case "cost estimate" `Quick test_merged_cost_estimate;
          Alcotest.test_case "same relation twice" `Quick test_merged_same_relation_twice;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "exact front" `Quick test_pareto_exact_front;
          Alcotest.test_case "covers problem 2" `Quick test_pareto_front_covers_problem2;
          Alcotest.test_case "knee" `Quick test_pareto_knee;
          Alcotest.test_case "size constraint" `Quick test_pareto_size_constraint;
        ] );
      ( "explain",
        [
          Alcotest.test_case "scan" `Quick test_explain_scan;
          Alcotest.test_case "join + pushdown" `Quick test_explain_join_and_pushdown;
          Alcotest.test_case "union + rendering" `Quick test_explain_union_and_string;
          Alcotest.test_case "cartesian" `Quick test_explain_cartesian;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse line" `Quick test_csv_parse_line;
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "type errors" `Quick test_csv_type_errors;
          Alcotest.test_case "no header / nulls" `Quick test_csv_no_header_and_nulls;
        ] );
      ( "report",
        [
          Alcotest.test_case "structure" `Quick test_report_structure;
          Alcotest.test_case "min-cost reasons" `Quick test_report_min_cost_reason;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "catalog roundtrip" `Quick test_catalog_roundtrip;
          Alcotest.test_case "manifest line" `Quick test_manifest_line_roundtrip;
          Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
        ] );
      ("state", [ Alcotest.test_case "mask" `Quick test_state_mask ]);
    ]

(* Tests for the SQL lexer, parser, printer and semantic analyzer. *)

module Ast = Cqp_sql.Ast
module Lexer = Cqp_sql.Lexer
module Parser = Cqp_sql.Parser
module Printer = Cqp_sql.Printer
module Analyzer = Cqp_sql.Analyzer
module V = Cqp_relal.Value

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- Lexer ----------------------------------------------------------- *)

let tokens s = List.map fst (Lexer.tokenize s)

let test_lexer_basics () =
  checkb "select kw" true
    (tokens "SELECT title" = [ Lexer.Kw "SELECT"; Lexer.Ident "title"; Lexer.Eof ]);
  checkb "case-insensitive kw" true
    (tokens "sElEcT x" = [ Lexer.Kw "SELECT"; Lexer.Ident "x"; Lexer.Eof ]);
  checkb "idents lowercased" true (tokens "MOVIE" = [ Lexer.Ident "movie"; Lexer.Eof ])

let test_lexer_literals () =
  checkb "int" true (tokens "42" = [ Lexer.Int_lit 42; Lexer.Eof ]);
  checkb "float" true (tokens "3.25" = [ Lexer.Float_lit 3.25; Lexer.Eof ]);
  checkb "negative int" true (tokens "-7" = [ Lexer.Int_lit (-7); Lexer.Eof ]);
  checkb "negative float" true
    (tokens "-1.5" = [ Lexer.Float_lit (-1.5); Lexer.Eof ]);
  checkb "comment still wins" true
    (tokens "--7\n 2" = [ Lexer.Int_lit 2; Lexer.Eof ]);
  checkb "string" true
    (tokens "'W. Allen'" = [ Lexer.String_lit "W. Allen"; Lexer.Eof ]);
  checkb "escaped quote" true
    (tokens "'O''Hara'" = [ Lexer.String_lit "O'Hara"; Lexer.Eof ])

let test_lexer_operators () =
  checkb "two-char ops" true
    (tokens "<> != <= >=" =
       [ Lexer.Punct "<>"; Lexer.Punct "!="; Lexer.Punct "<="; Lexer.Punct ">="; Lexer.Eof ]);
  checkb "dots and stars" true
    (tokens "m.title, *" =
       [ Lexer.Ident "m"; Lexer.Punct "."; Lexer.Ident "title"; Lexer.Punct ","; Lexer.Punct "*"; Lexer.Eof ])

let test_lexer_comment () =
  checkb "line comment skipped" true
    (tokens "select -- a comment\n x" = [ Lexer.Kw "SELECT"; Lexer.Ident "x"; Lexer.Eof ])

let test_lexer_errors () =
  checkb "unterminated string" true
    (match Lexer.tokenize "'oops" with
    | exception Lexer.Lex_error (_, 0) -> true
    | _ -> false);
  checkb "bad char" true
    (match Lexer.tokenize "select #" with
    | exception Lexer.Lex_error (_, 7) -> true
    | _ -> false)

(* --- Parser ---------------------------------------------------------- *)

let parses s = match Parser.parse s with _ -> true | exception _ -> false

let roundtrip s =
  let q = Parser.parse s in
  let q' = Parser.parse (Printer.to_string q) in
  Ast.equal (Ast.flatten_union q) (Ast.flatten_union q')

let test_parser_shapes () =
  List.iter
    (fun s -> checkb s true (parses s))
    [
      "select title from movie";
      "select * from movie";
      "select distinct title from movie m";
      "select m.title as t, d.name from movie m, director d where m.did = d.did";
      "select title from movie where year >= 1990 and duration < 120";
      "select title from movie where genre in ('comedy', 'drama')";
      "select title from movie where title like 'The%'";
      "select title from movie where did is not null";
      "select genre, count(*) from genre group by genre having count(*) > 2";
      "select title from movie order by year desc, title asc limit 10";
      "select title from movie union all select name from director";
      "select t from (select title t from movie) u group by t having count(*) = 2";
      "select title from movie where not (year = 1999 or year = 2000)";
      "select min(year), max(year), avg(duration), sum(duration), count(mid) from movie";
    ]

let test_parser_roundtrip () =
  List.iter
    (fun s -> checkb s true (roundtrip s))
    [
      "select title from movie";
      "select m.title from movie m, genre g where m.mid = g.mid and g.genre = 'musical'";
      "select title from movie where year >= 1990 or year <= 1950 and duration <> 90";
      "select title from (select title from movie union all select title from movie) u group by title having count(*) = 2 order by title asc";
      "select title from movie where genre in ('a', 'b') limit 3";
    ]

let test_parser_precedence () =
  match Parser.parse_predicate "a = 1 or b = 2 and c = 3" with
  | Ast.Or (_, Ast.And (_, _)) -> ()
  | _ -> Alcotest.fail "AND should bind tighter than OR"

let test_parser_between () =
  (match Parser.parse_predicate "year between 1990 and 2000" with
  | Ast.And (Ast.Cmp (Ast.Ge, _, Ast.Lit (V.Int 1990)),
             Ast.Cmp (Ast.Le, _, Ast.Lit (V.Int 2000))) ->
      ()
  | _ -> Alcotest.fail "BETWEEN desugars to >= and <=");
  match Parser.parse_predicate "year not between 1990 and 2000" with
  | Ast.Not (Ast.And (_, _)) -> ()
  | _ -> Alcotest.fail "NOT BETWEEN"

let test_parser_not_in () =
  match Parser.parse_predicate "g not in (1, 2)" with
  | Ast.Not (Ast.In_list (_, [ V.Int 1; V.Int 2 ])) -> ()
  | _ -> Alcotest.fail "NOT IN"

let test_parser_errors () =
  List.iter
    (fun s ->
      checkb s true
        (match Parser.parse s with
        | exception Parser.Parse_error _ -> true
        | _ -> false))
    [
      "select";
      "select from movie";
      "select title movie";
      "select title from movie where";
      "select title from (select title from movie)";
      "select title from movie group by";
      "select title from movie union select title from movie";
    ]

(* --- Analyzer -------------------------------------------------------- *)

let catalog =
  let c = Cqp_relal.Catalog.create () in
  Cqp_relal.Catalog.add c
    (Cqp_relal.Relation.of_tuples
       (Cqp_relal.Schema.make "movie"
          [ ("mid", V.Tint, 8); ("title", V.Tstring, 24); ("year", V.Tint, 8); ("did", V.Tint, 8) ])
       [ Cqp_relal.Tuple.make [ V.Int 1; V.String "x"; V.Int 2000; V.Int 1 ] ]);
  Cqp_relal.Catalog.add c
    (Cqp_relal.Relation.of_tuples
       (Cqp_relal.Schema.make "director" [ ("did", V.Tint, 8); ("name", V.Tstring, 24) ])
       [ Cqp_relal.Tuple.make [ V.Int 1; V.String "d" ] ]);
  c

let accepts s =
  match Analyzer.check catalog (Parser.parse s) with
  | () -> true
  | exception Analyzer.Semantic_error _ -> false

let test_analyzer_accepts () =
  List.iter
    (fun s -> checkb s true (accepts s))
    [
      "select title from movie";
      "select * from movie m, director d where m.did = d.did";
      "select title from movie where year = 2000";
      "select year, count(*) from movie group by year having count(*) >= 1";
      "select name from (select name from director) u";
      "select title from movie union all select name from director";
      "select title as t from movie order by t desc";
      "select year, count(*) as n from movie group by year order by n, year";
    ]

let test_analyzer_rejects () =
  List.iter
    (fun s -> checkb s false (accepts s))
    [
      "select title from nosuch";
      "select nosuch from movie";
      "select title from movie m, movie m";
      "select m.nosuch from movie m";
      "select title from movie where year = 'nineteen'";
      "select title from movie where count(*) > 1";
      "select title, count(*) from movie";
      "select title from movie group by year";
      "select title from movie having count(*) = 1";
      "select mid from movie union all select name from director";
      "select mid, title from movie union all select did from director";
      "select did from movie m, director d";
      "select title as t from movie order by nope";
      "select title as t from movie m order by m.t";
    ]

let test_analyzer_output_schema () =
  let schema =
    Analyzer.output_schema catalog
      (Parser.parse "select m.title as t, count(*) c from movie m group by m.title")
  in
  checki "arity" 2 (List.length schema);
  checks "alias name" "t" (fst (List.nth schema 0));
  checks "count name" "c" (fst (List.nth schema 1));
  checkb "count type" true (snd (List.nth schema 1) = V.Tint)

let test_analyzer_star_expansion () =
  let schema = Analyzer.output_schema catalog (Parser.parse "select * from director") in
  Alcotest.(check (list string)) "star" [ "did"; "name" ] (List.map fst schema)

(* --- qcheck: printer/parser agreement on generated predicates --------- *)

let pred_gen : Ast.predicate QCheck.Gen.t =
  let open QCheck.Gen in
  let cmp =
    map2
      (fun a b -> Ast.Cmp (Ast.Eq, Ast.Col (None, "c" ^ string_of_int a), Ast.Lit (V.Int b)))
      (int_range 0 5) small_int
  in
  let rec pred n =
    if n = 0 then cmp
    else
      frequency
        [
          (2, cmp);
          (1, map2 (fun a b -> Ast.And (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, map2 (fun a b -> Ast.Or (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, map (fun a -> Ast.Not a) (pred (n - 1)));
        ]
  in
  pred 3

let prop_predicate_roundtrip =
  QCheck.Test.make ~name:"predicate print/parse roundtrip" ~count:300
    (QCheck.make pred_gen) (fun p ->
      let s = Printer.predicate_to_string p in
      Ast.equal_predicate p (Parser.parse_predicate s))

let qc = Testlib.qc

let () =
  Testlib.seed_banner "sqlkit";
  Alcotest.run "sqlkit"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comment" `Quick test_lexer_comment;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "shapes" `Quick test_parser_shapes;
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "not in" `Quick test_parser_not_in;
          Alcotest.test_case "between" `Quick test_parser_between;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          qc prop_predicate_roundtrip;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "accepts" `Quick test_analyzer_accepts;
          Alcotest.test_case "rejects" `Quick test_analyzer_rejects;
          Alcotest.test_case "output schema" `Quick test_analyzer_output_schema;
          Alcotest.test_case "star" `Quick test_analyzer_star_expansion;
        ] );
    ]

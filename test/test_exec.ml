(* Tests for the execution engine: operator semantics, SQL edge cases,
   and block-I/O accounting. *)

module V = Cqp_relal.Value
module Tuple = Cqp_relal.Tuple
module Schema = Cqp_relal.Schema
module Relation = Cqp_relal.Relation
module Catalog = Cqp_relal.Catalog
module Parser = Cqp_sql.Parser
module Engine = Cqp_exec.Engine
module Eval = Cqp_exec.Eval
module Io = Cqp_exec.Io

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let catalog =
  let c = Catalog.create () in
  let movie =
    Schema.make "movie"
      [ ("mid", V.Tint, 8); ("title", V.Tstring, 24); ("year", V.Tint, 8); ("did", V.Tint, 8) ]
  in
  let director = Schema.make "director" [ ("did", V.Tint, 8); ("name", V.Tstring, 24) ] in
  let genre = Schema.make "genre" [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ] in
  Catalog.add c
    (Relation.of_tuples ~block_size:64 movie
       [
         Tuple.make [ V.Int 1; V.String "Annie Hall"; V.Int 1977; V.Int 1 ];
         Tuple.make [ V.Int 2; V.String "Chicago"; V.Int 2002; V.Int 2 ];
         Tuple.make [ V.Int 3; V.String "Manhattan"; V.Int 1979; V.Int 1 ];
         Tuple.make [ V.Int 4; V.String "Orphan"; V.Int 2009; V.Null ];
       ]);
  Catalog.add c
    (Relation.of_tuples ~block_size:64 director
       [
         Tuple.make [ V.Int 1; V.String "W. Allen" ];
         Tuple.make [ V.Int 2; V.String "R. Marshall" ];
         Tuple.make [ V.Int 3; V.String "Unused" ];
       ]);
  Catalog.add c
    (Relation.of_tuples ~block_size:64 genre
       [
         Tuple.make [ V.Int 1; V.String "comedy" ];
         Tuple.make [ V.Int 2; V.String "musical" ];
         Tuple.make [ V.Int 3; V.String "comedy" ];
         Tuple.make [ V.Int 3; V.String "drama" ];
       ]);
  c

let run sql = Engine.execute catalog (Parser.parse sql)

let titles result =
  List.map (fun row -> V.to_string (Tuple.get row 0)) result.Engine.rows
  |> List.sort String.compare

let test_scan_project () =
  let r = run "select title from movie" in
  checki "rows" 4 (List.length r.Engine.rows);
  Alcotest.(check (list string))
    "titles"
    [ "Annie Hall"; "Chicago"; "Manhattan"; "Orphan" ]
    (titles r)

let test_filter () =
  Alcotest.(check (list string))
    "eq" [ "Chicago" ]
    (titles (run "select title from movie where year = 2002"));
  Alcotest.(check (list string))
    "range"
    [ "Annie Hall"; "Manhattan" ]
    (titles (run "select title from movie where year < 1990"));
  Alcotest.(check (list string))
    "neq excludes nulls correctly"
    [ "Annie Hall"; "Chicago"; "Orphan" ]
    (titles (run "select title from movie where mid <> 3"))

let test_hash_join () =
  let r =
    run
      "select m.title from movie m, director d where m.did = d.did and d.name = 'W. Allen'"
  in
  Alcotest.(check (list string)) "join" [ "Annie Hall"; "Manhattan" ] (titles r)

let test_join_null_keys_never_match () =
  let r = run "select m.title from movie m, director d where m.did = d.did" in
  (* Orphan has NULL did and must not join. *)
  Alcotest.(check (list string))
    "no null match"
    [ "Annie Hall"; "Chicago"; "Manhattan" ]
    (titles r)

let test_cartesian () =
  let r = run "select m.title from movie m, director d" in
  checki "4*3" 12 (List.length r.Engine.rows)

let test_multiway_join () =
  let r =
    run
      "select m.title from movie m, director d, genre g where m.did = d.did and m.mid = g.mid and g.genre = 'comedy'"
  in
  Alcotest.(check (list string)) "3-way" [ "Annie Hall"; "Manhattan" ] (titles r)

let test_group_by_having () =
  let r =
    run "select g.genre, count(*) from genre g group by g.genre having count(*) = 2"
  in
  checki "one group" 1 (List.length r.Engine.rows);
  Alcotest.(check string)
    "comedy" "comedy"
    (V.to_string (Tuple.get (List.hd r.Engine.rows) 0))

let test_aggregates () =
  let r = run "select min(year), max(year), count(*), count(did) from movie" in
  let row = List.hd r.Engine.rows in
  checkb "min" true (V.equal (V.Int 1977) (Tuple.get row 0));
  checkb "max" true (V.equal (V.Int 2009) (Tuple.get row 1));
  checkb "count(*)" true (V.equal (V.Int 4) (Tuple.get row 2));
  (* count(did) skips the NULL *)
  checkb "count(col) skips null" true (V.equal (V.Int 3) (Tuple.get row 3))

let test_aggregate_empty_input () =
  let r = run "select count(*) from movie where year = 1800" in
  checki "single row" 1 (List.length r.Engine.rows);
  checkb "zero" true (V.equal (V.Int 0) (Tuple.get (List.hd r.Engine.rows) 0))

let test_avg_sum () =
  let r = run "select avg(year), sum(year) from movie where did = 1" in
  let row = List.hd r.Engine.rows in
  checkb "avg" true (V.equal (V.Float 1978.) (Tuple.get row 0));
  checkb "sum" true (V.equal (V.Float 3956.) (Tuple.get row 1))

let test_distinct () =
  let r = run "select distinct g.genre from genre g" in
  checki "distinct genres" 3 (List.length r.Engine.rows)

let test_order_limit () =
  let r = run "select title from movie order by year desc limit 2" in
  Alcotest.(check (list string))
    "top2 by year"
    [ "Chicago"; "Orphan" ]
    (titles r);
  let r2 = run "select title from movie order by year asc limit 1" in
  Alcotest.(check (list string)) "oldest" [ "Annie Hall" ] (titles r2)

(* ORDER BY may name an output column: an alias, an aggregate's alias,
   or an alias that shadows a FROM column (the output wins). *)
let test_order_by_alias () =
  let cells r =
    List.map (fun row -> List.map V.to_string (Tuple.to_list row)) r.Engine.rows
  in
  Alcotest.(check (list (list string)))
    "by alias, descending"
    [ [ "Orphan" ]; [ "Manhattan" ]; [ "Chicago" ]; [ "Annie Hall" ] ]
    (cells (run "select title as t from movie order by t desc"));
  Alcotest.(check (list (list string)))
    "by count(*) as n"
    [ [ "drama"; "1" ]; [ "musical"; "1" ]; [ "comedy"; "2" ] ]
    (cells
       (run
          "select genre, count(*) as n from genre group by genre order by n, \
           genre"));
  Alcotest.(check (list (list string)))
    "alias shadows a FROM column" [ [ "1977" ] ]
    (cells (run "select year as title from movie order by title limit 1"))

let test_union_all () =
  let r =
    run "select title from movie where year = 1977 union all select title from movie where did = 1"
  in
  (* bag semantics: Annie Hall appears twice *)
  checki "bag union" 3 (List.length r.Engine.rows)

let test_union_groupby_having_intersection () =
  (* The personalized-query shape: intersect via count = 2. *)
  let r =
    run
      "select title from (select title from movie m, director d where m.did = d.did and d.name = 'W. Allen' union all select title from movie m, genre g where m.mid = g.mid and g.genre = 'comedy') u group by title having count(*) = 2"
  in
  Alcotest.(check (list string))
    "intersection"
    [ "Annie Hall"; "Manhattan" ]
    (titles r)

let test_in_and_like () =
  Alcotest.(check (list string))
    "in" [ "Annie Hall"; "Chicago" ]
    (titles (run "select title from movie where mid in (1, 2)"));
  Alcotest.(check (list string))
    "like prefix" [ "Manhattan" ]
    (titles (run "select title from movie where title like 'Man%'"));
  Alcotest.(check (list string))
    "like infix (case-sensitive)"
    [ "Manhattan"; "Orphan" ]
    (titles (run "select title from movie where title like '%an%'"));
  Alcotest.(check (list string))
    "like underscore" [ "Chicago" ]
    (titles (run "select title from movie where title like 'Chicag_'"))

let test_is_null () =
  Alcotest.(check (list string))
    "is null" [ "Orphan" ]
    (titles (run "select title from movie where did is null"));
  checki "is not null" 3
    (List.length (run "select title from movie where did is not null").Engine.rows)

let test_null_semantics () =
  (* NULL comparisons are unknown, not true: Orphan filtered out. *)
  checki "null = filtered" 0
    (List.length (run "select title from movie where did = 99").Engine.rows);
  checki "null <> also filtered" 3
    (List.length (run "select title from movie where did <> 99").Engine.rows)

let test_block_accounting () =
  let movie_blocks = Catalog.blocks catalog "movie" in
  let dir_blocks = Catalog.blocks catalog "director" in
  let r = run "select title from movie" in
  checki "single scan" movie_blocks r.Engine.block_reads;
  let r2 = run "select m.title from movie m, director d where m.did = d.did" in
  checki "join scans both once" (movie_blocks + dir_blocks) r2.Engine.block_reads;
  let r3 =
    run "select title from movie union all select title from movie"
  in
  checki "union scans per branch" (2 * movie_blocks) r3.Engine.block_reads

let test_io_accumulator () =
  let io = Io.create () in
  ignore (Engine.execute ~io catalog (Parser.parse "select title from movie"));
  ignore (Engine.execute ~io catalog (Parser.parse "select title from movie"));
  checki "accumulates" (2 * Catalog.blocks catalog "movie") (Io.block_reads io);
  Alcotest.(check (float 1e-9))
    "cost_ms"
    (float_of_int (2 * Catalog.blocks catalog "movie"))
    (Io.cost_ms io)

(* --- further edge cases ------------------------------------------------ *)

let test_self_join () =
  (* Movies sharing a director, paired. *)
  let r =
    run
      "select a.title, b.title from movie a, movie b where a.did = b.did and a.mid < b.mid"
  in
  checki "one W. Allen pair" 1 (List.length r.Engine.rows);
  let row = List.hd r.Engine.rows in
  checkb "pair" true
    (V.to_string (Tuple.get row 0) = "Annie Hall"
    && V.to_string (Tuple.get row 1) = "Manhattan")

let test_min_max_strings () =
  let r = run "select min(title), max(title) from movie" in
  let row = List.hd r.Engine.rows in
  checkb "min string" true (V.equal (V.String "Annie Hall") (Tuple.get row 0));
  checkb "max string" true (V.equal (V.String "Orphan") (Tuple.get row 1))

let test_order_by_null_first () =
  (* NULL sorts first under Value.compare (ascending). *)
  let r = run "select title from movie order by did asc" in
  Alcotest.(check string)
    "null did first" "Orphan"
    (V.to_string (Tuple.get (List.hd r.Engine.rows) 0))

let test_three_branch_union () =
  let r =
    run
      "select title from movie where mid = 1 union all select title from movie where mid = 2 union all select title from movie where mid = 1"
  in
  checki "bag of three" 3 (List.length r.Engine.rows)

let test_subquery_column_scope () =
  (* Columns of a derived table are addressed through its alias. *)
  let r =
    run
      "select u.t from (select title as t, year from movie) u where u.year > 2000"
  in
  Alcotest.(check (list string)) "from subquery" [ "Chicago"; "Orphan" ] (titles r)

let test_group_by_two_keys () =
  let r = run "select did, year, count(*) from movie group by did, year" in
  checki "four groups" 4 (List.length r.Engine.rows)

let test_empty_relation_behaviour () =
  let c2 = Catalog.create () in
  Catalog.add c2
    (Relation.create
       (Schema.make "empty" [ ("x", V.Tint, 8) ]));
  let r = Engine.execute c2 (Parser.parse "select x from empty") in
  checki "no rows" 0 (List.length r.Engine.rows);
  checki "no blocks" 0 r.Engine.block_reads;
  let agg = Engine.execute c2 (Parser.parse "select count(*), min(x) from empty") in
  let row = List.hd agg.Engine.rows in
  checkb "count 0" true (V.equal (V.Int 0) (Tuple.get row 0));
  checkb "min null" true (V.is_null (Tuple.get row 1))

(* Resolving columns once per query keeps column errors as lazy as
   per-row evaluation made them: a reference that no row reaches does
   not fail, and one that a row reaches fails with the row-time
   message. *)
let test_lazy_column_errors () =
  checki "unknown output, no rows" 0
    (List.length (run "select nope from movie where 1 = 0").Engine.rows);
  checki "ambiguous output, no rows" 0
    (List.length (run "select mid from movie, genre where 1 = 0").Engine.rows);
  let raises msg sql =
    match run sql with
    | _ -> Alcotest.failf "%s: expected Eval_error %S" sql msg
    | exception Eval.Eval_error m -> Alcotest.(check string) sql msg m
  in
  raises "unknown column nope" "select nope from movie";
  raises "ambiguous column reference mid"
    "select mid from movie, genre where year = 1977"

let test_between_execution () =
  Alcotest.(check (list string))
    "between"
    [ "Annie Hall"; "Manhattan" ]
    (titles (run "select title from movie where year between 1975 and 1980"))

(* HAVING and WHERE share one three-valued logic: [x not in (1, null)]
   is never true, so no group and no row survives it. *)
let test_having_in_list_with_null () =
  checki "having not in (1, null)" 0
    (List.length
       (run
          "select genre, count(*) from genre group by genre \
           having count(*) not in (1, null)")
         .Engine.rows);
  checki "where not in (1, null)" 0
    (List.length (run "select mid from movie where mid not in (1, null)").Engine.rows);
  Alcotest.(check (list string))
    "having in (2, null)" [ "comedy" ]
    (titles
       (run
          "select genre, count(*) from genre group by genre \
           having count(*) in (2, null)"))

let test_having_over_aggregate_of_other_column () =
  let r =
    run
      "select g.genre from genre g group by g.genre having min(g.mid) = 1"
  in
  Alcotest.(check (list string)) "genres of movie 1" [ "comedy" ] (titles r)

(* --- equality classes of the hash index ------------------------------ *)

(* Relations of a key [k] and a [tag] naming the row, with keys of
   several representations.  [kf]'s filler rows give its join index
   2048 buckets, so a key hashed apart from its equal almost never
   shares a bucket with it by chance. *)
let classes =
  let c = Catalog.create () in
  let rel name ty rows =
    Catalog.add c
      (Relation.of_tuples
         (Schema.make name [ ("k", ty, 8); ("tag", V.Tstring, 8) ])
         (List.map (fun (k, tag) -> Tuple.make [ k; V.String tag ]) rows))
  in
  rel "ki" V.Tint
    (List.init 6 (fun i -> (V.Int (i + 1), string_of_int (i + 1)))
    @ [ (V.Int 0, "0") ]);
  rel "kf" V.Tfloat
    ((V.Float (-0.), "-0.")
     :: List.init 6 (fun i -> (V.Float (float_of_int (6 - i)), Printf.sprintf "%d." (6 - i)))
    @ List.init 1500 (fun i -> (V.Float (float_of_int i +. 0.5), "filler")));
  rel "kz" V.Tfloat [ (V.Float 0., "0.") ];
  rel "dup" V.Tint
    [ (V.Int 5, "a"); (V.Int 6, "x"); (V.Int 5, "b"); (V.Int 7, "y"); (V.Int 5, "c") ];
  rel "probe" V.Tint [ (V.Int 7, "seven"); (V.Int 5, "five") ];
  (* Int and float cells in one column: each class of equal keys
     mixes both, and -0. follows 0. *)
  rel "mixed" V.Tfloat
    [
      (V.Int 1, "r0"); (V.Float 1., "r1"); (V.Float 2., "r2"); (V.Int 2, "r3");
      (V.Float 0., "r4"); (V.Float (-0.), "r5"); (V.Int 0, "r6"); (V.Int 3, "r7");
    ];
  c

let tags sql =
  List.map
    (fun row -> String.concat "-" (List.map V.to_string (Tuple.to_list row)))
    (Engine.execute classes (Parser.parse sql)).Engine.rows

(* A cell with its constructor: [Int 1] and [Float 1.] print alike. *)
let shown = function
  | V.Int i -> Printf.sprintf "int %d" i
  | V.Float f -> Printf.sprintf "float %h" f
  | v -> V.to_string v

let test_join_equality_classes () =
  Alcotest.(check (list string))
    "int keys match equal float keys, 0 matches -0."
    [ "1-1."; "2-2."; "3-3."; "4-4."; "5-5."; "6-6."; "0--0." ]
    (tags "select ki.tag, kf.tag from ki, kf where ki.k = kf.k");
  Alcotest.(check (list string))
    "0. matches -0." [ "0.--0." ]
    (tags "select kz.tag, kf.tag from kz, kf where kz.k = kf.k")

(* [probe] is smaller, so the join starts from it in FROM order and
   nothing re-sorts its rows: the index's chains give the order. *)
let test_join_duplicate_keys_in_storage_order () =
  Alcotest.(check (list string))
    "matches in storage order"
    [ "seven-y"; "five-a"; "five-b"; "five-c" ]
    (tags "select probe.tag, dup.tag from probe, dup where probe.k = dup.k")

let test_distinct_group_by_equality_classes () =
  let cells sql =
    List.map
      (fun row -> String.concat ", " (List.map shown (Tuple.to_list row)))
      (Engine.execute classes (Parser.parse sql)).Engine.rows
  in
  Alcotest.(check (list string))
    "distinct keeps first occurrences"
    [ "int 1"; "float 0x1p+1"; "float 0x0p+0"; "int 3" ]
    (cells "select distinct k from mixed");
  Alcotest.(check (list string))
    "groups in first-seen order, first member's key"
    [ "int 1, int 2"; "float 0x1p+1, int 2"; "float 0x0p+0, int 3"; "int 3, int 1" ]
    (cells "select k, count(*) from mixed group by k")

(* A pushed-down [column op literal] runs as one loop over the column:
   over its typed vector when every cell and the literal are [Int], or
   every cell and the literal are [String]; over the boxed cells
   otherwise.  The rows it keeps must be those [Eval.predicate] keeps,
   whatever the cells, the operator, the literal and its side.  About
   half the columns hold one type, so the typed loops run: ints near
   the edges of float precision and of the int range, where a loop
   that compares through [float_of_int] keeps the wrong rows, and
   strings, some of the literals absent from the column.  A second or
   third conjunct runs on the rows the first narrowed, read through
   their row ids. *)
let edge_int =
  QCheck.Gen.(
    oneof
      [
        int_range (-2) 2;
        oneofl
          [
            1 lsl 53; (1 lsl 53) + 1; (1 lsl 53) - 1; -(1 lsl 53);
            -(1 lsl 53) - 1; -(1 lsl 53) + 1; max_int; max_int - 1; min_int;
            min_int + 1;
          ];
      ])

let short_string = QCheck.Gen.oneofl [ "a"; "b"; "1"; "ab" ]

let literal_cell =
  QCheck.Gen.(
    oneof
      [
        return V.Null;
        map (fun i -> V.Int i) edge_int;
        oneofl
          [
            V.Float 1.; V.Float (-0.); V.Float 0.5; V.Float Float.nan;
            V.Float 0x1p53; V.Float 0x1p62; V.Float (-0x1p62);
            V.Float Float.infinity; V.Float Float.neg_infinity;
          ];
        map (fun s -> V.String s) (oneofl [ "a"; "b"; "1"; "ab"; "zz"; "" ]);
        map (fun b -> V.Bool b) bool;
      ])

(* The column's cells: mixed types, all [Int] or all [String]. *)
let column_cells =
  QCheck.Gen.(
    frequency
      [
        (2, list_size (int_range 0 12) literal_cell);
        (1, list_size (int_range 0 12) (map (fun i -> V.Int i) edge_int));
        (1, list_size (int_range 0 12) (map (fun s -> V.String s) short_string));
      ])

let prop_literal_filter_matches_eval =
  let conjunct =
    QCheck.Gen.(
      triple (oneofl Cqp_sql.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ]) literal_cell bool)
  in
  QCheck.Test.make ~name:"literal filter = Eval.predicate" ~count:1000
    (QCheck.make
       ~print:(fun (cells, conjuncts) ->
         let cell = function
           | (V.Int _ | V.Float _) as v -> shown v
           | v -> V.ty_name (V.type_of v) ^ " " ^ V.to_string v
         and op =
           Cqp_sql.Ast.(
             function
             | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=")
         in
         Printf.sprintf "cells [%s], where %s"
           (String.concat "; " (List.map cell cells))
           (String.concat " and "
              (List.map
                 (fun (o, lit, left) ->
                   if left then Printf.sprintf "(%s) %s v" (cell lit) (op o)
                   else Printf.sprintf "v %s (%s)" (op o) (cell lit))
                 conjuncts)))
       QCheck.Gen.(pair column_cells (list_size (int_range 1 3) conjunct)))
    (fun (cells, conjuncts) ->
      let module Ast = Cqp_sql.Ast in
      let c = Catalog.create () in
      Catalog.add c
        (Relation.of_tuples
           (Schema.make "t" [ ("v", V.Tfloat, 8); ("i", V.Tint, 8) ])
           (List.mapi (fun i v -> Tuple.make [ v; V.Int i ]) cells));
      let where =
        Ast.conj
          (List.map
             (fun (op, lit, lit_left) ->
               if lit_left then Ast.Cmp (op, Ast.Lit lit, Ast.Col (None, "v"))
               else Ast.Cmp (op, Ast.Col (None, "v"), Ast.Lit lit))
             conjuncts)
      in
      let q =
        Ast.simple_select ~where
          [ Ast.Item (Ast.Col (None, "i"), None) ]
          [ Ast.Table ("t", None) ]
      in
      let keep =
        Eval.predicate
          (Eval.scalar
             (Eval.tuple_scope
                Cqp_exec.Rowset.[ col ~qualifier:"t" "v"; col ~qualifier:"t" "i" ]))
          where
      in
      let expected =
        List.concat
          (List.mapi
             (fun i v -> if keep (Tuple.make [ v; V.Int i ]) then [ i ] else [])
             cells)
      and got =
        List.map
          (fun row -> match Tuple.get row 0 with V.Int i -> i | _ -> -1)
          (Engine.execute c q).Engine.rows
      in
      got = expected)

(* --- LIKE matcher properties ----------------------------------------- *)

let prop_like_percent_matches_all =
  QCheck.Test.make ~name:"'%' matches everything" ~count:200
    QCheck.(small_string)
    (fun s -> Eval.like_match ~pattern:"%" s)

let prop_like_self_match =
  QCheck.Test.make ~name:"literal pattern matches itself" ~count:200
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 12) QCheck.Gen.printable)
    (fun s ->
      String.contains s '%' || String.contains s '_'
      || Eval.like_match ~pattern:s s)

let prop_like_prefix =
  QCheck.Test.make ~name:"s matches s%" ~count:200
    QCheck.(pair small_string small_string)
    (fun (s, suffix) ->
      String.contains s '%' || String.contains s '_'
      || Eval.like_match ~pattern:(s ^ "%") (s ^ suffix))

let qc = Testlib.qc

let () =
  Testlib.seed_banner "exec";
  Alcotest.run "exec"
    [
      ( "operators",
        [
          Alcotest.test_case "scan/project" `Quick test_scan_project;
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "hash join" `Quick test_hash_join;
          Alcotest.test_case "null join keys" `Quick test_join_null_keys_never_match;
          Alcotest.test_case "cartesian" `Quick test_cartesian;
          Alcotest.test_case "multiway join" `Quick test_multiway_join;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "group by having" `Quick test_group_by_having;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "empty input" `Quick test_aggregate_empty_input;
          Alcotest.test_case "avg/sum" `Quick test_avg_sum;
        ] );
      ( "clauses",
        [
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "order/limit" `Quick test_order_limit;
          Alcotest.test_case "union all" `Quick test_union_all;
          Alcotest.test_case "personalized shape" `Quick test_union_groupby_having_intersection;
          Alcotest.test_case "in/like" `Quick test_in_and_like;
          Alcotest.test_case "is null" `Quick test_is_null;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "order by alias" `Quick test_order_by_alias;
        ] );
      ( "io",
        [
          Alcotest.test_case "block accounting" `Quick test_block_accounting;
          Alcotest.test_case "accumulator" `Quick test_io_accumulator;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "self join" `Quick test_self_join;
          Alcotest.test_case "min/max strings" `Quick test_min_max_strings;
          Alcotest.test_case "order by null" `Quick test_order_by_null_first;
          Alcotest.test_case "three-branch union" `Quick test_three_branch_union;
          Alcotest.test_case "subquery scope" `Quick test_subquery_column_scope;
          Alcotest.test_case "two group keys" `Quick test_group_by_two_keys;
          Alcotest.test_case "empty relation" `Quick test_empty_relation_behaviour;
          Alcotest.test_case "between" `Quick test_between_execution;
          Alcotest.test_case "having min" `Quick test_having_over_aggregate_of_other_column;
          Alcotest.test_case "having in-list with null" `Quick
            test_having_in_list_with_null;
          Alcotest.test_case "lazy column errors" `Quick test_lazy_column_errors;
        ] );
      ( "equality classes",
        [
          Alcotest.test_case "join keys" `Quick test_join_equality_classes;
          Alcotest.test_case "duplicate join keys" `Quick
            test_join_duplicate_keys_in_storage_order;
          Alcotest.test_case "distinct and group by" `Quick
            test_distinct_group_by_equality_classes;
          qc prop_literal_filter_matches_eval;
        ] );
      ( "like",
        [ qc prop_like_percent_matches_all; qc prop_like_self_match; qc prop_like_prefix ]
      );
    ]

(* Differential testing of the execution engine.

   A naive reference evaluator — cartesian product of all sources, then
   a row-at-a-time WHERE filter, then projection — is compared against
   the engine's optimized pipeline (pushdown + hash joins) on randomly
   generated select-project-join queries over a small catalog.  Any
   divergence is a planner bug.  Every executed query also checks that
   the plan [Explain] shows scans exactly the blocks execution reads,
   including personalized queries in the Section 4.2 wrapper shape. *)

module V = Cqp_relal.Value
module Tuple = Cqp_relal.Tuple
module Ast = Cqp_sql.Ast
module Engine = Cqp_exec.Engine
module Explain = Cqp_exec.Explain
module Rowset = Cqp_exec.Rowset
module Eval = Cqp_exec.Eval
module Rng = Cqp_util.Rng

let catalog = Testlib.rtu_catalog ()

(* Execute, failing unless the plan's scan cost is what execution
   charged: the plan Explain shows is the one Engine interprets. *)
let execute ?(catalog = catalog) q =
  let r = Engine.execute catalog q in
  let planned = Explain.scan_blocks (Explain.explain catalog q) in
  if planned <> r.Engine.block_reads then
    Alcotest.failf "plan scans %d blocks, execution read %d: %s" planned
      r.Engine.block_reads
      (Cqp_sql.Printer.to_string q);
  r

(* --- random query generation ------------------------------------------ *)

type source = { rel : string; alias : string; cols : (string * V.ty) list }

let sources_pool =
  [
    { rel = "r"; alias = "r1"; cols = [ ("a", V.Tint); ("b", V.Tint); ("s", V.Tstring) ] };
    { rel = "t"; alias = "t1"; cols = [ ("a", V.Tint); ("c", V.Tint) ] };
    { rel = "u"; alias = "u1"; cols = [ ("c", V.Tint); ("s", V.Tstring) ] };
    { rel = "r"; alias = "r2"; cols = [ ("a", V.Tint); ("b", V.Tint); ("s", V.Tstring) ] };
  ]

let random_query ?(ordered = false) rng =
  let n_sources = 1 + Rng.int rng 3 in
  let pool = Array.of_list sources_pool in
  Rng.shuffle rng pool;
  let chosen = Array.to_list (Array.sub pool 0 n_sources) in
  let col_of src (name, _) = Ast.Col (Some src.alias, name) in
  let all_cols =
    List.concat_map (fun s -> List.map (fun c -> (s, c)) s.cols) chosen
  in
  (* WHERE: random mix of join conjuncts (equality between same-typed
     columns of different sources) and literal comparisons. *)
  let conjuncts = ref [] in
  let n_preds = Rng.int rng 4 in
  for _ = 1 to n_preds do
    let s1, c1 = Rng.choice rng (Array.of_list all_cols) in
    if Rng.bool rng && n_sources > 1 then begin
      let candidates =
        List.filter
          (fun (s2, (_, ty2)) -> s2.alias <> s1.alias && ty2 = snd c1)
          all_cols
      in
      match candidates with
      | [] -> ()
      | _ ->
          let s2, c2 = Rng.choice rng (Array.of_list candidates) in
          conjuncts :=
            Ast.Cmp (Ast.Eq, col_of s1 c1, col_of s2 c2) :: !conjuncts
    end
    else begin
      let op =
        Rng.choice rng [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Ge |]
      in
      let lit =
        match snd c1 with
        | V.Tint -> V.Int (Rng.int rng 8)
        | _ -> V.String (String.make 1 (Char.chr (97 + Rng.int rng 4)))
      in
      conjuncts := Ast.Cmp (op, col_of s1 c1, Ast.Lit lit) :: !conjuncts
    end
  done;
  let e1, e2 =
    let s, c = Rng.choice rng (Array.of_list all_cols) in
    let s2, c2 = Rng.choice rng (Array.of_list all_cols) in
    (col_of s c, col_of s2 c2)
  in
  let items = [ Ast.Item (e1, Some "x"); Ast.Item (e2, Some "y") ] in
  (* ORDER BY lists exactly the projected expressions, so tied rows are
     identical and the ordered output (with LIMIT applied) is uniquely
     determined — exact list comparison is meaningful. *)
  let order_by =
    if ordered then
      let dir () = if Rng.bool rng then Ast.Asc else Ast.Desc in
      Some [ (e1, dir ()); (e2, dir ()) ]
    else None
  in
  let limit =
    if ordered && Rng.bool rng then Some (Rng.int rng 13) else None
  in
  Ast.simple_select
    ?where:(match !conjuncts with [] -> None | cs -> Some (Ast.conj cs))
    ?order_by ?limit items
    (List.map (fun s -> Ast.Table (s.rel, Some s.alias)) chosen)

(* --- reference evaluator ----------------------------------------------- *)

let reference_execute ?(catalog = catalog) q =
  match q with
  | Ast.Union_all _ -> assert false
  | Ast.Select b ->
      let source_rowsets =
        List.map
          (function
            | Ast.Table (name, alias) ->
                let rel = Cqp_relal.Catalog.get catalog name in
                let schema = Cqp_relal.Relation.schema rel in
                let qualifier = Option.value alias ~default:name in
                let cols =
                  List.map
                    (fun a ->
                      Rowset.col ~qualifier a.Cqp_relal.Schema.attr_name)
                    schema.Cqp_relal.Schema.attrs
                in
                Rowset.of_list cols (Cqp_relal.Relation.to_list rel)
            | Ast.Subquery _ -> assert false)
          b.Ast.from
      in
      let product =
        List.fold_left
          (fun acc rs ->
            Rowset.of_list
              (Rowset.product_cols acc rs)
              (List.concat_map
                 (fun ra ->
                   List.map (fun rb -> Tuple.concat ra rb) (Rowset.to_list rs))
                 (Rowset.to_list acc)))
          (Rowset.of_list [] [ [||] ])
          source_rowsets
      in
      let scope = Eval.tuple_scope product.Rowset.cols in
      let filtered =
        match b.Ast.where with
        | None -> Rowset.to_list product
        | Some p ->
            List.filter (Eval.predicate (Eval.scalar scope) p) (Rowset.to_list product)
      in
      let outputs =
        List.map
          (function
            | Ast.Item (e, _) -> Eval.scalar scope e
            | Ast.Star -> assert false)
          b.Ast.items
      in
      List.map (fun row -> Array.of_list (List.map (fun f -> f row) outputs)) filtered

(* Reference DISTINCT / ORDER BY / LIMIT on top of [reference_execute].
   Only queries whose ORDER BY is a prefix-free list of exactly the
   projected expressions (in projection order) are supported: the sort
   key then IS the output row, so position [i] of the key is column [i]
   of the row and ties are identical rows. *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let reference_full q =
  match q with
  | Ast.Union_all _ -> assert false
  | Ast.Select b ->
      let rows = reference_execute q in
      let deduped =
        if b.Ast.distinct then List.sort_uniq Tuple.compare rows else rows
      in
      let dirs = List.map snd b.Ast.order_by in
      let cmp r1 r2 =
        let rec go i = function
          | [] -> 0
          | dir :: rest ->
              let c = V.compare r1.(i) r2.(i) in
              let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
              if c <> 0 then c else go (i + 1) rest
        in
        go 0 dirs
      in
      let sorted = if dirs = [] then deduped else List.sort cmp deduped in
      (match b.Ast.limit with None -> sorted | Some k -> take k sorted)

let rendered rows =
  List.map
    (fun r -> String.concat "," (List.map V.to_string (Tuple.to_list r)))
    rows

let canonical rows =
  List.sort Tuple.compare rows
  |> List.map (fun r -> String.concat "," (List.map V.to_string (Tuple.to_list r)))

(* The reference is a nested loop over the sources in FROM order, so
   comparing rows in order holds every join order the planner picks,
   cartesian steps included, to that loop's row order. *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine = naive reference on random SPJ" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let q = random_query rng in
      Cqp_sql.Analyzer.check catalog q;
      let engine_rows = (execute q).Engine.rows in
      let ref_rows = reference_execute q in
      rendered engine_rows = rendered ref_rows)

(* With ORDER BY + LIMIT the output is an exact list, not a multiset:
   compare without canonicalizing so the engine's sort order and cut
   point are themselves under test.  The serve workload generator emits
   exactly this shape (ORDER BY over all projected columns). *)
let prop_engine_matches_reference_ordered =
  QCheck.Test.make
    ~name:"engine = naive reference on ordered/limited SPJ (exact lists)"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let q = random_query ~ordered:true rng in
      Cqp_sql.Analyzer.check catalog q;
      let engine_rows = (execute q).Engine.rows in
      rendered engine_rows = rendered (reference_full q))

(* --- typed columns ------------------------------------------------------ *)

(* Join keys only an exact comparison tells apart: [Int 3] equals
   [Float 3.], and [Int (2^53 + 1)] equals no float, though
   [float_of_int] rounds it to [2^53]. *)
let int_key rng =
  V.Int (Rng.choice rng [| 0; 1; 3; (1 lsl 53) - 1; 1 lsl 53; (1 lsl 53) + 1 |])

let any_key rng =
  match Rng.int rng 4 with
  | 0 -> V.Null
  | 1 -> V.Float (Rng.choice rng [| 3.; 1.; 0x1p53; 0x1p53 +. 2. |])
  | _ -> int_key rng

(* [a] and [c] hold Int keys only, so their [k] has an Int vector; in
   half the catalogs [b]'s keys mix Int, Float and NULL, so [b.k] has
   none. *)
let typed_join_catalog rng =
  let c = Cqp_relal.Catalog.create () in
  let add name key =
    Cqp_relal.Catalog.add c
      (Cqp_relal.Relation.of_tuples ~block_size:64
         (Cqp_relal.Schema.make name [ ("k", V.Tint, 8); ("tag", V.Tstring, 8) ])
         (List.init (1 + Rng.int rng 8) (fun i ->
              Tuple.make [ key rng; V.String (Printf.sprintf "%s%d" name i) ])))
  in
  add "a" int_key;
  add "b" (if Rng.bool rng then any_key else int_key);
  add "c" int_key;
  c

(* Two or three of [a], [b], [c] in a random FROM order, each joined
   to an earlier one on [k], sometimes with a literal filter on a key;
   the outputs are a tag and a key. *)
let typed_join_query rng =
  let from = [| "a"; "b"; "c" |] in
  Rng.shuffle rng from;
  let from = Array.to_list (Array.sub from 0 (2 + Rng.int rng 2)) in
  let k t = Ast.Col (Some t, "k") in
  let joins =
    List.mapi
      (fun i t ->
        if i = 0 then []
        else [ Ast.Cmp (Ast.Eq, k (List.nth from (Rng.int rng i)), k t) ])
      from
    |> List.concat
  in
  let filter =
    if Rng.int rng 3 = 0 then
      [
        Ast.Cmp
          ( Rng.choice rng [| Ast.Eq; Ast.Ge; Ast.Lt |],
            k (Rng.choice rng (Array.of_list from)),
            Ast.Lit (any_key rng) );
      ]
    else []
  in
  Ast.simple_select ~where:(Ast.conj (joins @ filter))
    [
      Ast.Item (Ast.Col (Some (List.hd from), "tag"), None);
      Ast.Item (k (List.nth from (List.length from - 1)), None);
    ]
    (List.map (fun t -> Ast.Table (t, None)) from)

(* Rows in order, with their constructors, and block reads: a join on
   two Int vectors hashes and compares the ints in place, and must
   match what the boxed join and the nested-loop reference match. *)
let prop_typed_joins_match_reference =
  QCheck.Test.make ~name:"int-key joins = naive reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let catalog = typed_join_catalog rng in
      let q = typed_join_query rng in
      let shown rows =
        List.map
          (fun r ->
            String.concat ","
              (List.map
                 (fun v -> V.ty_name (V.type_of v) ^ " " ^ V.to_string v)
                 (Tuple.to_list r)))
          rows
      in
      let got = shown (execute ~catalog q).Engine.rows
      and want = shown (reference_execute ~catalog q) in
      if got <> want then
        QCheck.Test.fail_reportf "%s\ngot  [%s]\nwant [%s]"
          (Cqp_sql.Printer.to_string q) (String.concat "; " got)
          (String.concat "; " want);
      true)

(* The property above runs joins on both paths. *)
let test_typed_joins_covered () =
  Cqp_obs.Metrics.reset ();
  Cqp_obs.Metrics.enable ();
  Fun.protect ~finally:(fun () ->
      Cqp_obs.Metrics.disable ();
      Cqp_obs.Metrics.reset ())
  @@ fun () ->
  for seed = 0 to 299 do
    let rng = Rng.create seed in
    let catalog = typed_join_catalog rng in
    ignore (Engine.execute catalog (typed_join_query rng))
  done;
  let typed = Cqp_obs.Metrics.counter_value "engine.joins.typed"
  and all = Cqp_obs.Metrics.counter_value "engine.joins.hash" in
  Printf.printf "%d of %d hash joins on Int vectors\n" typed all;
  Alcotest.(check bool) "some joins typed" true (typed > 100);
  Alcotest.(check bool) "some joins boxed" true (all - typed > 100)

(* An insert made after an execution is seen by the next one, on the
   typed path while the column keeps one type and on the boxed path
   once it holds a Float or a NULL; each answer equals the naive
   reference's. *)
let test_insert_after_execution () =
  let module R = Cqp_relal.Relation in
  let catalog = Cqp_relal.Catalog.create () in
  let relation name =
    let r =
      R.create ~block_size:64
        (Cqp_relal.Schema.make name [ ("k", V.Tint, 8); ("s", V.Tstring, 8) ])
    in
    Cqp_relal.Catalog.add catalog r;
    r
  in
  let m = relation "m" and n = relation "n" in
  let row k s = Tuple.make [ k; V.String s ] in
  for i = 0 to 19 do
    R.insert m (row (V.Int (i mod 7)) (string_of_int i))
  done;
  List.iter (fun i -> R.insert n (row (V.Int i) ("n" ^ string_of_int i))) [ 5; 6; 9 ];
  let queries =
    List.map Cqp_sql.Parser.parse
      [
        "select s from m where k = 5";
        "select s from m where k >= 5 and s <> '12'";
        "select s from m where s = 'fresh'";
        "select m.s, n.s from m, n where m.k = n.k";
      ]
  in
  let check what =
    List.iter
      (fun q ->
        Alcotest.(check (list string))
          (what ^ ": " ^ Cqp_sql.Printer.to_string q)
          (rendered (reference_execute ~catalog q))
          (rendered (execute ~catalog q).Engine.rows))
      queries
  in
  let is_ints r c = match R.vector r c with R.Ints _ -> true | _ -> false in
  check "initial";
  Alcotest.(check bool) "m.k typed" true (is_ints m 0);
  (* past the arrays' capacity, and a string the dictionary lacks *)
  for i = 0 to 39 do
    R.insert m (row (V.Int 5) ("more" ^ string_of_int i))
  done;
  R.insert m (row (V.Int 9) "fresh");
  check "after Int inserts";
  Alcotest.(check bool) "m.k still typed" true (is_ints m 0);
  R.insert m (row (V.Float 5.) "float");
  check "after a Float";
  Alcotest.(check bool) "m.k boxed" false (is_ints m 0);
  R.insert n (row V.Null "null");
  check "after a NULL";
  Alcotest.(check bool) "n.k boxed" false (is_ints n 0);
  Alcotest.(check bool) "n.s typed" true
    (match R.vector n 1 with R.Strings _ -> true | _ -> false)

(* --- directed duplicate-row cases -------------------------------------- *)

(* Projections onto small domains produce many duplicate rows; ORDER BY
   and LIMIT must treat each duplicate as a distinct row (keep all of
   them, count each against the limit), while DISTINCT collapses them
   before the sort.  These shapes pin that down explicitly. *)
let duplicate_row_cases =
  [
    (* single narrow column: heavy duplication, NULLs included *)
    "select b from r order by b desc limit 5";
    "select s from r order by s limit 7";
    (* limit 0 and limit beyond cardinality *)
    "select b from r order by b limit 0";
    "select s from u order by s desc limit 500";
    (* join fan-out duplicates whole output rows *)
    "select r1.a, t1.a from r r1, t t1 where r1.a = t1.a \
     order by r1.a desc, t1.a limit 9";
    (* DISTINCT collapses duplicates before ORDER BY / LIMIT *)
    "select distinct b from r order by b limit 3";
    "select distinct r1.s, u1.s from r r1, u u1 \
     order by r1.s, u1.s desc limit 6";
    (* no limit: full ordered duplicate-bearing output *)
    "select t1.c from t t1 order by t1.c desc";
    (* two-key hash joins, the first key with NULLs in one order *)
    "select r1.a, r2.b from r r1, r r2 where r1.a = r2.a and r1.b = r2.b \
     order by r1.a, r2.b";
    "select r1.s, r2.a from r r1, r r2 where r1.b = r2.b and r1.s = r2.s \
     order by r1.s desc, r2.a";
  ]

let test_duplicate_rows_ordered () =
  List.iter
    (fun sql ->
      let q = Cqp_sql.Parser.parse sql in
      Cqp_sql.Analyzer.check catalog q;
      let engine_rows = (execute q).Engine.rows in
      Alcotest.(check (list string))
        sql
        (rendered (reference_full q))
        (rendered engine_rows))
    duplicate_row_cases

(* A derived table's size is unknown, so the planner joins it after the
   base source; its rows still come out in FROM order, as those of the
   same query with the derived block inlined, which joins in FROM
   order. *)
let test_derived_join_order () =
  let plan_first sql =
    match Explain.explain catalog (Cqp_sql.Parser.parse sql) with
    | Explain.Plan_select p -> p.Explain.first
    | Explain.Plan_union _ -> Alcotest.fail "expected a select plan"
  in
  let rows sql = rendered (execute (Cqp_sql.Parser.parse sql)).Engine.rows in
  let inlined =
    "select r1.a, t1.c from r r1, t t1 where r1.b < 3 and r1.a = t1.a"
  and derived =
    "select d.a, t1.c from (select a from r where b < 3) d, t t1 \
     where d.a = t1.a"
  in
  Alcotest.(check int) "inlined starts at r1" 0 (plan_first inlined);
  Alcotest.(check int) "derived starts at t1" 1 (plan_first derived);
  Alcotest.(check bool) "several rows" true (List.length (rows inlined) > 5);
  Alcotest.(check (list string)) "same rows in order" (rows inlined) (rows derived)

(* --- aggregation differential ------------------------------------------ *)

(* Grouped queries [select k, count( * ), sum(v) ... group by k order by
   k] over three FROM shapes: table [r] alone, the join of [r] and [t]
   on [a], and a derived table (optionally a UNION ALL of [r] and [t],
   the personalized wrapper's shape).  Each shape also yields its input
   as (k, v) pairs, computed naively from the base relations. *)
type group_shape = Single | Join | Derived of { union : bool }

let base_rows name =
  Cqp_relal.Relation.to_list (Cqp_relal.Catalog.get catalog name)

let int_at row i = match Tuple.get row i with V.Int x -> Some x | _ -> None

let group_input shape ~excluded =
  let kept row = int_at row 0 <> Some excluded in
  let pairs name v_idx =
    List.filter_map
      (fun row -> if kept row then Some (Tuple.get row 0, Tuple.get row v_idx) else None)
      (base_rows name)
  in
  match shape with
  | Single | Derived { union = false } -> pairs "r" 1
  | Derived { union = true } -> pairs "r" 1 @ pairs "t" 1
  | Join ->
      List.concat_map
        (fun r1 ->
          if not (kept r1) then []
          else
            List.filter_map
              (fun t1 ->
                if V.equal (Tuple.get r1 0) (Tuple.get t1 0) then
                  Some (Tuple.get r1 0, Tuple.get t1 1)
                else None)
              (base_rows "t"))
        (base_rows "r")

let group_sql shape ~excluded ~having =
  let where col = Printf.sprintf " where %s <> %d" col excluded in
  let from, k, v =
    match shape with
    | Single -> ("r" ^ where "a", "a", "b")
    | Join ->
        ( Printf.sprintf "r r1, t t1 where r1.a = t1.a and r1.a <> %d" excluded,
          "r1.a",
          "t1.c" )
    | Derived { union } ->
        ( Printf.sprintf "(select a, b from r%s%s) d" (where "a")
            (if union then " union all select a, c from t" ^ where "a" else ""),
          "d.a",
          "d.b" )
  in
  Printf.sprintf "select %s, count(*), sum(%s) from %s group by %s%s order by %s"
    k v from k having k

(* Partition (k, v) pairs by k: each group's key, size and the sum of
   its non-NULL values (None when there are none), sorted by key. *)
let reference_group_by pairs =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (k, v) ->
      let key = V.to_sql k in
      let existing = try snd (Hashtbl.find groups key) with Not_found -> [] in
      Hashtbl.replace groups key (k, v :: existing))
    pairs;
  Hashtbl.fold
    (fun _ (k, vs) acc ->
      let vals = List.filter_map V.to_float vs in
      let sum =
        match vals with [] -> None | _ -> Some (List.fold_left ( +. ) 0. vals)
      in
      (k, List.length vs, sum) :: acc)
    groups []
  |> List.sort (fun (k1, _, _) (k2, _, _) -> V.compare k1 k2)

let prop_group_by_matches_reference =
  QCheck.Test.make ~name:"group-by = naive reference" ~count:100
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let shape =
        Rng.choice rng
          [| Single; Join; Derived { union = false }; Derived { union = true } |]
      in
      (* An excluded key value outside 0..7 filters nothing. *)
      let excluded = Rng.int rng 10 in
      let min_count = 1 + Rng.int rng 4 and min_sum = Rng.int rng 12 in
      let having, keep =
        match Rng.int rng 3 with
        | 0 -> ("", fun _ -> true)
        | 1 ->
            ( Printf.sprintf " having count(*) >= %d" min_count,
              fun (_, count, _) -> count >= min_count )
        | _ ->
            ( Printf.sprintf " having sum(%s) > %d"
                (match shape with
                | Single -> "b"
                | Join -> "t1.c"
                | Derived _ -> "d.b")
                min_sum,
              fun (_, _, sum) ->
                match sum with Some s -> s > float_of_int min_sum | None -> false )
      in
      let q = Cqp_sql.Parser.parse (group_sql shape ~excluded ~having) in
      Cqp_sql.Analyzer.check catalog q;
      let engine_rows = (execute q).Engine.rows in
      let expected =
        List.filter keep (reference_group_by (group_input shape ~excluded))
      in
      List.length engine_rows = List.length expected
      && List.for_all2
           (fun row (key, count, sum) ->
             V.equal (Tuple.get row 0) key
             && V.equal (Tuple.get row 1) (V.Int count)
             &&
             match V.to_float (Tuple.get row 2), sum with
             | Some s, Some expected -> abs_float (s -. expected) < 1e-9
             | None, None -> true
             | _ -> false)
           engine_rows expected)

(* Also check the printed SQL round-trips through the parser and still
   produces the same result. *)
let prop_roundtrip_same_result =
  QCheck.Test.make ~name:"print/parse roundtrip preserves results" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let q = random_query rng in
      let q' = Cqp_sql.Parser.parse (Cqp_sql.Printer.to_string q) in
      let rows q = canonical (execute q).Engine.rows in
      rows q = rows q')

let prop_roundtrip_ordered_same_result =
  QCheck.Test.make
    ~name:"print/parse roundtrip preserves ordered/limited results"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let q = random_query ~ordered:true rng in
      let q' = Cqp_sql.Parser.parse (Cqp_sql.Printer.to_string q) in
      let rows q = rendered (execute q).Engine.rows in
      rows q = rows q')

(* --- personalized queries ------------------------------------------------ *)

let imdb = lazy (Cqp_workload.Imdb.build ~seed:42 ())

let imdb_profile =
  lazy (Cqp_workload.Profile_gen.generate ~rng:(Rng.create 7) (Lazy.force imdb))

(* A serve template and 2–4 of its extracted preferences' paths. *)
let template_and_paths rng =
  let module C = Cqp_core in
  let catalog = Lazy.force imdb in
  let q = Cqp_workload.Query_gen.generate_serve ~rng catalog in
  let ps =
    C.Pref_space.build ~max_k:8 ~orders:C.Pref_space.D_only
      (C.Estimate.create catalog q) (Lazy.force imdb_profile)
  in
  let items = Array.copy ps.C.Pref_space.items in
  Rng.shuffle rng items;
  let l = min (Array.length items) (2 + Rng.int rng 3) in
  ( q,
    List.map (fun it -> it.C.Pref_space.path) (Array.to_list (Array.sub items 0 l)) )

(* A serve template personalized with 2–4 of its extracted preferences:
   the UNION ALL / GROUP BY / HAVING wrapper over derived table [qp]
   that [Rewrite.personalize] emits. *)
let personalized_query rng =
  let q, paths = template_and_paths rng in
  Cqp_core.Rewrite.personalize ~dedup:(Rng.bool rng) (Lazy.force imdb) q paths

let occurrences needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i acc =
    if i + n > m then acc
    else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
  in
  go 0 0

(* The line [Explain.pp] starts a base-table scan with. *)
let scan_line (name, alias) =
  match alias with
  | Some a when a <> name -> Printf.sprintf "scan %s [%s] (" a name
  | _ -> Printf.sprintf "scan %s (" name

let prop_personalized_plan_matches_execution =
  QCheck.Test.make
    ~name:"personalized wrapper: plan blocks = block reads, all scans shown"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let catalog = Lazy.force imdb in
      let q = personalized_query (Rng.create seed) in
      ignore (execute ~catalog q);
      let rendered = Explain.to_string catalog q in
      let scans = Ast.tables_of q in
      match q with
      | Ast.Select { Ast.from = [ Ast.Subquery (Ast.Union_all branches, "qp") ]; _ }
        ->
          List.length branches >= 2
          && List.for_all
               (fun table ->
                 occurrences (scan_line table) rendered
                 = List.length (List.filter (( = ) table) scans))
               scans
      | _ -> false)

(* --- golden: row order ------------------------------------------------- *)

(* The random properties above hold row order on the small r/t/u
   catalog; this case pins it on 224 queries over [imdb]: 40 seeded
   template and path samples, each personalized with and without
   per-branch DISTINCT
   (the wrapper, and the UNION ALL of its branches alone, since the
   wrapper's HAVING keeps few rows) and with its first preference alone
   (one join query); every serve template as written, at two years; and
   unordered queries whose row order shows each operator's: hash joins
   whose probes match several rows (which personalized queries project
   away), a cartesian product, GROUP BY, DISTINCT and UNION ALL.  One
   MD5 covers each result's schema, rows in order and block reads; a
   second covers the plans [Explain] renders.  The rows constant was
   recorded from the row-at-a-time executor the slot-resolved one
   replaced, before joins were ordered by estimated size; the plans
   constant was recorded once plans showed that order, again once each
   per-branch DISTINCT wrapper showed its intersect line, and again once
   that line showed the branches' run order. *)
let golden_queries () =
  let catalog = Lazy.force imdb in
  let with_union q =
    match q with
    | Ast.Select { Ast.from = [ Ast.Subquery (union, _) ]; _ } -> [ q; union ]
    | _ -> [ q ]
  in
  let personalized =
    List.concat_map
      (fun seed ->
        let q, paths = template_and_paths (Rng.create (9000 + seed)) in
        with_union (Cqp_core.Rewrite.personalize ~dedup:false catalog q paths)
        @ with_union (Cqp_core.Rewrite.personalize ~dedup:true catalog q paths)
        @ [ Cqp_core.Rewrite.personalize catalog q [ List.hd paths ] ])
      (List.init 40 Fun.id)
  in
  let instantiate template year =
    match String.index_opt template '%' with
    | Some i ->
        String.sub template 0 i ^ year
        ^ String.sub template (i + 2) (String.length template - i - 2)
    | None -> template
  in
  let templates =
    List.concat_map
      (fun year ->
        List.map
          (fun t -> Cqp_sql.Parser.parse (instantiate t year))
          Cqp_workload.Query_gen.serve_templates)
      [ "1975"; "1995" ]
  in
  let operators =
    List.map Cqp_sql.Parser.parse
      [
        "select * from movie m, casts c where m.mid = c.mid and m.year >= 2015";
        "select m.title, g.genre, c.aid, c.role from movie m, genre g, casts c \
         where m.mid = g.mid and m.mid = c.mid and m.year = 2000";
        "select d.name, m.title from director d, movie m \
         where d.did = m.did and d.did < 20";
        "select d1.name, d2.name from director d1, director d2 \
         where d1.did < 4 and d2.did < 4";
        "select g.genre, count(*), min(m.year) from movie m, genre g \
         where m.mid = g.mid group by g.genre";
        "select distinct c.role, c.aid from casts c where c.aid < 40";
        "select title from movie where year >= 2020 \
         union all select name from director where did < 10";
        "select x.title, count(*) from (select title from movie m, casts c \
         where m.mid = c.mid and c.role = 'voice') x group by x.title \
         having count(*) >= 2";
      ]
  in
  personalized @ templates @ operators

let golden_rows_md5 = "f8ce6fdf6df4e843e412e79b73c7f593"
let golden_plans_md5 = "779f68579e638b5ee783b784a8862a3f"

let test_golden_row_order () =
  let catalog = Lazy.force imdb in
  let rows = Buffer.create 65536 and plans = Buffer.create 65536 in
  let nonempty = ref 0 in
  List.iter
    (fun q ->
      let r = execute ~catalog q in
      List.iter
        (fun (name, ty) ->
          Printf.bprintf rows "%s:%s;" name (V.ty_name ty))
        r.Engine.schema;
      Printf.bprintf rows "\n%d blocks\n" r.Engine.block_reads;
      List.iter
        (fun row ->
          Buffer.add_string rows
            (String.concat "," (List.map V.to_sql (Tuple.to_list row)));
          Buffer.add_char rows '\n')
        r.Engine.rows;
      if r.Engine.rows <> [] then incr nonempty;
      Buffer.add_string plans (Explain.to_string catalog q))
    (golden_queries ());
  Alcotest.(check bool) "most answers have rows" true (!nonempty >= 100);
  Alcotest.(check string)
    "rows in order, schema, block reads" golden_rows_md5
    (Digest.to_hex (Digest.string (Buffer.contents rows)));
  Alcotest.(check string)
    "rendered plans" golden_plans_md5
    (Digest.to_hex (Digest.string (Buffer.contents plans)))

(* --- allocation signature ---------------------------------------------- *)

(* The first 12 preferences extracted for a serve template, as the
   Section 4.2 wrapper: 12 union branches intersected by GROUP BY /
   HAVING count( * ) = 12, each branch DISTINCT with [~dedup:true]. *)
let twelve_branch_wrapper ?(dedup = false) () =
  let module C = Cqp_core in
  let catalog = Lazy.force imdb in
  let q = Cqp_workload.Query_gen.generate_serve ~rng:(Rng.create 12) catalog in
  let ps =
    C.Pref_space.build ~max_k:12 ~orders:C.Pref_space.D_only
      (C.Estimate.create catalog q) (Lazy.force imdb_profile)
  in
  let paths =
    Array.to_list (Array.map (fun it -> it.C.Pref_space.path) ps.C.Pref_space.items)
  in
  if List.length paths <> 12 then
    Alcotest.failf "expected 12 preferences, got %d" (List.length paths);
  C.Rewrite.personalize ~dedup catalog q paths

(* Minor words one pass over the golden queries and the 12-branch
   wrapper allocates, measured after a first pass has filled every
   lazy cache.  The count repeats exactly for a given compiler.  The
   bound is the 3,164,813 words measured (OCaml 5.1.1) when one flat
   row-id index replaced the executor's per-row hash-table entries,
   plus 20%; the executor before allocated 19,935,153. *)
let exec_minor_words_bound = 3_800_000.

let check_minor_words what queries bound =
  let catalog = Lazy.force imdb in
  let pass () = List.iter (fun q -> ignore (Engine.execute catalog q)) queries in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. before in
  Printf.printf "%s minor words over %d queries: %.0f (bound %.0f)\n" what
    (List.length queries) words bound;
  if words > bound then
    Alcotest.failf "executing allocated %.0f minor words, bound %.0f" words bound

let test_exec_minor_words () =
  check_minor_words "exec"
    (twelve_branch_wrapper () :: golden_queries ())
    exec_minor_words_bound

(* The same signature for the intersection path alone: the golden set's
   40 [~dedup:true] wrappers and the 12-branch wrapper with
   [~dedup:true].  The bound is the 372,551 words measured (OCaml
   5.1.1) once intersections ran their cheapest branch first and cut
   each later branch before projection, plus 20%; running the branches
   in SQL order and projecting every row took 472,686. *)
let intersect_minor_words_bound = 447_000.

let test_intersect_minor_words () =
  let catalog = Lazy.force imdb in
  let intersects q =
    match Explain.explain catalog q with
    | Explain.Plan_select p -> Option.is_some p.Explain.intersect
    | Explain.Plan_union _ -> false
  in
  let wrappers = List.filter intersects (golden_queries ()) in
  Alcotest.(check int) "golden intersections" 40 (List.length wrappers);
  let twelve = twelve_branch_wrapper ~dedup:true () in
  Alcotest.(check bool) "12 branches intersect" true (intersects twelve);
  check_minor_words "intersection" (twelve :: wrappers)
    intersect_minor_words_bound

(* --- intersections ------------------------------------------------------ *)

(* The r/t/u catalog, [f], whose [x] holds [Int 1] beside [Float 1.],
   [0.] beside [-0.] and NULLs, so one branch's cell can equal another's
   under [Value.equal] and not under [=], and [g], which holds some of
   [f]'s rows in the other representation first, so the branch that
   reads it represents such a row differently. *)
let mixed =
  let c = Testlib.rtu_catalog () in
  let add name rows =
    Cqp_relal.Catalog.add c
      (Cqp_relal.Relation.of_tuples ~block_size:64
         (Cqp_relal.Schema.make name [ ("x", V.Tfloat, 8); ("y", V.Tstring, 8) ])
         (List.map (fun (x, y) -> Tuple.make [ x; V.String y ]) rows))
  in
  add "f"
    [
      (V.Int 1, "a"); (V.Float 1., "a"); (V.Float 0., "b"); (V.Float (-0.), "b");
      (V.Int 0, "a"); (V.Null, "a"); (V.Float 2., "c"); (V.Int 2, "c");
      (V.Null, "b"); (V.Int 3, "d"); (V.Float 1., "b"); (V.Int 1, "b");
    ];
  add "g"
    [
      (V.Float 1., "a"); (V.Int 1, "b"); (V.Float 0., "a"); (V.Int 2, "c");
      (V.Float 3., "d"); (V.Null, "a"); (V.Int 0, "b");
    ];
  c

(* A cell with its constructor: [Int 1] and [Float 1.] print apart. *)
let typed_rows rows =
  List.map
    (fun r ->
      String.concat ","
        (List.map (fun v -> V.ty_name (V.type_of v) ^ " " ^ V.to_string v)
           (Tuple.to_list r)))
    rows

(* One DISTINCT branch, [v] a number and [w] a string: a source whose
   cells compare across the catalog's Int/Float representations, the
   duplicate rows DISTINCT collapses, a join whose output source holds
   equal cells in different rows, outputs from two sources or a
   literal; an optional filter on [v], or a filter that keeps nothing
   ([empty]); sometimes an ORDER BY, on the expressions or on the
   aliases they project, and sometimes a LIMIT.  The
   sources' scans cost 1 to 5 blocks, so the branches often run in
   another order than SQL's. *)
let random_branch rng ~empty =
  let from, v, w, joins =
    Rng.choice rng
      [|
        ("r r1", "r1.a", "r1.s", []);
        ("r r1", "r1.b", "r1.s", []);
        ("u u1", "u1.c", "u1.s", []);
        ("f f1", "f1.x", "f1.y", []);
        ("f f1", "f1.x", "f1.y", []);
        ("g g1", "g1.x", "g1.y", []);
        ("r r1, t t1", "t1.c", "r1.s", [ "r1.a = t1.a" ]);
        ("f f1, u u1", "f1.x", "u1.s", [ "f1.x = u1.c" ]);
        ("f f1, u u1", "f1.x", "f1.y", [ "f1.x = u1.c" ]);
        ("g g1, u u1", "1", "u1.s", [ "g1.x = u1.c" ]);
      |]
  in
  let filter =
    if empty then [ v ^ " < -1" ]
    else if Rng.bool rng then []
    else
      [
        Printf.sprintf "%s %s %s" v
          (Rng.choice rng [| "<"; ">="; "<>" |])
          (Rng.choice rng [| "1"; "2"; "3"; "1.0"; "0.0" |]);
      ]
  in
  Printf.sprintf "select distinct %s as v, %s as w from %s%s%s" v w from
    (match joins @ filter with
    | [] -> ""
    | cs -> " where " ^ String.concat " and " cs)
    (match Rng.int rng 8 with
    | 0 -> Printf.sprintf " order by %s desc" v
    | 1 -> Printf.sprintf " order by %s desc, %s" w v
    | 2 -> Printf.sprintf " order by %s limit %d" v (1 + Rng.int rng 3)
    | 3 -> Printf.sprintf " limit %d" (1 + Rng.int rng 3)
    | 4 -> " order by w, v desc"
    | _ -> "")

(* A Section 4.2 wrapper over 2–6 DISTINCT branches, with an empty
   branch first, in the middle, last or nowhere, and sometimes ORDER BY
   and LIMIT. *)
let random_intersection rng =
  let k = 2 + Rng.int rng 5 in
  let empty = match Rng.int rng 8 with 0 -> 0 | 1 -> k / 2 | 2 -> k - 1 | _ -> -1 in
  let branches = List.init k (fun i -> random_branch rng ~empty:(i = empty)) in
  let dir () = if Rng.bool rng then "" else " desc" in
  let order =
    match Rng.int rng 3 with
    | 0 -> ""
    | 1 -> " order by v" ^ dir ()
    | _ -> Printf.sprintf " order by w%s, v%s" (dir ()) (dir ())
  in
  let limit =
    if order <> "" && Rng.bool rng then Printf.sprintf " limit %d" (Rng.int rng 5)
    else ""
  in
  let wrapper =
    Printf.sprintf
      "select v, w from (%s) qp group by %s having count(*) = %d%s%s"
      (String.concat " union all " branches)
      (if Rng.bool rng then "v, w" else "w, v")
      k order limit
  in
  match Cqp_sql.Parser.parse wrapper with
  | Ast.Select { Ast.from = [ Ast.Subquery (union, _) ]; order_by; limit; _ } as q
    ->
      (q, union, k, order_by, limit)
  | _ -> assert false

(* The wrapper's answer computed from its UNION ALL's rows: grouped by
   [eq] over all columns, groups of count [k] kept in first-seen order
   (each one's first row), then sorted stably and cut. *)
let reference_intersection ?(eq = Tuple.equal) ~k ~order_by ~limit rows =
  let groups =
    List.fold_left
      (fun groups row ->
        match List.find_opt (fun (rep, _) -> eq rep row) groups with
        | Some (_, n) ->
            incr n;
            groups
        | None -> groups @ [ (row, ref 1) ])
      [] rows
  in
  let kept = List.filter_map (fun (rep, n) -> if !n = k then Some rep else None) groups in
  let col = function
    | Ast.Col (_, "v") -> 0
    | Ast.Col (_, "w") -> 1
    | _ -> assert false
  in
  let cmp r1 r2 =
    List.fold_left
      (fun c (e, dir) ->
        if c <> 0 then c
        else
          let c = V.compare r1.(col e) r2.(col e) in
          if dir = Ast.Desc then -c else c)
      0 order_by
  in
  let sorted = List.stable_sort cmp kept in
  match limit with None -> sorted | Some n -> take n sorted

let prop_intersection_matches_group_by =
  QCheck.Test.make ~name:"intersection = GROUP BY reference" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let q, union, k, order_by, limit =
        random_intersection (Rng.create seed)
      in
      Cqp_sql.Analyzer.check mixed q;
      let got = execute ~catalog:mixed q
      and all = execute ~catalog:mixed union in
      let expected =
        reference_intersection ~k ~order_by ~limit all.Engine.rows
      in
      (match Explain.explain mixed q with
      | Explain.Plan_select { Explain.intersect = Some _; _ } -> ()
      | _ -> QCheck.Test.fail_reportf "not planned as an intersection");
      if typed_rows got.Engine.rows <> typed_rows expected then
        QCheck.Test.fail_reportf "%s@.rows %s@.expected %s"
          (Cqp_sql.Printer.to_string q)
          (String.concat "; " (typed_rows got.Engine.rows))
          (String.concat "; " (typed_rows expected));
      got.Engine.schema = all.Engine.schema
      && got.Engine.block_reads = all.Engine.block_reads)

(* The generated wrappers reach every case the early exit and the cut
   must get right: answers with rows; empty answers whose running
   intersection empties before the last branch, so branches are
   skipped; empty branches first, in the middle and last; answers that
   exist only because [Int 1] equals [Float 1.]; branches run in
   another order than SQL's; a later branch holding rows that have left
   the running intersection, which the cut drops; a LIMIT branch run
   while the intersection still holds rows, which must not be cut; and
   an answer row whose SQL-first branch holds it in another
   representation than the branch run first. *)
let test_intersection_cases_covered () =
  let rows = ref 0 and early = ref 0 and numeric = ref 0 in
  let reordered = ref 0 and cut = ref 0 and limited = ref 0 and rep = ref 0 in
  let empty_at = Array.make 3 0 in
  for seed = 0 to 399 do
    let q, union, k, _, _ = random_intersection (Rng.create seed) in
    let plans, branches =
      match union with
      | Ast.Union_all bs ->
          ( Array.of_list bs,
            Array.of_list
              (List.map (fun b -> (execute ~catalog:mixed b).Engine.rows) bs) )
      | _ -> assert false
    in
    let order =
      match Explain.explain mixed q with
      | Explain.Plan_select { Explain.intersect = Some order; _ } -> order
      | _ -> assert false
    in
    let answer eq =
      reference_intersection ~eq ~k ~order_by:[] ~limit:None
        (List.concat (Array.to_list branches))
    in
    let answer_rows = answer Tuple.equal in
    if answer_rows <> [] then incr rows;
    if answer ( = ) = [] && answer_rows <> [] then incr numeric;
    Array.iteri
      (fun i b ->
        if b = [] then begin
          let at = if i = 0 then 0 else if i = k - 1 then 2 else 1 in
          empty_at.(at) <- empty_at.(at) + 1
        end)
      branches;
    if order <> List.init k Fun.id then incr reordered;
    (* the branches in run order, against the rows all before hold *)
    let mem r b = List.exists (Tuple.equal r) b in
    let cuts = ref false and limits = ref false in
    let rec run common = function
      | [] -> ()
      | p :: rest ->
          if common = [] then incr early
          else begin
            if List.exists (fun r -> not (mem r common)) branches.(p) then
              cuts := true;
            (match plans.(p) with
            | Ast.Select { Ast.limit = Some _; _ } -> limits := true
            | _ -> ());
            run (List.filter (fun r -> mem r branches.(p)) common) rest
          end
    in
    let first = List.hd order in
    run branches.(first) (List.tl order);
    if !cuts then incr cut;
    if !limits then incr limited;
    let held_by b r = List.find (Tuple.equal r) b in
    if
      List.exists
        (fun r ->
          typed_rows [ held_by branches.(0) r ]
          <> typed_rows [ held_by branches.(first) r ])
        answer_rows
    then incr rep
  done;
  Printf.printf
    "400 wrappers: %d with rows, %d skip a branch, %d need Int = Float; empty \
     branch first %d, middle %d, last %d; %d run out of SQL order, %d cut a \
     branch, %d run a LIMIT branch on a live intersection, %d hold an answer \
     row apart in the SQL-first and the first-run branch\n"
    !rows !early !numeric empty_at.(0) empty_at.(1) empty_at.(2) !reordered !cut
    !limited !rep;
  List.iter
    (fun (what, n) ->
      if n < 10 then Alcotest.failf "only %d wrappers %s" n what)
    [
      ("with rows", !rows);
      ("skipping a branch", !early);
      ("needing Int = Float", !numeric);
      ("with an empty first branch", empty_at.(0));
      ("with an empty middle branch", empty_at.(1));
      ("with an empty last branch", empty_at.(2));
      ("running out of SQL order", !reordered);
      ("cutting a branch", !cut);
      ("running a LIMIT branch on a live intersection", !limited);
      ("representing an answer row apart", !rep);
    ]

(* Past 2^53 an int and the float [float_of_int] rounds it to differ:
   [n] holds [Float 2^53] for k = 1, nothing for k = 2, and [Int 2^53]
   and [Int (2^53 + 1)] for k = 3.  No row is in all three branches, so
   the wrapper answers none, as an intersection and through the GROUP
   BY path.  When [Value.equal] rounded, the three cells were one group
   of three and the GROUP BY path returned [Float 2^53]. *)
let test_rounded_ints_not_equal () =
  let c = Cqp_relal.Catalog.create () in
  let p53 = 1 lsl 53 in
  Cqp_relal.Catalog.add c
    (Cqp_relal.Relation.of_tuples ~block_size:64
       (Cqp_relal.Schema.make "n" [ ("k", V.Tint, 8); ("x", V.Tfloat, 8) ])
       (List.map
          (fun (k, x) -> Tuple.make [ V.Int k; x ])
          [ (1, V.Float 0x1p53); (3, V.Int p53); (3, V.Int (p53 + 1)) ]));
  let wrapper having =
    Cqp_sql.Parser.parse
      (Printf.sprintf
         "select x from (select distinct x from n where k = 1 union all select \
          distinct x from n where k = 2 union all select distinct x from n \
          where k = 3) qp group by x having count(*) %s"
         having)
  in
  List.iter
    (fun (having, intersects) ->
      let q = wrapper having in
      Alcotest.(check bool)
        (having ^ ": planned as an intersection")
        intersects
        (match Explain.explain c q with
        | Explain.Plan_select p -> Option.is_some p.Explain.intersect
        | Explain.Plan_union _ -> false);
      Alcotest.(check (list string))
        (having ^ ": no rows") []
        (typed_rows (execute ~catalog:c q).Engine.rows))
    [ ("= 3", true); (">= 3", false) ]

(* Shapes the early exit would get wrong, or that it leaves alone: each
   plans without the intersect line and runs the GROUP BY path. *)
let test_shapes_keep_group_by () =
  let intersects ?(catalog = mixed) q =
    match Explain.explain catalog q with
    | Explain.Plan_select p -> Option.is_some p.Explain.intersect
    | Explain.Plan_union _ -> false
  in
  let shown sql = Explain.to_string mixed (Cqp_sql.Parser.parse sql) in
  let a = "select distinct x as v, y as w from f where y = 'a'"
  and b = "select distinct x as v, y as w from f where y = 'b'"
  and d = "select distinct x as v, y as w from f where y = 'd'" in
  let wrapper ?(where = "") ?(keys = "v, w") ?(having = "= 2") branches =
    Printf.sprintf "select %s from (%s) qp%s group by %s having count(*) %s"
      keys
      (String.concat " union all " branches)
      where keys having
  in
  let check what sql expected =
    let q = Cqp_sql.Parser.parse sql in
    Alcotest.(check bool) (what ^ ": not an intersection") false (intersects q);
    Alcotest.(check bool)
      (what ^ ": no intersect line") false
      (occurrences "intersect" (shown sql) > 0);
    Alcotest.(check (list string))
      what expected
      (typed_rows (execute ~catalog:mixed q).Engine.rows)
  in
  let all_distinct = wrapper [ a; d ] in
  Alcotest.(check bool) "DISTINCT branches intersect" true
    (intersects (Cqp_sql.Parser.parse all_distinct));
  Alcotest.(check int) "one intersect line" 1
    (occurrences
       "intersect 2 branches, cheapest first: 1, 2; stop at the first empty \
        intersection"
       (shown all_distinct));
  (* bag semantics: (1, a) twice in the first branch, never in the
     second, and counted twice *)
  check "dedup:false"
    (wrapper [ "select x as v, y as w from f where y = 'a'"; d ])
    [ "int 1,string a" ];
  Alcotest.(check bool) "Rewrite.personalize ~dedup:false" false
    (intersects ~catalog:(Lazy.force imdb) (twelve_branch_wrapper ()));
  (* in two of three branches *)
  check "count = K-1" (wrapper [ a; d; a ])
    [ "int 1,string a"; "int 0,string a"; "null NULL,string a" ];
  check "count >= K"
    (wrapper ~having:">= 3" [ a; a; a ])
    [ "int 1,string a"; "int 0,string a"; "null NULL,string a" ];
  (* v alone: 1 = 1., 0 = 0. and NULL = NULL across [w] *)
  check "group by a subset"
    (wrapper ~keys:"v" [ a; b ])
    [ "int 1"; "int 0"; "null NULL" ];
  check "where on the wrapper"
    (wrapper ~where:" where v >= 0" [ a; a ])
    [ "int 1,string a"; "int 0,string a" ];
  (* Errors stay lazy: a branch whose rows reach an unresolvable column
     or an aggregate in a WHERE raises as it did, though the first
     branch is empty, and so does a branch of another arity; a branch
     whose rows never reach the column does not. *)
  let nothing = "select distinct x as v, y as w from f where x < -1" in
  check "unreached unresolvable column"
    (wrapper [ nothing; "select distinct nope as v, y as w from f where x < -1" ])
    [];
  let raises what branch expected =
    let q = Cqp_sql.Parser.parse (wrapper [ nothing; branch ]) in
    Alcotest.(check bool) (what ^ ": not an intersection") false (intersects q);
    let raised =
      match Engine.execute mixed q with
      | _ -> "nothing"
      | exception Eval.Eval_error m -> m
      | exception Rowset.Column_error m -> m
    in
    Alcotest.(check string) what expected raised
  in
  raises "unresolvable column" "select distinct nope as v, y as w from f"
    "unknown column nope";
  raises "aggregate in a WHERE"
    "select distinct x as v, y as w from f where count(*) > 0"
    "aggregate in row context";
  raises "arity" "select distinct x as v, y as w, x as z from f"
    "append: arity mismatch between union branches"

(* Lanes on several domains share one catalog and its vectors: the
   golden queries executed from pools of 1, 2 and 4 domains give the
   rows a sequential run gives. *)
let test_domains_share_vectors () =
  let catalog = Lazy.force imdb in
  let queries = Array.of_list (golden_queries ()) in
  let rows q = typed_rows (Engine.execute catalog q).Engine.rows in
  let expected = Array.map rows queries in
  List.iter
    (fun domains ->
      let got =
        Cqp_par.Pool.with_pool ~domains (fun pool ->
            Cqp_par.Pool.map pool rows queries)
      in
      Array.iteri
        (fun i want ->
          Alcotest.(check (list string))
            (Printf.sprintf "%d domains, query %d" domains i)
            want got.(i))
        expected)
    [ 1; 2; 4 ]

let qc = Testlib.qc

let () =
  Testlib.seed_banner "engine_diff";
  Alcotest.run "engine_diff"
    [
      ( "differential",
        [
          qc prop_engine_matches_reference;
          qc prop_engine_matches_reference_ordered;
          qc prop_group_by_matches_reference;
          qc prop_roundtrip_same_result;
          qc prop_roundtrip_ordered_same_result;
          qc prop_personalized_plan_matches_execution;
          Alcotest.test_case "duplicate rows under ORDER BY / LIMIT / DISTINCT"
            `Quick test_duplicate_rows_ordered;
          Alcotest.test_case "row order of 224 queries = golden" `Quick
            test_golden_row_order;
          Alcotest.test_case "derived table joined last keeps FROM order"
            `Quick test_derived_join_order;
          Alcotest.test_case "exec minor words within bound" `Quick
            test_exec_minor_words;
          Alcotest.test_case "intersection minor words within bound" `Quick
            test_intersect_minor_words;
        ] );
      ( "vectors",
        [
          qc prop_typed_joins_match_reference;
          Alcotest.test_case "generated joins cover both paths" `Quick
            test_typed_joins_covered;
          Alcotest.test_case "inserts after an execution" `Quick
            test_insert_after_execution;
          Alcotest.test_case "domains share one catalog" `Quick
            test_domains_share_vectors;
        ] );
      ( "intersection",
        [
          qc prop_intersection_matches_group_by;
          Alcotest.test_case "generated wrappers cover the early exit" `Quick
            test_intersection_cases_covered;
          Alcotest.test_case "other shapes keep the GROUP BY path" `Quick
            test_shapes_keep_group_by;
          Alcotest.test_case "ints past 2^53 are not the float they round to"
            `Quick test_rounded_ints_not_equal;
        ] );
    ]

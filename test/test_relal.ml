(* Unit and property tests for the relational substrate. *)

module V = Cqp_relal.Value
module Schema = Cqp_relal.Schema
module Tuple = Cqp_relal.Tuple
module Relation = Cqp_relal.Relation
module Stats = Cqp_relal.Stats
module Catalog = Cqp_relal.Catalog

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Value ----------------------------------------------------------- *)

let test_value_compare () =
  checkb "null first" true (V.compare V.Null (V.Int 0) < 0);
  checki "int eq" 0 (V.compare (V.Int 3) (V.Int 3));
  checkb "int/float coercion eq" true (V.equal (V.Int 3) (V.Float 3.0));
  checkb "int/float coercion lt" true (V.compare (V.Int 3) (V.Float 3.5) < 0);
  checkb "string order" true (V.compare (V.String "a") (V.String "b") < 0);
  checkb "bool order" true (V.compare (V.Bool false) (V.Bool true) < 0)

let test_value_hash_consistent () =
  checki "hash int=float" (V.hash (V.Int 7)) (V.hash (V.Float 7.0))

(* Values drawn to land in [Value.equal]'s non-obvious classes: an int
   and the float it equals (past 2^53 too, where several ints round to
   one float), -0. and 0., NaNs of different bit patterns, and copies
   of strings; plus bools and NULL. *)
let nans =
  [|
    Float.nan;
    -.Float.nan;
    Int64.float_of_bits 0x7FF0000000000001L;
    Int64.float_of_bits 0xFFF8000000000001L;
  |]

let value_gen =
  QCheck.Gen.(
    let big = map (fun k -> (1 lsl 53) + k) (int_range (-4) 4) in
    oneof
      [
        map (fun i -> V.Int i) (int_range (-3) 3);
        map (fun i -> V.Int i) big;
        map (fun i -> V.Int (-i)) big;
        map (fun i -> V.Float (float_of_int i)) (int_range (-3) 3);
        map (fun i -> V.Float (float_of_int i)) big;
        oneofl [ V.Float 0.; V.Float (-0.); V.Float 0.5; V.Float infinity ];
        map (fun i -> V.Float nans.(i)) (int_range 0 3);
        map (fun s -> V.String s) (oneofl [ ""; "a"; "ab"; "b" ]);
        map (fun b -> V.Bool b) bool;
        return V.Null;
      ])

(* A value [Value.equal] should find equal to [v], of another
   representation where there is one. *)
let twin = function
  | V.Int i -> V.Float (float_of_int i)
  | V.Float f when Float.is_integer f && Float.abs f < 4e18 ->
      V.Int (int_of_float f)
  | V.Float f when f = 0. || Float.is_nan f -> V.Float (-.f)
  | V.String s -> V.String (String.init (String.length s) (String.get s))
  | v -> v

let prop_value_hash_respects_equal =
  QCheck.Test.make ~name:"Value.equal a b implies equal hashes" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         pair value_gen value_gen >>= fun (a, b) ->
         map (fun twin_b -> if twin_b then (a, twin a) else (a, b)) bool))
    (fun (a, b) -> (not (V.equal a b)) || V.hash a = V.hash b)

(* The engine indexes rows by a hash's low bits, so consecutive ints
   and floats must not collapse into a few buckets. *)
let test_value_hash_spreads () =
  let spread vs =
    let buckets = Hashtbl.create 1024 in
    List.iter (fun v -> Hashtbl.replace buckets (V.hash v land 1023) ()) vs;
    Hashtbl.length buckets
  in
  let ints = List.init 1000 (fun i -> V.Int i) in
  let floats = List.init 1000 (fun i -> V.Float (float_of_int i /. 4.)) in
  checkb "ints over 1024 buckets" true (spread ints >= 500);
  checkb "floats over 1024 buckets" true (spread floats >= 500)

(* Three numbers near one point where [float_of_int] rounds: ints
   within 4 of ±2^53 and of ±2^62 (the ends of the int range), the
   point as a float and its neighbours, NaN, ±infinity, 0. and -0. *)
let near_edge =
  QCheck.Gen.(
    oneofl [ 0x1p53; -0x1p53; 0x1p62; -0x1p62 ] >>= fun p ->
    let ints =
      if p = 0x1p62 then List.init 4 (fun k -> max_int - k)
      else if p = -0x1p62 then List.init 5 (fun k -> min_int + k)
      else List.init 9 (fun k -> int_of_float p + k - 4)
    in
    let value =
      oneof
        [
          map (fun i -> V.Int i) (oneofl ints);
          map (fun f -> V.Float f) (oneofl [ p; Float.succ p; Float.pred p ]);
          map (fun f -> V.Float f)
            (oneofl [ Float.nan; infinity; neg_infinity; 0.; -0. ]);
        ]
    in
    triple value value value)

let prop_value_compare_order =
  QCheck.Test.make
    ~name:"compare is antisymmetric and transitive past 2^53" ~count:5000
    (QCheck.make
       ~print:(fun (a, b, c) ->
         String.concat " " (List.map V.to_sql [ a; b; c ]))
       near_edge)
    (fun (a, b, c) ->
      let le x y = V.compare x y <= 0 in
      Int.compare (V.compare a b) 0 = -Int.compare (V.compare b a) 0
      && ((not (le a b && le b c)) || le a c)
      && ((not (V.equal a b && V.equal b c)) || V.equal a c))

(* Today's order at the ends: NaN below every number, infinities
   outside every int, and an int past 2^53 apart from the float
   [float_of_int] rounds it to. *)
let test_value_compare_exact () =
  let p53 = 1 lsl 53 in
  checkb "nan below min_int" true (V.compare (V.Float Float.nan) (V.Int min_int) < 0);
  checkb "int above nan" true (V.compare (V.Int 0) (V.Float Float.nan) > 0);
  checkb "max_int below infinity" true (V.compare (V.Int max_int) (V.Float infinity) < 0);
  checkb "min_int above -infinity" true
    (V.compare (V.Int min_int) (V.Float neg_infinity) > 0);
  checkb "2^53 + 1 above 2^53" true
    (V.compare (V.Int (p53 + 1)) (V.Float (float_of_int (p53 + 1))) > 0);
  checkb "max_int below 2^62" true
    (V.compare (V.Int max_int) (V.Float (float_of_int max_int)) < 0);
  checkb "min_int = -2^62" true (V.equal (V.Int min_int) (V.Float (-0x1p62)));
  checkb "2^53 = 2^53" true (V.equal (V.Int p53) (V.Float 0x1p53));
  checkb "0 = -0." true (V.equal (V.Int 0) (V.Float (-0.)));
  checkb "-3 below -2.5" true (V.compare (V.Int (-3)) (V.Float (-2.5)) < 0);
  checkb "-2 above -2.5" true (V.compare (V.Int (-2)) (V.Float (-2.5)) > 0)

let test_value_sql_roundtrip () =
  let roundtrip v = V.of_sql_literal (V.to_sql v) in
  List.iter
    (fun v -> checkb (V.to_sql v) true (V.equal v (roundtrip v)))
    [ V.Int 42; V.Float 3.5; V.String "O'Hara"; V.Null; V.Bool true ]

let test_value_to_float () =
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "int" (Some 3.) (V.to_float (V.Int 3));
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "string" None
    (V.to_float (V.String "x"))

let test_value_compatible () =
  checkb "int/float" true (V.compatible V.Tint V.Tfloat);
  checkb "null/any" true (V.compatible V.Tnull V.Tstring);
  checkb "int/string" false (V.compatible V.Tint V.Tstring)

(* --- Schema ---------------------------------------------------------- *)

let movie =
  Schema.make "Movie"
    [ ("MID", V.Tint, 8); ("title", V.Tstring, 24); ("year", V.Tint, 8) ]

let test_schema_basics () =
  checki "arity" 3 (Schema.arity movie);
  Alcotest.(check (list string))
    "names lowercased"
    [ "mid"; "title"; "year" ]
    (Schema.attr_names movie);
  checki "index case-insensitive" 1 (Schema.index_of movie "TITLE");
  checkb "mem" true (Schema.mem movie "mid");
  checki "tuple width" 40 (Schema.tuple_width movie)

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Schema.make: duplicate attribute x") (fun () ->
      ignore (Schema.make "t" [ ("x", V.Tint, 8); ("X", V.Tint, 8) ]))

let test_schema_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Schema.make: empty attribute list") (fun () ->
      ignore (Schema.make "t" []))

(* --- Tuple ----------------------------------------------------------- *)

let test_tuple_ops () =
  let t = Tuple.make [ V.Int 1; V.String "a"; V.Int 1999 ] in
  checki "arity" 3 (Tuple.arity t);
  checkb "get" true (V.equal (V.String "a") (Tuple.get t 1));
  let p = Tuple.project t [ 2; 0 ] in
  checkb "project order" true
    (Tuple.equal p (Tuple.make [ V.Int 1999; V.Int 1 ]));
  let c = Tuple.concat t p in
  checki "concat arity" 5 (Tuple.arity c)

let tuple_gen =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (oneof
         [
           map (fun i -> V.Int i) small_int;
           map (fun s -> V.String s) small_string;
           return V.Null;
         ])
    |> map Tuple.make)

let prop_tuple_compare_refl =
  QCheck.Test.make ~name:"tuple compare reflexive" ~count:200
    (QCheck.make tuple_gen) (fun t -> Tuple.compare t t = 0)

let prop_tuple_hash_equal =
  QCheck.Test.make ~name:"equal tuples hash equal" ~count:200
    (QCheck.make tuple_gen) (fun t ->
      Tuple.hash t = Tuple.hash (Tuple.make (Tuple.to_list t)))

(* --- Relation -------------------------------------------------------- *)

let mk_rel n =
  Relation.of_tuples ~block_size:128 movie
    (List.init n (fun i ->
         Tuple.make [ V.Int i; V.String (Printf.sprintf "m%d" i); V.Int (1990 + (i mod 10)) ]))

let test_relation_blocks () =
  (* width 40, block 128 -> 3 tuples per block *)
  let r = mk_rel 10 in
  checki "tuples/block" 3 (Relation.tuples_per_block r);
  checki "blocks" 4 (Relation.blocks r);
  checki "card" 10 (Relation.cardinality r);
  checki "empty blocks" 0 (Relation.blocks (Relation.create movie))

(* [storage] is the relation's own array: the tuples in storage order
   below the cardinality, with no copy made. *)
let test_relation_storage () =
  let r = mk_rel 10 in
  let s = Relation.storage r in
  checkb "no copy" true (s == Relation.storage r);
  checkb "holds every tuple" true (Array.length s >= Relation.cardinality r);
  List.iteri
    (fun i t -> checkb (Printf.sprintf "tuple %d in place" i) true (s.(i) == t))
    (Relation.to_list r);
  (* the last of 4 blocks of 3 holds one tuple, position 9 *)
  checkb "last block's tuple" true
    (V.equal (V.Int 9)
       (Tuple.get s.((Relation.blocks r - 1) * Relation.tuples_per_block r) 0))

let test_relation_arity_check () =
  let r = Relation.create movie in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Relation.insert: arity 1, schema movie expects 3")
    (fun () -> Relation.insert r (Tuple.make [ V.Int 1 ]))

let test_relation_iteration () =
  let r = mk_rel 5 in
  checki "fold count" 5 (Relation.fold (fun acc _ -> acc + 1) 0 r);
  checki "to_list" 5 (List.length (Relation.to_list r));
  checki "column length" 5 (List.length (Relation.column r 0))

let prop_blocks_formula =
  QCheck.Test.make ~name:"blocks = ceil(card/per_block)" ~count:100
    QCheck.(int_range 0 200)
    (fun n ->
      let r = mk_rel n in
      let per = Relation.tuples_per_block r in
      Relation.blocks r = (n + per - 1) / per)

(* --- Stats ----------------------------------------------------------- *)

let skewed_rel =
  let schema = Schema.make "s" [ ("g", V.Tstring, 16); ("x", V.Tint, 8) ] in
  Relation.of_tuples schema
    (List.concat
       [
         List.init 50 (fun i -> Tuple.make [ V.String "common"; V.Int i ]);
         List.init 10 (fun i -> Tuple.make [ V.String "medium"; V.Int (i + 50) ]);
         List.init 40 (fun i ->
             Tuple.make [ V.String (Printf.sprintf "rare%02d" i); V.Int (i + 60) ]);
       ])

let test_stats_eq_selectivity () =
  let st = Stats.analyze skewed_rel in
  let sel = Stats.eq_selectivity st "g" (V.String "common") in
  check (Alcotest.float 1e-9) "mcv exact" 0.5 sel;
  let sel_medium = Stats.eq_selectivity st "g" (V.String "medium") in
  check (Alcotest.float 1e-9) "mcv medium" 0.1 sel_medium;
  let sel_rare = Stats.eq_selectivity st "g" (V.String "rare00") in
  checkb "rare positive" true (sel_rare > 0. && sel_rare < 0.1)

let test_stats_range () =
  let st = Stats.analyze skewed_rel in
  let all = Stats.range_selectivity st "x" () in
  checkb "full range ~1" true (all > 0.9);
  let half = Stats.range_selectivity st "x" ~hi:(V.Int 49) () in
  checkb "half range" true (half > 0.3 && half < 0.7);
  let none = Stats.range_selectivity st "x" ~lo:(V.Int 1000) () in
  checkb "empty range ~0" true (none < 0.05)

let test_stats_distinct () =
  let st = Stats.analyze skewed_rel in
  checki "distinct g" 42 (Stats.distinct st "g");
  checki "distinct x" 100 (Stats.distinct st "x");
  checki "unknown col" 0 (Stats.distinct st "nope")

let prop_eq_selectivity_bounded =
  QCheck.Test.make ~name:"eq selectivity in [0,1]" ~count:100
    QCheck.(small_int)
    (fun i ->
      let st = Stats.analyze skewed_rel in
      let s = Stats.eq_selectivity st "x" (V.Int i) in
      s >= 0. && s <= 1.)

(* --- Catalog --------------------------------------------------------- *)

let test_catalog () =
  let c = Catalog.create () in
  Catalog.add c skewed_rel;
  checkb "mem" true (Catalog.mem c "s");
  checkb "case insensitive" true (Catalog.mem c "S");
  checki "blocks" (Relation.blocks skewed_rel) (Catalog.blocks c "s");
  checki "absent blocks" 0 (Catalog.blocks c "zzz");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Catalog.add: duplicate relation s") (fun () ->
      Catalog.add c skewed_rel);
  let st = Catalog.stats c "s" in
  checki "stats card" 100 st.Stats.rel_card;
  (* cached: same physical result *)
  checkb "stats cached" true (st == Catalog.stats c "s");
  Catalog.refresh_stats c;
  checkb "refresh drops cache" true (not (st == Catalog.stats c "s"))

let qc = Testlib.qc

let () =
  Testlib.seed_banner "relal";
  Alcotest.run "relal"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "compare exactly across Int/Float" `Quick
            test_value_compare_exact;
          qc prop_value_compare_order;
          Alcotest.test_case "hash" `Quick test_value_hash_consistent;
          qc prop_value_hash_respects_equal;
          Alcotest.test_case "hash spreads numbers" `Quick
            test_value_hash_spreads;
          Alcotest.test_case "sql roundtrip" `Quick test_value_sql_roundtrip;
          Alcotest.test_case "to_float" `Quick test_value_to_float;
          Alcotest.test_case "compatible" `Quick test_value_compatible;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicate" `Quick test_schema_duplicate;
          Alcotest.test_case "empty" `Quick test_schema_empty;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "ops" `Quick test_tuple_ops;
          qc prop_tuple_compare_refl;
          qc prop_tuple_hash_equal;
        ] );
      ( "relation",
        [
          Alcotest.test_case "blocks" `Quick test_relation_blocks;
          Alcotest.test_case "storage" `Quick test_relation_storage;
          Alcotest.test_case "arity check" `Quick test_relation_arity_check;
          Alcotest.test_case "iteration" `Quick test_relation_iteration;
          qc prop_blocks_formula;
        ] );
      ( "stats",
        [
          Alcotest.test_case "eq selectivity" `Quick test_stats_eq_selectivity;
          Alcotest.test_case "range" `Quick test_stats_range;
          Alcotest.test_case "distinct" `Quick test_stats_distinct;
          qc prop_eq_selectivity_bounded;
        ] );
      ("catalog", [ Alcotest.test_case "basics" `Quick test_catalog ]);
    ]

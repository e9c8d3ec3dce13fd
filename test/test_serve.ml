(* Unit tests for the serve layer: the LRU building block, the
   cross-request Cache (keys, invalidation, metric reconciliation), and
   the Serve driver itself. *)

module C = Cqp_core
module W = Cqp_workload
module S = Cqp_serve
module Lru = Cqp_util.Lru
module Rng = Cqp_util.Rng
module Profile = Cqp_prefs.Profile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Lru ---------------------------------------------------------------- *)

let test_lru_capacity_zero () =
  let t : (int, string) Lru.t = Lru.create ~capacity:0 () in
  Lru.add t 1 "a";
  checki "nothing stored" 0 (Lru.length t);
  checkb "find misses" true (Lru.find t 1 = None);
  Alcotest.check Alcotest.string "find_or_add computes every time" "b"
    (Lru.find_or_add t 1 (fun () -> "b"));
  let s = Lru.stats t in
  checki "no inserts at capacity 0" 0 s.Lru.inserts;
  checki "no evictions at capacity 0" 0 s.Lru.evictions;
  checki "two lookups" 2 s.Lru.lookups;
  checki "all misses" 2 s.Lru.misses;
  checkb "negative capacity rejected" true
    (match Lru.create ~capacity:(-1) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_lru_capacity_one () =
  let t : (int, int) Lru.t = Lru.create ~capacity:1 () in
  Lru.add t 1 10;
  Lru.add t 2 20;
  checki "one entry" 1 (Lru.length t);
  checkb "old key evicted" true (Lru.find t 1 = None);
  checkb "new key present" true (Lru.find t 2 = Some 20);
  Lru.add t 2 21;
  checkb "replace in place" true (Lru.find t 2 = Some 21);
  let s = Lru.stats t in
  checki "replace is not an insert" 2 s.Lru.inserts;
  checki "one eviction" 1 s.Lru.evictions

let test_lru_eviction_order () =
  let t : (int, int) Lru.t = Lru.create ~capacity:3 () in
  Lru.add t 1 1;
  Lru.add t 2 2;
  Lru.add t 3 3;
  (* Promote 1: the LRU victim becomes 2. *)
  ignore (Lru.find t 1);
  Lru.add t 4 4;
  checkb "2 evicted (least recently used)" true (Lru.find t 2 = None);
  checkb "1 survived (promoted on hit)" true (Lru.find t 1 = Some 1);
  checkb "3 survived" true (Lru.find t 3 = Some 3);
  checkb "4 survived" true (Lru.find t 4 = Some 4);
  (* mem is recency-neutral: touching 1 via mem must not save it. *)
  let t2 : (int, int) Lru.t = Lru.create ~capacity:2 () in
  Lru.add t2 1 1;
  Lru.add t2 2 2;
  checkb "mem sees 1" true (Lru.mem t2 1);
  Lru.add t2 3 3;
  checkb "mem did not promote" true (Lru.find t2 1 = None)

let test_lru_remove_and_clear () =
  let t : (string, int) Lru.t = Lru.create ~capacity:8 () in
  List.iter (fun (k, v) -> Lru.add t k v)
    [ ("a|1", 1); ("a|2", 2); ("b|1", 3); ("b|2", 4) ];
  checkb "remove present" true (Lru.remove t "a|1");
  checkb "remove absent" false (Lru.remove t "a|1");
  checki "prefix invalidation" 2
    (Lru.remove_if t (fun k -> String.length k > 0 && k.[0] = 'b'));
  checki "one left" 1 (Lru.length t);
  Lru.clear t;
  checki "cleared" 0 (Lru.length t);
  let s = Lru.stats t in
  checki "removals counted" 4 s.Lru.removals;
  checki "weight released" 0 (Lru.weight_held t)

let test_lru_weight () =
  let t : (int, int list) Lru.t =
    Lru.create ~weight:List.length ~capacity:4 ()
  in
  Lru.add t 1 [ 1; 2; 3 ];
  Lru.add t 2 [ 4 ];
  checki "weights add" 4 (Lru.weight_held t);
  Lru.add t 1 [ 5 ];
  checki "replace updates weight" 2 (Lru.weight_held t);
  ignore (Lru.remove t 2);
  checki "remove releases weight" 1 (Lru.weight_held t)

let test_lru_invariants_fuzz () =
  (* Random op soup; the stats invariants must hold at every step. *)
  let rng = Rng.create 2024 in
  let t : (int, int) Lru.t = Lru.create ~capacity:4 () in
  for step = 1 to 2000 do
    let k = Rng.int rng 12 in
    (match Rng.int rng 5 with
    | 0 | 1 -> Lru.add t k step
    | 2 -> ignore (Lru.find t k)
    | 3 -> ignore (Lru.find_or_add t k (fun () -> step))
    | _ -> ignore (Lru.remove t k));
    let s = Lru.stats t in
    checkb "hits + misses = lookups" true
      (s.Lru.hits + s.Lru.misses = s.Lru.lookups);
    checkb "evictions <= inserts" true (s.Lru.evictions <= s.Lru.inserts);
    checkb "length bounded by capacity" true (Lru.length t <= 4)
  done

(* --- Cache -------------------------------------------------------------- *)

let catalog =
  lazy (Testlib.small_imdb ~seed:11 ())

let mk_profile seed =
  W.Profile_gen.generate ~rng:(Rng.create seed) (Lazy.force catalog)

let mk_estimate ?memo sql =
  let catalog = Lazy.force catalog in
  let q = Cqp_sql.Parser.parse sql in
  Cqp_sql.Analyzer.check catalog q;
  C.Estimate.create ?memo catalog q

let same_pref_space a b =
  a.C.Pref_space.items = b.C.Pref_space.items
  && a.C.Pref_space.d = b.C.Pref_space.d
  && a.C.Pref_space.c = b.C.Pref_space.c
  && a.C.Pref_space.s = b.C.Pref_space.s

let test_cache_hit_and_equivalence () =
  let cache = C.Cache.create (Lazy.force catalog) in
  let profile = mk_profile 1 in
  let est = mk_estimate ?memo:(C.Cache.memo cache) "select title from movie" in
  let uncached = C.Pref_space.build ~max_k:10 (mk_estimate "select title from movie") profile in
  let first = C.Cache.pref_space cache ~max_k:10 est profile in
  let second = C.Cache.pref_space cache ~max_k:10 est profile in
  checkb "cached = uncached" true (same_pref_space uncached first);
  checkb "hit = miss result" true (same_pref_space first second);
  let s = C.Cache.extraction_stats cache in
  checki "two lookups" 2 s.Lru.lookups;
  checki "one hit" 1 s.Lru.hits;
  checki "one insert" 1 s.Lru.inserts

let test_cache_key_isolation () =
  (* Different constraints (cmax prunes chains) and different profiles
     must not share entries. *)
  let cache = C.Cache.create (Lazy.force catalog) in
  let est = mk_estimate ?memo:(C.Cache.memo cache) "select title from movie" in
  let p1 = mk_profile 1 and p2 = mk_profile 2 in
  ignore (C.Cache.pref_space cache est p1);
  ignore (C.Cache.pref_space cache est p2);
  ignore
    (C.Cache.pref_space cache
       ~constraints:(C.Params.with_cmax 120.)
       est p1);
  let s = C.Cache.extraction_stats cache in
  checki "three distinct keys" 3 s.Lru.inserts;
  checki "no false hits" 0 s.Lru.hits

let test_cache_invalidation () =
  let cache = C.Cache.create (Lazy.force catalog) in
  let est = mk_estimate ?memo:(C.Cache.memo cache) "select title from movie" in
  let p1 = mk_profile 1 and p2 = mk_profile 2 in
  ignore (C.Cache.pref_space cache est p1);
  ignore (C.Cache.pref_space cache est p2);
  checki "two entries" 2 (C.Cache.extraction_entries cache);
  checki "p1 dropped" 1 (C.Cache.invalidate_profile cache p1);
  checki "one entry left" 1 (C.Cache.extraction_entries cache);
  ignore (C.Cache.pref_space cache est p2);
  let s = C.Cache.extraction_stats cache in
  checki "p2 still hits after invalidating p1" 1 s.Lru.hits;
  checki "nothing to drop twice" 0 (C.Cache.invalidate_profile cache p1)

let test_cache_metrics_reconcile () =
  Cqp_obs.Metrics.reset ();
  Cqp_obs.Metrics.enable ();
  Fun.protect ~finally:Cqp_obs.Metrics.disable @@ fun () ->
  let cache = C.Cache.create ~pref_space_capacity:1 (Lazy.force catalog) in
  let est = mk_estimate ?memo:(C.Cache.memo cache) "select title from movie" in
  let p1 = mk_profile 1 and p2 = mk_profile 2 in
  ignore (C.Cache.pref_space cache est p1);
  C.Cache.publish_metrics cache;
  ignore (C.Cache.pref_space cache est p1);
  ignore (C.Cache.pref_space cache est p2);
  (* p2 evicts p1 at capacity 1. *)
  ignore (C.Cache.pref_space cache est p1);
  C.Cache.publish_metrics cache;
  let v name = Cqp_obs.Metrics.counter_value ("serve.cache.pref_space." ^ name) in
  checki "lookups" 4 (v "lookups");
  checki "hits" 1 (v "hits");
  checkb "hits + misses = lookups" true (v "hits" + v "misses" = v "lookups");
  checkb "evictions <= inserts" true (v "evictions" <= v "inserts");
  checkb "evictions happened" true (v "evictions" >= 1);
  let lookups = Cqp_obs.Metrics.counter_value "serve.cache.estimate.lookups" in
  let hits = Cqp_obs.Metrics.counter_value "serve.cache.estimate.hits" in
  let misses = Cqp_obs.Metrics.counter_value "serve.cache.estimate.misses" in
  checkb "estimate memo used" true (lookups > 0);
  checki "estimate hits + misses = lookups" lookups (hits + misses)

(* --- Serve -------------------------------------------------------------- *)

let request sql =
  {
    S.Serve.user = "u";
    sql;
    problem = C.Problem.problem2 ~cmax:400.;
    max_k = Some 10;
    algorithm = C.Algorithm.C_boundaries;
    execute = false;
  }

let test_serve_basics () =
  Alcotest.check_raises "no lanes" (Invalid_argument "Serve.create: lanes < 1")
    (fun () -> ignore (S.Serve.create ~lanes:0 (Lazy.force catalog)));
  let server = S.Serve.create (Lazy.force catalog) in
  checkb "unknown user raises" true
    (match S.Serve.handle server (request "select title from movie") with
    | exception S.Serve.Unknown_user "u" -> true
    | _ -> false);
  S.Serve.set_profile server ~user:"u" (mk_profile 1);
  let r1 = S.Serve.handle server (request "select title from movie") in
  let r2 = S.Serve.handle server (request "select title from movie") in
  let o1 = S.Serve.outcome_exn r1 and o2 = S.Serve.outcome_exn r2 in
  checkb "identical outcomes across cold/warm" true
    (same_pref_space o1.C.Personalizer.pref_space
       o2.C.Personalizer.pref_space
    && o1.C.Personalizer.personalized = o2.C.Personalizer.personalized);
  (match S.Serve.caches server with
  | [ c ] ->
      let s = C.Cache.extraction_stats c in
      checki "second request hit the cache" 1 s.Lru.hits
  | _ -> Alcotest.fail "expected one cache");
  (* A semantic profile update invalidates; an identical reinstall
     does not. *)
  S.Serve.set_profile server ~user:"u" (mk_profile 1);
  (match S.Serve.caches server with
  | [ c ] -> checki "identical reinstall keeps entries" 1
                (C.Cache.extraction_entries c)
  | _ -> ());
  S.Serve.set_profile server ~user:"u" (mk_profile 99);
  (match S.Serve.caches server with
  | [ c ] -> checki "real update invalidates" 0 (C.Cache.extraction_entries c)
  | _ -> ())

let test_workload_roundtrip () =
  let entries =
    S.Workload.generate ~users:2 ~requests:6 ~updates:1
      ~rng:(Rng.create 5) (Lazy.force catalog)
  in
  let lines = List.map S.Workload.entry_to_line entries in
  let back = List.map S.Workload.entry_of_line lines in
  checkb "print/parse roundtrip" true (entries = back);
  (* Entry [i] is split-keyed: the same index yields the same request
     no matter the batch size. *)
  let small =
    S.Workload.generate ~users:2 ~requests:3 ~rng:(Rng.create 5)
      (Lazy.force catalog)
  in
  let req_of = List.filter_map (function
    | S.Workload.Request r -> Some r
    | S.Workload.Set_profile _ -> None)
  in
  let big_reqs = req_of entries and small_reqs = req_of small in
  List.iteri
    (fun i r ->
      checkb (Printf.sprintf "request %d stable across batch sizes" i) true
        (List.nth big_reqs i = r))
    small_reqs

let test_workload_load_names_offending_line () =
  let entries =
    S.Workload.generate ~users:2 ~requests:2 ~rng:(Rng.create 5)
      (Lazy.force catalog)
  in
  let file = Filename.temp_file "cqp-workload" ".tsv" in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let req problem =
    "req\tu00\t" ^ problem ^ "\t8\tC_Boundaries\t-\tselect title from movie"
  in
  let shape ?(sel = "5") ?(doi = "u:0x1p-2:0x1p-1") ?(join = "0x1p-1:0x1p+0")
      () =
    Printf.sprintf "user\tu00\t7\tsel=%s;doi=%s;join=%s" sel doi join
  in
  (* A malformed entry, then numbers that parse but mean nothing: NaN
     bounds, problems no solver answers (Problem 2 without cmax, Problem
     1 without a size bound, Problem 3 without cmax), doi bounds outside
     [0, 1] or not finite, non-finite normal parameters and a negative
     selection count. *)
  let bad_lines =
    [
      "req\tonly-two-fields";
      req "2:cmax=nan";
      req "4:dmin=nan";
      req "2:";
      req "1:";
      req "3:smin=0x1p+0";
      shape ~doi:"u:nan:0x1p-1" ();
      shape ~doi:"u:0x1p-1:0x1p+1" ();
      shape ~doi:"n:nan:0x1p-3" ();
      shape ~doi:"n:0x1p-1:infinity" ();
      shape ~join:"0x1p-1:0x1p+1" ();
      shape ~join:"nan:0x1p+0" ();
      shape ~sel:"-3" ();
    ]
  in
  (* Infinite constraint bounds are vacuous, hence accepted. *)
  List.iter
    (fun line ->
      checkb ("accepted: " ^ line) true
        (match S.Workload.entry_of_line line with
        | S.Workload.Request _ -> true
        | _ -> false))
    [ req "2:cmax=infinity"; req "3:cmax=0x1p+9,smin=-infinity,smax=inf" ];
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      S.Workload.save file entries;
      (* Round-trip sanity before corrupting anything. *)
      checkb "save/load roundtrip" true (S.Workload.load file = entries);
      List.iter
        (fun bad ->
          (* A blank line (skipped but counted) and the bad entry: the
             error must carry the file and the 1-based line number of
             the bad line, not just the parse failure. *)
          S.Workload.save file entries;
          let oc = open_out_gen [ Open_append ] 0o644 file in
          output_string oc ("\n" ^ bad ^ "\n");
          close_out oc;
          let bad_line = List.length entries + 2 in
          match S.Workload.load file with
          | _ -> Alcotest.failf "malformed workload loaded: %S" bad
          | exception Failure msg ->
              checkb
                (Printf.sprintf "names file (got %S)" msg)
                true
                (String.length msg >= String.length file
                && String.sub msg 0 (String.length file) = file);
              checkb
                (Printf.sprintf "names line %d (got %S)" bad_line msg)
                true
                (contains msg (Printf.sprintf "line %d" bad_line)))
        bad_lines)

let test_workload_replay_deterministic () =
  let entries =
    S.Workload.generate ~users:2 ~requests:5 ~updates:1
      ~rng:(Rng.create 9) (Lazy.force catalog)
  in
  let run () =
    let server = S.Serve.create (Lazy.force catalog) in
    List.map
      (fun r ->
        Cqp_sql.Printer.to_string
          (S.Serve.outcome_exn r).C.Personalizer.personalized)
      (S.Workload.replay server entries)
  in
  Alcotest.(check (list string)) "replay is deterministic" (run ()) (run ())

let () =
  Testlib.seed_banner "serve";
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "capacity 0" `Quick test_lru_capacity_zero;
          Alcotest.test_case "capacity 1" `Quick test_lru_capacity_one;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_and_clear;
          Alcotest.test_case "weight accounting" `Quick test_lru_weight;
          Alcotest.test_case "stats invariants (fuzz)" `Quick
            test_lru_invariants_fuzz;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit + equivalence" `Quick
            test_cache_hit_and_equivalence;
          Alcotest.test_case "key isolation" `Quick test_cache_key_isolation;
          Alcotest.test_case "invalidation" `Quick test_cache_invalidation;
          Alcotest.test_case "metrics reconcile" `Quick
            test_cache_metrics_reconcile;
        ] );
      ( "serve",
        [
          Alcotest.test_case "basics" `Quick test_serve_basics;
          Alcotest.test_case "workload roundtrip" `Quick
            test_workload_roundtrip;
          Alcotest.test_case "load names offending line" `Quick
            test_workload_load_names_offending_line;
          Alcotest.test_case "replay deterministic" `Quick
            test_workload_replay_deterministic;
        ] );
    ]

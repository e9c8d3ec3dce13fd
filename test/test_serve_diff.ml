(* Differential property tests for the serve layer: with caches enabled,
   every response must be bit-identical to the cache-disabled run —
   same selected preferences, same doi/cost/size estimates, same
   rewritten SQL, same executed rows — across random seeds, profiles,
   query workloads, and interleaved profile updates (which exercise
   invalidation / stale-hit detection). *)

module C = Cqp_core
module W = Cqp_workload
module S = Cqp_serve
module Rng = Cqp_util.Rng

let catalog = lazy (Testlib.small_imdb ~seed:3 ())

(* Everything observable about a response (solutions, params, SQL,
   rows — not latency), compared with structural equality. *)
let observable = Testlib.serve_observable

let replay_observables ~caching entries =
  let server = S.Serve.create ~caching (Lazy.force catalog) in
  List.map observable (S.Workload.replay server entries)

let workload ?(execute = false) seed =
  S.Workload.generate ~users:3 ~requests:6 ~updates:2 ~execute
    ~rng:(Rng.create seed) (Lazy.force catalog)

let prop_cached_equals_uncached =
  QCheck.Test.make ~name:"caches change nothing (solutions, params, SQL)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let entries = workload seed in
      replay_observables ~caching:true entries
      = replay_observables ~caching:false entries)

let prop_cached_equals_uncached_executed =
  QCheck.Test.make ~name:"caches change nothing (executed rows)" ~count:10
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let entries = workload ~execute:true seed in
      replay_observables ~caching:true entries
      = replay_observables ~caching:false entries)

let prop_tiny_cache_equals_uncached =
  (* Capacity 1 maximizes evictions; capacity 0 disables storage while
     keeping the cache code path.  Neither may change anything. *)
  QCheck.Test.make ~name:"pathological capacities change nothing" ~count:20
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1))
    (fun (seed, capacity) ->
      let entries = workload seed in
      let tiny =
        let server =
          S.Serve.create ~caching:true ~pref_space_capacity:capacity
            (Lazy.force catalog)
        in
        List.map observable (S.Workload.replay server entries)
      in
      tiny = replay_observables ~caching:false entries)

(* Directed stale-hit check: serve, update the profile, serve the SAME
   query again — the warm cache must not reuse the old extraction. *)
let test_no_stale_hit_after_update () =
  let catalog = Lazy.force catalog in
  let request =
    {
      S.Serve.user = "u";
      sql = "select title from movie";
      problem = C.Problem.problem2 ~cmax:400.;
      max_k = Some 12;
      algorithm = C.Algorithm.C_boundaries;
      execute = false;
    }
  in
  let profile_a = W.Profile_gen.generate ~rng:(Rng.create 1) catalog in
  let profile_b = W.Profile_gen.generate ~rng:(Rng.create 2) catalog in
  let fresh profile =
    let server = S.Serve.create ~caching:false catalog in
    S.Serve.set_profile server ~user:"u" profile;
    observable (S.Serve.handle server request)
  in
  let server = S.Serve.create ~caching:true catalog in
  S.Serve.set_profile server ~user:"u" profile_a;
  let a1 = observable (S.Serve.handle server request) in
  S.Serve.set_profile server ~user:"u" profile_b;
  let b = observable (S.Serve.handle server request) in
  S.Serve.set_profile server ~user:"u" profile_a;
  let a2 = observable (S.Serve.handle server request) in
  Alcotest.(check bool) "cold A = fresh A" true (a1 = fresh profile_a);
  Alcotest.(check bool) "post-update B = fresh B (no stale hit)" true
    (b = fresh profile_b);
  Alcotest.(check bool) "back to A = fresh A" true (a2 = fresh profile_a);
  Alcotest.(check bool) "A and B actually differ" false (a1 = b)

let qc = Testlib.qc

let () =
  Testlib.seed_banner "serve_diff";
  Alcotest.run "serve_diff"
    [
      ( "differential",
        [
          qc prop_cached_equals_uncached;
          qc prop_cached_equals_uncached_executed;
          qc prop_tiny_cache_equals_uncached;
          Alcotest.test_case "no stale hit after profile update" `Quick
            test_no_stale_hit_after_update;
        ] );
    ]

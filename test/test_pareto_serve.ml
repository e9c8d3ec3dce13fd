(* Pareto serving through the degradation ladder.

   Two contracts.  Inertness: with [pareto] enabled but no deadline
   pressure, responses are bit-identical to the default server — the
   front is computed and cached per (query, profile) but never
   consulted, so the feature can ship dark.  Pressure: with a
   sub-microsecond deadline every request is answered off the cached
   front at the [Pareto] rung with its operating-point index recorded,
   deterministically across repeated runs and 1/2/4 domains, and the
   [serve.pareto.*] counters reconcile exactly with the response
   labels and the front-cache stats. *)

module C = Cqp_core
module S = Cqp_serve
module Rung = Cqp_resilience.Rung
module Config = Cqp_resilience.Config
module Pool = Cqp_par.Pool
module Rng = Cqp_util.Rng
module Lru = Cqp_util.Lru
module Metrics = Cqp_obs.Metrics

let catalog = lazy (Testlib.small_imdb ~seed:5 ())

let workload ~requests seed =
  S.Workload.generate ~users:3 ~requests ~updates:2 ~rng:(Rng.create seed)
    (Lazy.force catalog)

let pareto_config = { Config.default with Config.pareto = true }

let replay ?deadline_ms ~domains ~resilience entries =
  let resilience =
    match deadline_ms with
    | None -> resilience
    | Some d -> { resilience with Config.deadline_ms = Some d }
  in
  let server =
    S.Serve.create ~caching:true ~resilience ~lanes:domains
      (Lazy.force catalog)
  in
  Alcotest.(check int) "server lanes" domains (S.Serve.lanes server);
  let responses =
    if domains = 1 then S.Workload.replay server entries
    else
      Pool.with_pool ~domains (fun pool ->
          S.Workload.replay ~pool server entries)
  in
  (server, responses)

let observables ?deadline_ms ~domains ~resilience entries =
  List.map Testlib.serve_observable
    (snd (replay ?deadline_ms ~domains ~resilience entries))

let request_count entries =
  List.length
    (List.filter
       (function S.Workload.Request _ -> true | S.Workload.Set_profile _ -> false)
       entries)

(* --- inertness: the front cache cannot change answers ------------------ *)

let test_pareto_config_is_inert () =
  Alcotest.(check bool) "pareto alone keeps the config inert" true
    (Config.is_inert pareto_config);
  let entries = workload ~requests:10 23 in
  let baseline = observables ~domains:1 ~resilience:Config.default entries in
  let with_pareto = observables ~domains:1 ~resilience:pareto_config entries in
  Alcotest.(check bool)
    "pareto without deadline pressure is bit-identical to the default" true
    (with_pareto = baseline);
  List.iter
    (function
      | `Served (_, _, _, _, rung, _, _, front_point) ->
          Alcotest.(check string) "no pressure: full rung" "full" rung;
          Alcotest.(check bool) "no pressure: no front point" true
            (front_point = None)
      | `Shed _ -> Alcotest.fail "pareto config must never shed")
    with_pareto

let test_front_cache_warms () =
  let entries = workload ~requests:12 31 in
  let server, _ = replay ~domains:1 ~resilience:pareto_config entries in
  let cache =
    match S.Serve.caches server with
    | [ c ] -> c
    | _ -> Alcotest.fail "a one-lane caching server has one cache"
  in
  let cold = C.Cache.front_stats cache in
  Alcotest.(check int) "one front lookup per served request"
    (request_count entries) cold.Lru.lookups;
  Alcotest.(check bool) "front cache holds entries and points" true
    (C.Cache.front_entries cache > 0 && C.Cache.front_points_held cache > 0);
  (* Same entries replayed warm: every (query, profile) front repeats,
     so the second pass is all hits. *)
  let _ = S.Workload.replay server entries in
  let warm = C.Cache.front_stats cache in
  Alcotest.(check int) "warm pass doubles the lookups"
    (2 * request_count entries)
    warm.Lru.lookups;
  Alcotest.(check bool) "warm pass hits" true (warm.Lru.hits > cold.Lru.hits);
  Alcotest.(check int) "lookups reconcile as hits + misses" warm.Lru.lookups
    (warm.Lru.hits + warm.Lru.misses)

(* --- pressure: serving off the front ----------------------------------- *)

let pressure_deadline = 1e-4

let test_pressure_serves_pareto_rung () =
  let entries = workload ~requests:12 47 in
  let obs =
    observables ~deadline_ms:pressure_deadline ~domains:1
      ~resilience:pareto_config entries
  in
  Alcotest.(check int) "every request answered" (request_count entries)
    (List.length obs);
  List.iter
    (function
      | `Served (_, _, _, _, rung, _, expired, front_point) ->
          Alcotest.(check string) "pressure: pareto rung" "pareto" rung;
          Alcotest.(check bool) "pressure: deadline expired" true expired;
          Alcotest.(check bool) "pressure: front point recorded" true
            (front_point <> None)
      | `Shed _ -> Alcotest.fail "pressure must degrade, not shed")
    obs

let test_pressure_deterministic_across_domains () =
  let entries = workload ~requests:12 47 in
  let at domains =
    observables ~deadline_ms:pressure_deadline ~domains
      ~resilience:pareto_config entries
  in
  let one = at 1 in
  Alcotest.(check bool) "pressure replay is run-deterministic" true
    (at 1 = one);
  Alcotest.(check bool) "2 domains match sequential" true (at 2 = one);
  Alcotest.(check bool) "4 domains match sequential" true (at 4 = one)

let test_pressure_metrics_reconcile () =
  Metrics.enable ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Metrics.disable ())
    (fun () ->
      let entries = workload ~requests:12 47 in
      let _, responses =
        replay ~deadline_ms:pressure_deadline ~domains:1
          ~resilience:pareto_config entries
      in
      let pareto_rungs =
        List.length
          (List.filter
             (fun (r : S.Serve.response) ->
               match r.S.Serve.verdict with
               | S.Serve.Served s -> s.S.Serve.rung = Rung.Pareto
               | S.Serve.Shed _ -> false)
             responses)
      in
      let counter = Metrics.counter_value in
      Alcotest.(check int) "serve.pareto.served = pareto-rung responses"
        pareto_rungs
        (counter "serve.pareto.served");
      Alcotest.(check int) "every pressure response came off the front"
        (request_count entries) pareto_rungs;
      Alcotest.(check int) "degraded counter tracks the pareto rung"
        pareto_rungs
        (counter "resilience.degraded.pareto");
      Alcotest.(check int) "front lookups = served requests"
        (request_count entries)
        (counter "serve.pareto.lookups");
      Alcotest.(check int) "front lookups reconcile as hits + misses"
        (counter "serve.pareto.lookups")
        (counter "serve.pareto.hits" + counter "serve.pareto.misses"))

(* --- invalidation: profile replacement drops cached fronts ------------- *)

let test_fingerprint_invalidation_drops_fronts () =
  let entries = workload ~requests:10 59 in
  let server, _ = replay ~domains:1 ~resilience:pareto_config entries in
  let cache = List.hd (S.Serve.caches server) in
  Alcotest.(check bool) "fronts cached" true (C.Cache.front_entries cache > 0);
  (* Front keys lead with the profile fingerprint, so the prefix
     invalidation that already covers extractions covers fronts too:
     releasing every live fingerprint leaves the front cache empty. *)
  let dropped = ref 0 in
  List.iter
    (fun user ->
      match S.Serve.profile server user with
      | Some p ->
          dropped :=
            !dropped
            + C.Cache.invalidate_fingerprint cache
                (Cqp_prefs.Profile.fingerprint p)
      | None -> ())
    [ "u00"; "u01"; "u02" ];
  Alcotest.(check bool) "invalidation released entries" true (!dropped > 0);
  Alcotest.(check int) "every cached front was keyed by a live fingerprint" 0
    (C.Cache.front_entries cache)

let () =
  Testlib.seed_banner "test_pareto_serve";
  Alcotest.run "pareto_serve"
    [
      ( "inert",
        [
          Alcotest.test_case "bit-identical without pressure" `Quick
            test_pareto_config_is_inert;
          Alcotest.test_case "front cache warms" `Quick test_front_cache_warms;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "serves the pareto rung" `Quick
            test_pressure_serves_pareto_rung;
          Alcotest.test_case "deterministic at 1/2/4 domains" `Slow
            test_pressure_deterministic_across_domains;
          Alcotest.test_case "metrics reconcile" `Quick
            test_pressure_metrics_reconcile;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "fingerprint invalidation drops fronts" `Quick
            test_fingerprint_invalidation_drops_fronts;
        ] );
    ]

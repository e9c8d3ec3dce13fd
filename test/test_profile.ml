(* Request profiling: phase attribution through phase spans, the
   agreement of the trace, the phase histograms and the JSONL request
   log, the Prometheus exposition, the BENCH trajectory comparator, and
   the serve-path invariant that profiling changes no observable
   response. *)

module P = Cqp_obs
module Req = P.Request
module Phase = P.Phase
module Trace = P.Trace
module Metrics = Cqp_obs.Metrics
module Clock = Cqp_obs.Clock
module S = Cqp_serve
module Rng = Cqp_util.Rng

let checki msg = Alcotest.(check int) msg
let checkb msg = Alcotest.(check bool) msg

let spin us =
  let t0 = Clock.raw_us () in
  while Clock.raw_us () -. t0 < us do
    ()
  done

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Fresh switches per test; profiling off again afterwards so the rest
   of the suite (and test-order shuffles) see the default state. *)
let with_profiling f =
  Metrics.reset ();
  Metrics.enable ();
  Req.enable ();
  Fun.protect
    ~finally:(fun () ->
      Req.abort ();
      Req.disable ();
      Metrics.disable ();
      Metrics.reset ())
    f

(* --- phase timers ------------------------------------------------------ *)

(* A phase span, as the serve pipeline opens them. *)
let timed phase f = Trace.with_span ~name:(Phase.name phase) ~phase f

let test_phase_attribution () =
  with_profiling @@ fun () ->
  Req.start ~id:(Req.fresh_id ()) ~user:"u";
  let w0 = Clock.raw_us () in
  timed Phase.Solve (fun () ->
      spin 2000.;
      (* nested same-phase block: must NOT be counted twice *)
      timed Phase.Solve (fun () -> spin 2000.);
      (* distinct phase nests freely: Degrade is a subset of Solve *)
      timed Phase.Degrade (fun () -> spin 1000.));
  let wall = Clock.raw_us () -. w0 in
  let solve = Req.phase_us Phase.Solve in
  let degrade = Req.phase_us Phase.Degrade in
  checkb "solve covers the whole block" true (solve >= 4000.);
  (* double counting would push solve to ~wall + 2000us *)
  checkb "nested same-phase not double-counted" true (solve <= wall +. 100.);
  checkb "degrade attributed" true (degrade >= 1000.);
  checkb "degrade within solve" true (degrade <= solve);
  checkb "untouched phase is zero" true (Req.phase_us Phase.Exec = 0.)

let test_timed_exception_safe () =
  with_profiling @@ fun () ->
  Req.start ~id:(Req.fresh_id ()) ~user:"u";
  (try timed Phase.Exec (fun () -> spin 500.; failwith "boom")
   with Failure _ -> ());
  checkb "time credited despite raise" true (Req.phase_us Phase.Exec >= 500.);
  (* the open-phase mark must have unwound: a second span still counts *)
  timed Phase.Exec (fun () -> spin 500.);
  checkb "second timed accumulates" true (Req.phase_us Phase.Exec >= 1000.)

let test_finish_publishes () =
  with_profiling @@ fun () ->
  Req.start ~id:(Req.fresh_id ()) ~user:"alice";
  Req.record_us Phase.Queue_wait 123.;
  timed Phase.Solve (fun () -> spin 200.);
  Req.finish ~rung:"full" ~outcome:"ok" ~cache_hits:1 ~cache_lookups:2
    ~latency_us:400.;
  checki "request counted" 1 (Metrics.counter_value "profile.requests");
  checki "queue_wait observed" 1
    (Metrics.histogram_count "profile.phase.queue_wait_us");
  checki "solve observed" 1 (Metrics.histogram_count "profile.phase.solve_us");
  checki "untouched phase not observed" 0
    (Metrics.histogram_count "profile.phase.exec_us");
  checkb "context cleared" true (Req.phase_us Phase.Solve = 0.);
  (* a second finish without a context is a no-op *)
  Req.finish ~rung:"full" ~outcome:"ok" ~cache_hits:0 ~cache_lookups:0
    ~latency_us:1.;
  checki "no double publish" 1 (Metrics.counter_value "profile.requests")

let test_disabled_is_transparent () =
  Req.disable ();
  Req.start ~id:(Req.fresh_id ()) ~user:"u";
  checkb "no context while disabled" false (Req.active ());
  let r = timed Phase.Solve (fun () -> 41 + 1) in
  checki "timed is transparent" 42 r;
  checkb "nothing accumulated" true (Req.phase_us Phase.Solve = 0.);
  let a = Req.fresh_id () in
  let b = Req.fresh_id () in
  checki "ids still advance while disabled" (a + 1) b

(* --- one timing path ---------------------------------------------------- *)

(* One request served with tracing, profiling and the event log all on.
   Each phase's JSONL microseconds, its histogram observation and the
   summed durations of its tagged (outermost) trace spans are equal as
   floats: all three come from the same two clock readings per span.
   [queue_wait] has no span; it is credited from the enqueue stamp. *)
let test_one_timing_path () =
  let catalog = Testlib.small_imdb ~seed:11 () in
  let server = S.Serve.create catalog in
  S.Serve.set_profile server ~user:"u"
    (Cqp_workload.Profile_gen.generate ~rng:(Rng.create 3) catalog);
  let req =
    {
      S.Serve.user = "u";
      sql = "select title from movie";
      problem = Cqp_core.Problem.problem2 ~cmax:400.;
      max_k = Some 10;
      algorithm = Cqp_core.Algorithm.C_boundaries;
      execute = true;
    }
  in
  let events_file = Filename.temp_file "cqp_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove events_file) @@ fun () ->
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  with_profiling @@ fun () ->
  P.Reqlog.set_file events_file;
  (* A spent deadline sends the solve down the degradation ladder, so
     every phase that has a span runs. *)
  ignore (S.Serve.handle ~deadline_ms:0. server req);
  P.Reqlog.close ();
  let event =
    match read_lines events_file with
    | [ line ] -> P.Reqlog.of_line line
    | lines -> Alcotest.failf "expected one event, got %d" (List.length lines)
  in
  let spans = Trace.spans () in
  List.iter
    (fun p ->
      let name = Phase.name p in
      let tagged = List.filter (fun sp -> sp.P.Span.phase = Some p) spans in
      checkb (name ^ " has a span") true (tagged <> []);
      let traced =
        List.fold_left (fun us sp -> us +. sp.P.Span.dur_us) 0. tagged
      in
      let logged =
        Option.value ~default:0. (List.assoc_opt name event.P.Reqlog.phases)
      in
      let observed =
        Option.value ~default:0.
          (Metrics.histogram_sum ("profile.phase." ^ name ^ "_us"))
      in
      checkb (name ^ ": event = histogram") true (logged = observed);
      checkb (name ^ ": event = trace") true (logged = traced))
    (List.filter (fun p -> p <> Phase.Queue_wait) Phase.all)

(* --- request event log ------------------------------------------------- *)

let sample_event =
  {
    P.Reqlog.id = 7;
    user = "u03";
    rung = "heuristic";
    outcome = "expired";
    latency_us = 1234.5625;
    phases = [ ("queue_wait", 10.25); ("solve", 1200.125) ];
    cache_hits = 3;
    cache_lookups = 4;
    gc_minor_words = 10240.;
    gc_major_words = 512.;
  }

let test_reqlog_roundtrip () =
  let line = P.Reqlog.to_line sample_event in
  checkb "single line" false (String.contains line '\n');
  checkb "line round-trips exactly" true (P.Reqlog.of_line line = sample_event)

let test_reqlog_sink () =
  let file = Filename.temp_file "cqp_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  P.Reqlog.set_file file;
  checkb "sink open" true (P.Reqlog.is_open ());
  P.Reqlog.log sample_event;
  P.Reqlog.log { sample_event with P.Reqlog.id = 8 };
  P.Reqlog.close ();
  checkb "sink closed" false (P.Reqlog.is_open ());
  checki "two lines counted" 2 (P.Reqlog.logged_count ());
  P.Reqlog.log sample_event (* dropped, not an error *);
  let events = List.map P.Reqlog.of_line (read_lines file) in
  checki "two lines on disk" 2 (List.length events);
  checkb "ids preserved in order" true
    (List.map (fun e -> e.P.Reqlog.id) events = [ 7; 8 ])

(* --- Prometheus exposition --------------------------------------------- *)

let test_prometheus_golden () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable (); Metrics.reset ())
  @@ fun () ->
  Metrics.add "serve.requests" 42;
  Metrics.gauge "pool.domains" 4.;
  Metrics.observe "lat.us" 0.5;
  (* bucket <1, le="1" *)
  Metrics.observe "lat.us" 3.;
  (* bucket le="4" *)
  let expected =
    "# TYPE lat_us histogram\n" ^ "lat_us_bucket{le=\"1\"} 1\n"
    ^ "lat_us_bucket{le=\"4\"} 2\n" ^ "lat_us_bucket{le=\"+Inf\"} 2\n"
    ^ "lat_us_sum 3.5\n" ^ "lat_us_count 2\n"
    ^ "# TYPE pool_domains gauge\n" ^ "pool_domains 4\n"
    ^ "# TYPE serve_requests counter\n" ^ "serve_requests 42\n"
  in
  Alcotest.(check string) "exposition text" expected (Metrics.to_prometheus ())

let test_histogram_quantile () =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable (); Metrics.reset ())
  @@ fun () ->
  for v = 1 to 100 do
    Metrics.observe "q.us" (float_of_int v)
  done;
  (match Metrics.histogram_quantile "q.us" 0.5 with
  | Some ub ->
      (* nearest-rank upper estimate within the factor-2 buckets: the
         50th value is 50, living in bucket (32, 64] *)
      checkb "median upper bound brackets the median" true
        (ub >= 50. && ub <= 128.)
  | None -> Alcotest.fail "median missing");
  (match Metrics.histogram_quantile "q.us" 1.0 with
  | Some ub -> checkb "max within a factor of 2" true (ub >= 100. && ub <= 256.)
  | None -> Alcotest.fail "max missing");
  checkb "empty histogram has no quantile" true
    (Metrics.histogram_quantile "absent" 0.5 = None)

(* --- BENCH files and the trajectory comparator ------------------------- *)

let workload_a : P.Bench_file.workload =
  {
    P.Bench_file.name = "serve_warm";
    requests = 48;
    p50_us = 1000.;
    p99_us = 8000.;
    p999_us = 9000.;
    states_visited = 15000;
    cache_hit_rate = 0.7;
    gc_minor_words = 6_000_000.;
    gc_major_words = 400_000.;
  }

let bench_a = { P.Bench_file.label = "base"; workloads = [ workload_a ] }

let diff ?tolerance ?ignore_timing current =
  P.Bench_file.diff ?tolerance ?ignore_timing ~base:bench_a
    ~current:{ P.Bench_file.label = "new"; workloads = current }
    ()

let test_bench_roundtrip () =
  let file = Filename.temp_file "cqp_bench" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  P.Bench_file.write ~file bench_a;
  checkb "file round-trips exactly" true (P.Bench_file.read file = bench_a)

let test_comparator_accepts () =
  (* identical -> clean *)
  checkb "identical accepted" false
    (P.Bench_file.has_regression (diff [ workload_a ]));
  (* within tolerance -> clean *)
  let a_bit_worse =
    { workload_a with P.Bench_file.states_visited = 17000; p99_us = 9000. }
  in
  checkb "within 20% accepted" false
    (P.Bench_file.has_regression (diff [ a_bit_worse ]));
  (* improvements -> clean *)
  let better =
    { workload_a with P.Bench_file.p50_us = 400.; cache_hit_rate = 0.9 }
  in
  checkb "improvement accepted" false
    (P.Bench_file.has_regression (diff [ better ]))

let test_comparator_rejects () =
  (* the acceptance scenario: a synthetic >20% regression must fail *)
  let slow = { workload_a with P.Bench_file.states_visited = 19000 } in
  let findings = diff [ slow ] in
  checkb "25% more states rejected" true (P.Bench_file.has_regression findings);
  let f =
    List.find (fun f -> f.P.Bench_file.regression) findings
  in
  Alcotest.(check string) "right metric flagged" "states_visited"
    f.P.Bench_file.metric;
  (* higher-is-better direction: a hit-rate collapse is a regression *)
  let cold = { workload_a with P.Bench_file.cache_hit_rate = 0.5 } in
  checkb "hit-rate drop rejected" true
    (P.Bench_file.has_regression (diff [ cold ]));
  (* a vanished workload is a regression, not silent coverage loss *)
  checkb "missing workload rejected" true
    (P.Bench_file.has_regression (diff []));
  checkb "timing regression rejected" true
    (P.Bench_file.has_regression
       (diff [ { workload_a with P.Bench_file.p99_us = 12000. } ]))

let test_comparator_timing_modes () =
  let slow_p99 = { workload_a with P.Bench_file.p99_us = 12000. } in
  checkb "--ignore-timing drops timing findings" false
    (P.Bench_file.has_regression (diff ~ignore_timing:true [ slow_p99 ]));
  checkb "--ignore-timing still sees count regressions" true
    (P.Bench_file.has_regression
       (diff ~ignore_timing:true
          [ { slow_p99 with P.Bench_file.states_visited = 19000 } ]));
  (* sub-epsilon timing jitter: 30us -> 45us is +50% but pure noise *)
  let tiny =
    { workload_a with P.Bench_file.p50_us = 30.; p99_us = 30.; p999_us = 30. }
  in
  let jitter =
    { workload_a with P.Bench_file.p50_us = 45.; p99_us = 45.; p999_us = 45. }
  in
  let findings =
    P.Bench_file.diff
      ~base:{ P.Bench_file.label = "b"; workloads = [ tiny ] }
      ~current:{ P.Bench_file.label = "c"; workloads = [ jitter ] }
      ()
  in
  checkb "sub-50us timing deltas never regress" false
    (P.Bench_file.has_regression findings)

(* --- profiling changes nothing observable ------------------------------ *)

let test_serve_profiling_differential () =
  let catalog = Testlib.small_imdb ~seed:11 () in
  let entries =
    S.Workload.generate ~users:3 ~requests:8 ~updates:1 ~rng:(Rng.create 5)
      catalog
  in
  let replay () =
    let server = S.Serve.create catalog in
    S.Workload.replay server entries
  in
  let plain = List.map Testlib.serve_observable (replay ()) in
  let events_file = Filename.temp_file "cqp_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove events_file) @@ fun () ->
  let profiled_responses =
    with_profiling (fun () ->
        P.Reqlog.set_file events_file;
        Fun.protect ~finally:P.Reqlog.close replay)
  in
  let profiled = List.map Testlib.serve_observable profiled_responses in
  checkb "profiling changes no observable response" true (plain = profiled);
  checki "one event line per served request"
    (List.length profiled_responses)
    (P.Reqlog.logged_count ());
  (* request ids are unique across the replay *)
  let ids =
    List.map (fun r -> r.S.Serve.request_id) profiled_responses
  in
  checki "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let () =
  Alcotest.run "profile"
    [
      ( "phases",
        [
          Alcotest.test_case "attribution and nesting" `Quick
            test_phase_attribution;
          Alcotest.test_case "exception safety" `Quick
            test_timed_exception_safe;
          Alcotest.test_case "finish publishes" `Quick test_finish_publishes;
          Alcotest.test_case "disabled is transparent" `Quick
            test_disabled_is_transparent;
          Alcotest.test_case "trace, histograms and events agree" `Quick
            test_one_timing_path;
        ] );
      ( "reqlog",
        [
          Alcotest.test_case "line roundtrip" `Quick test_reqlog_roundtrip;
          Alcotest.test_case "sink" `Quick test_reqlog_sink;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "golden exposition" `Quick test_prometheus_golden;
          Alcotest.test_case "histogram quantile" `Quick
            test_histogram_quantile;
        ] );
      ( "bench",
        [
          Alcotest.test_case "file roundtrip" `Quick test_bench_roundtrip;
          Alcotest.test_case "comparator accepts" `Quick
            test_comparator_accepts;
          Alcotest.test_case "comparator rejects" `Quick
            test_comparator_rejects;
          Alcotest.test_case "timing modes" `Quick
            test_comparator_timing_modes;
        ] );
      ( "serve",
        [
          Alcotest.test_case "profiling is invisible" `Quick
            test_serve_profiling_differential;
        ] );
    ]

(* Unit tests for the cqp_obs observability library: span nesting,
   Chrome trace-event export (checked by parsing the emitted JSON back),
   the metrics registry with its log-scale histogram geometry, the
   zero-cost-when-disabled guarantees, and the Instrument bridge.

   The sink is global, so every test starts from a reset registry and
   disables it again on the way out. *)

module Obs = Cqp_obs.Obs
module Trace = Cqp_obs.Trace
module Metrics = Cqp_obs.Metrics
module Span = Cqp_obs.Span
module Attr = Cqp_obs.Attr
module Jsonx = Cqp_obs.Jsonx
module C = Cqp_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_fresh f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* --- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  with_fresh @@ fun () ->
  let r =
    Trace.with_span ~name:"root" @@ fun () ->
    Trace.with_span ~name:"child_a" (fun () -> ());
    Trace.with_span ~name:"child_b" @@ fun () ->
    Trace.with_span ~name:"grandchild" (fun () -> ());
    17
  in
  checki "with_span returns the thunk's value" 17 r;
  match Trace.spans () with
  | [ root; a; b; g ] ->
      checks "pre-order" "root,child_a,child_b,grandchild"
        (String.concat ","
           (List.map (fun s -> s.Span.name) [ root; a; b; g ]));
      checkb "root is root" true (Span.is_root root);
      checki "a under root" root.Span.id a.Span.parent;
      checki "b under root" root.Span.id b.Span.parent;
      checki "grandchild under b" b.Span.id g.Span.parent;
      checki "grandchild depth" 2 g.Span.depth;
      List.iter
        (fun s -> checkb "closed" true (Span.closed s))
        [ root; a; b; g ];
      checkb "child contained in parent" true
        (a.Span.start_us >= root.Span.start_us
        && a.Span.start_us +. a.Span.dur_us
           <= root.Span.start_us +. root.Span.dur_us +. 1e-6)
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l)

let test_span_closed_on_raise () =
  with_fresh @@ fun () ->
  (try Trace.with_span ~name:"boom" (fun () -> failwith "x")
   with Failure _ -> ());
  (* The stack must also be unwound: a following span is a new root. *)
  Trace.with_span ~name:"after" (fun () -> ());
  match Trace.spans () with
  | [ boom; after ] ->
      checkb "closed despite raise" true (Span.closed boom);
      checkb "stack unwound" true (Span.is_root after)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_attrs () =
  with_fresh @@ fun () ->
  Trace.with_span ~name:"s"
    ~attrs:(fun () -> [ Attr.int "k" 3 ])
    (fun () -> Trace.add_attr (Attr.str "outcome" "ok"));
  match Trace.spans () with
  | [ s ] ->
      checkb "declared attr" true
        (List.exists (fun (k, v) -> k = "k" && v = Attr.Int 3) s.Span.attrs);
      checkb "late attr via add_attr" true
        (List.exists
           (fun (k, v) -> k = "outcome" && v = Attr.Str "ok")
           s.Span.attrs)
  | _ -> Alcotest.fail "expected one span"

(* Only the outermost span of a phase carries it, so summing tagged
   spans never double counts; the mark unwinds when the span closes. *)
let test_phase_tags () =
  with_fresh @@ fun () ->
  let module Phase = Cqp_obs.Phase in
  Trace.with_span ~name:"outer" ~phase:Phase.Solve (fun () ->
      Trace.with_span ~name:"inner" ~phase:Phase.Solve (fun () -> ());
      Trace.with_span ~name:"other" ~phase:Phase.Degrade (fun () -> ()));
  Trace.with_span ~name:"again" ~phase:Phase.Solve (fun () -> ());
  (match Trace.spans () with
  | [ outer; inner; other; again ] ->
      checkb "outermost tagged" true (outer.Span.phase = Some Phase.Solve);
      checkb "nested same phase untagged" true (inner.Span.phase = None);
      checkb "distinct phase tagged" true
        (other.Span.phase = Some Phase.Degrade);
      checkb "mark unwound" true (again.Span.phase = Some Phase.Solve)
  | l -> Alcotest.failf "expected 4 spans, got %d" (List.length l));
  let tagged =
    match Jsonx.member "traceEvents" (Trace.to_chrome_json ()) with
    | Some (Jsonx.Arr events) ->
        List.filter_map
          (fun e ->
            match Option.bind (Jsonx.member "args" e) (Jsonx.member "phase") with
            | Some (Jsonx.Str p) -> Some p
            | _ -> None)
          events
    | _ -> []
  in
  checkb "phase exported under args" true
    (tagged = [ "solve"; "degrade"; "solve" ])

let test_capacity_drops () =
  with_fresh @@ fun () ->
  Trace.set_capacity 2;
  Fun.protect ~finally:(fun () -> Trace.set_capacity 1_000_000) @@ fun () ->
  for _ = 1 to 5 do
    Trace.with_span ~name:"s" (fun () -> ())
  done;
  checki "buffer capped" 2 (Trace.span_count ());
  checki "overflow counted" 3 (Trace.dropped ())

(* --- Chrome export ----------------------------------------------------- *)

let num_member key j =
  match Jsonx.member key j with Some (Jsonx.Num n) -> Some n | _ -> None

let test_chrome_roundtrip () =
  with_fresh @@ fun () ->
  Trace.with_span ~name:"outer" (fun () ->
      Trace.with_span ~name:"inner"
        ~attrs:(fun () -> [ Attr.bool "ok" true; Attr.float "x" 0.5 ])
        (fun () -> ()));
  Trace.instant ~name:"mark" ();
  let json = Jsonx.of_string (Trace.to_chrome_string ()) in
  match Jsonx.member "traceEvents" json with
  | Some (Jsonx.Arr all_events) ->
      (* metadata ("M") events — process/thread names — lead the list;
         spans export as complete ("X") events after them *)
      let meta, events =
        List.partition
          (fun e -> Jsonx.member "ph" e = Some (Jsonx.Str "M"))
          all_events
      in
      checkb "has process_name metadata" true
        (List.exists
           (fun e -> Jsonx.member "name" e = Some (Jsonx.Str "process_name"))
           meta);
      checkb "has thread_name metadata" true
        (List.exists
           (fun e -> Jsonx.member "name" e = Some (Jsonx.Str "thread_name"))
           meta);
      checki "one event per span" (Trace.span_count ()) (List.length events);
      List.iter
        (fun e ->
          checkb "complete event" true
            (Jsonx.member "ph" e = Some (Jsonx.Str "X"));
          checkb "has ts" true (num_member "ts" e <> None);
          checkb "has tid" true (num_member "tid" e <> None);
          checkb "non-negative dur" true
            (match num_member "dur" e with Some d -> d >= 0. | None -> false))
        events;
      let names =
        List.filter_map
          (fun e ->
            match Jsonx.member "name" e with
            | Some (Jsonx.Str n) -> Some n
            | _ -> None)
          events
      in
      checkb "names survive" true
        (List.mem "outer" names && List.mem "inner" names
       && List.mem "mark" names);
      let inner =
        List.find (fun e -> Jsonx.member "name" e = Some (Jsonx.Str "inner"))
          events
      in
      (match Jsonx.member "args" inner with
      | Some args ->
          checkb "bool attr exported" true
            (Jsonx.member "ok" args = Some (Jsonx.Bool true));
          checkb "float attr exported" true
            (Jsonx.member "x" args = Some (Jsonx.Num 0.5))
      | None -> Alcotest.fail "args object missing")
  | _ -> Alcotest.fail "missing traceEvents array"

(* --- disabled sink ----------------------------------------------------- *)

let test_disabled_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  let forced = ref false in
  let r =
    Trace.with_span ~name:"ghost"
      ~attrs:(fun () ->
        forced := true;
        [])
      (fun () -> 41 + 1)
  in
  checki "thunk still runs" 42 r;
  checkb "attr thunk never forced" true (not !forced);
  Trace.instant ~name:"ghost2" ();
  Trace.add_attr (Attr.int "x" 1);
  Metrics.add "ghost.counter" 5;
  Metrics.gauge "ghost.gauge" 1.;
  Metrics.observe "ghost.hist" 3.;
  checki "no spans" 0 (Trace.span_count ());
  checki "no counter" 0 (Metrics.counter_value "ghost.counter");
  checkb "no gauge" true (Metrics.gauge_value "ghost.gauge" = None);
  checki "no histogram" 0 (Metrics.histogram_count "ghost.hist")

let test_disabled_allocates_nothing () =
  Obs.reset ();
  Obs.disable ();
  Cqp_obs.Request.disable ();
  let f = Sys.opaque_identity (fun () -> 0) in
  let loop span =
    let before = Gc.minor_words () in
    for _ = 1 to 1_000 do
      ignore (span f)
    done;
    Gc.minor_words () -. before
  in
  (* A recording with_span allocates a span record (~10 words) per
     call, i.e. >10k words over the loop; the disabled path must stay
     within measurement noise (Gc.minor_words itself boxes a float),
     with and without a phase tag. *)
  checkb "disabled path within noise" true
    (loop (fun f -> Trace.with_span ~name:"hot" f) < 1024.);
  checkb "disabled phase span within noise" true
    (loop (fun f -> Trace.with_span ~name:"hot" ~phase:Cqp_obs.Phase.Exec f)
    < 1024.)

(* --- metrics ----------------------------------------------------------- *)

let test_histogram_buckets () =
  checki "n_buckets" 64 Metrics.n_buckets;
  checki "below one" 0 (Metrics.bucket_index 0.5);
  checki "zero" 0 (Metrics.bucket_index 0.);
  checki "negative" 0 (Metrics.bucket_index (-3.));
  checki "one" 1 (Metrics.bucket_index 1.0);
  checki "just under two" 1 (Metrics.bucket_index 1.999);
  checki "two" 2 (Metrics.bucket_index 2.0);
  checki "1024" 11 (Metrics.bucket_index 1024.);
  checki "huge" 63 (Metrics.bucket_index 1e300);
  (* Every bucket's inclusive lower edge is the previous bucket's
     exclusive upper bound. *)
  for i = 1 to 62 do
    let lo = Metrics.bucket_upper_bound (i - 1) in
    checki (Printf.sprintf "lower edge of bucket %d" i) i
      (Metrics.bucket_index lo)
  done;
  checki "2^62 lands in the overflow bucket" 63
    (Metrics.bucket_index (Metrics.bucket_upper_bound 62));
  checkb "last bucket is unbounded" true
    (Metrics.bucket_upper_bound (Metrics.n_buckets - 1) = infinity)

let test_metrics_json () =
  with_fresh @@ fun () ->
  Metrics.add "a.counter" 3;
  Metrics.incr "a.counter";
  Metrics.gauge "a.gauge" 2.5;
  List.iter (Metrics.observe "a.hist") [ 0.5; 1.5; 3.; 1000. ];
  checki "counter read" 4 (Metrics.counter_value "a.counter");
  checki "hist count" 4 (Metrics.histogram_count "a.hist");
  checkb "gauge read" true (Metrics.gauge_value "a.gauge" = Some 2.5);
  let j = Jsonx.of_string (Metrics.to_json_string ()) in
  (match Jsonx.member "counters" j with
  | Some counters ->
      checkb "counter in json" true
        (Jsonx.member "a.counter" counters = Some (Jsonx.Num 4.))
  | None -> Alcotest.fail "counters object missing");
  (match Jsonx.member "gauges" j with
  | Some gauges ->
      checkb "gauge in json" true
        (Jsonx.member "a.gauge" gauges = Some (Jsonx.Num 2.5))
  | None -> Alcotest.fail "gauges object missing");
  match Jsonx.member "histograms" j with
  | Some hists -> (
      match Jsonx.member "a.hist" hists with
      | Some h -> (
          checkb "count field" true
            (Jsonx.member "count" h = Some (Jsonx.Num 4.));
          match Jsonx.member "buckets" h with
          | Some (Jsonx.Arr bs) ->
              (* 0.5, 1.5, 3. and 1000. land in four distinct buckets;
                 empty ones are omitted. *)
              checki "non-empty buckets only" 4 (List.length bs)
          | _ -> Alcotest.fail "buckets array missing")
      | None -> Alcotest.fail "a.hist missing")
  | None -> Alcotest.fail "histograms object missing"

(* --- Instrument bridge ------------------------------------------------- *)

let test_instrument_publish () =
  with_fresh @@ fun () ->
  let t = C.Instrument.create () in
  for _ = 1 to 7 do
    C.Instrument.visit t
  done;
  for _ = 1 to 5 do
    C.Instrument.eval t
  done;
  C.Instrument.hold t [ 0; 1 ];
  t.C.Instrument.wall_seconds <- 0.25;
  C.Instrument.publish t;
  checki "states bridged" 7 (Metrics.counter_value "solver.states_visited");
  checki "evals bridged" 5 (Metrics.counter_value "solver.param_evals");
  checki "peak histogram fed" 1 (Metrics.histogram_count "solver.peak_words");
  checki "wall histogram fed" 1 (Metrics.histogram_count "solver.wall_us");
  Obs.disable ();
  C.Instrument.publish t;
  checki "disabled publish is a no-op" 7
    (Metrics.counter_value "solver.states_visited")

let () =
  Testlib.seed_banner "obs";
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "closed on raise" `Quick
            test_span_closed_on_raise;
          Alcotest.test_case "attrs" `Quick test_span_attrs;
          Alcotest.test_case "phase tags" `Quick test_phase_tags;
          Alcotest.test_case "capacity" `Quick test_capacity_drops;
          Alcotest.test_case "chrome roundtrip" `Quick test_chrome_roundtrip;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "allocates nothing" `Quick
            test_disabled_allocates_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket geometry" `Quick test_histogram_buckets;
          Alcotest.test_case "json snapshot" `Quick test_metrics_json;
        ] );
      ( "bridge",
        [ Alcotest.test_case "instrument publish" `Quick test_instrument_publish ] );
    ]

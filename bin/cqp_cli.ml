(* cqp — command-line driver for the CQP library.

   Subcommands:
     run       personalize and execute a query against the synthetic
               IMDB database with a generated (or file-based) profile
     explain   show the preference space, the decision report, and the
               rewritten SQL without executing
     rank      personalize, then score every answer by the preferences
               it satisfies (Section 3's ranking by r)
     plan      show the physical execution plan of a SQL query
     pareto    print the doi/cost Pareto front of personalizations,
               plus the tri-objective (doi, cost, size) front summary
     sql       execute a plain SQL query against the synthetic database
     profile   print a generated profile
     serve     replay (or generate) a multi-user workload through the
               batch personalization server with cross-request caches
     curriculum evolve adversarial workloads against the serve path and
               freeze the worst survivors as a replayable corpus

   Profiles can be loaded from a file of lines "<doi> <condition>",
   e.g.:  0.8 director.name = 'W. Allen' *)

module C = Cqp_core
module W = Cqp_workload
module V = Cqp_relal.Value
open Cmdliner

let catalog_of ~movies ~seed =
  let config = { W.Imdb.default_config with W.Imdb.n_movies = movies } in
  W.Imdb.build ~config ~seed ()

let load_profile path =
  let ic = open_in path in
  let atoms = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         match String.index_opt line ' ' with
         | Some i ->
             let doi = float_of_string (String.sub line 0 i) in
             let cond =
               String.sub line (i + 1) (String.length line - i - 1)
             in
             atoms := Cqp_prefs.Profile.parse_atom cond doi :: !atoms
         | None -> failwith ("bad profile line: " ^ line)
       end
     done
   with End_of_file -> close_in ic);
  Cqp_prefs.Profile.of_list (List.rev !atoms)

let profile_of ~file ~seed catalog =
  match file with
  | Some path -> load_profile path
  | None ->
      let rng = Cqp_util.Rng.create (seed + 1) in
      W.Profile_gen.generate ~rng catalog

let problem_of ~problem ~cmax ~dmin ~smin ~smax =
  match problem with
  | 1 -> C.Problem.problem1 ~smin ~smax
  | 2 -> C.Problem.problem2 ~cmax
  | 3 -> C.Problem.problem3 ~cmax ~smin ~smax
  | 4 -> C.Problem.problem4 ~dmin
  | 5 -> C.Problem.problem5 ~dmin ~smin ~smax
  | 6 -> C.Problem.problem6 ~smin ~smax
  | n -> failwith (Printf.sprintf "unknown CQP problem %d (use 1-6)" n)

(* common options *)
let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
let movies =
  Arg.(value & opt int 2000 & info [ "movies" ] ~doc:"Synthetic movie count.")

let profile_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "profile" ] ~doc:"Profile file (lines: <doi> <condition>).")

let query_arg =
  Arg.(
    value
    & pos 0 string "select title from movie"
    & info [] ~docv:"SQL" ~doc:"The query to personalize.")

let problem_arg =
  Arg.(value & opt int 2 & info [ "problem" ] ~doc:"CQP problem number (1-6).")

let cmax_arg = Arg.(value & opt float 400. & info [ "cmax" ] ~doc:"Cost bound (ms).")
let dmin_arg = Arg.(value & opt float 0.7 & info [ "dmin" ] ~doc:"doi lower bound.")
let smin_arg = Arg.(value & opt float 1. & info [ "smin" ] ~doc:"Result-size lower bound.")
let smax_arg =
  Arg.(value & opt float 1000000. & info [ "smax" ] ~doc:"Result-size upper bound.")

let max_k_arg =
  Arg.(value & opt int 20 & info [ "k" ] ~doc:"Max preferences extracted (K).")

let algo_arg =
  Arg.(
    value
    & opt string "C_Boundaries"
    & info [ "algorithm" ]
        ~doc:"Search algorithm: C_Boundaries, C_MaxBounds, D_MaxDoi, D_SingleMaxDoi, D_HeurDoi, Exhaustive.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it to $(docv) as Chrome \
           trace_event JSON (open in chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record counters/gauges/histograms (solver.states_visited, \
           engine.block_reads, ...) and write a JSON snapshot to $(docv).")

(* One failure convention for every subcommand: a single stderr line
   and exit status 1. *)
let report_error = function
  | Failure msg | Invalid_argument msg | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Cqp_sql.Parser.Parse_error (msg, pos) ->
      Printf.eprintf "SQL parse error at %d: %s\n" pos msg;
      1
  | Cqp_sql.Analyzer.Semantic_error msg ->
      Printf.eprintf "SQL semantic error: %s\n" msg;
      1
  | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s: %s %s\n" fn (Unix.error_message e) arg;
      1
  | e -> raise e

let with_setup f verbose seed movies profile_file query problem cmax dmin
    smin smax max_k algo_name trace metrics =
  setup_logs verbose;
  try
    Cqp_obs.Obs.with_sinks ?trace ?metrics @@ fun () ->
    let catalog = catalog_of ~movies ~seed in
    let profile = profile_of ~file:profile_file ~seed catalog in
    let algorithm =
      match C.Algorithm.of_name algo_name with
      | Some a -> a
      | None -> failwith ("unknown algorithm " ^ algo_name)
    in
    let problem = problem_of ~problem ~cmax ~dmin ~smin ~smax in
    f catalog profile query problem algorithm max_k;
    0
  with e -> report_error e

(* The seven single-query subcommands share every option and differ
   only in their action. *)
let query_cmd name ~doc action =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (with_setup action)
      $ verbose $ seed $ movies $ profile_file $ query_arg $ problem_arg
      $ cmax_arg $ dmin_arg $ smin_arg $ smax_arg $ max_k_arg $ algo_arg
      $ trace_arg $ metrics_arg)

let run_action execute catalog profile query problem algorithm max_k =
  let outcome =
    C.Personalizer.run catalog profile ~sql:query ~problem ~algorithm
      ~max_k ~execute ()
  in
  let sol = outcome.C.Personalizer.solution in
  Format.printf "%s@." (C.Problem.describe problem);
  Format.printf "preference space: K = %d@."
    (C.Pref_space.k outcome.C.Personalizer.pref_space);
  Format.printf "personalization: %a@." C.Solution.pp sol;
  Format.printf "personalized SQL:@.  %s@."
    (Cqp_sql.Printer.to_string outcome.C.Personalizer.personalized);
  if execute then begin
    Format.printf "results: %d rows (%.1f ms simulated I/O)@."
      (List.length outcome.C.Personalizer.rows)
      outcome.C.Personalizer.real_cost_ms;
    List.iteri
      (fun i row ->
        if i < 25 then
          Format.printf "  %s@."
            (String.concat " | "
               (List.map V.to_string (Cqp_relal.Tuple.to_list row))))
      outcome.C.Personalizer.rows
  end

let run_cmd =
  query_cmd "run" ~doc:"Personalize a query and execute it." (run_action true)

let explain_action catalog profile query problem algorithm max_k =
  let q = Cqp_sql.Parser.parse query in
  let ps, sol, personalized =
    C.Personalizer.personalize_query ~algorithm ~max_k catalog profile
      ~query:q ~problem
  in
  Format.printf "%a@.@." C.Pref_space.pp ps;
  Format.printf "%a@.@." C.Report.pp (C.Report.build problem ps sol);
  Format.printf "rewritten SQL:@.  %s@." (Cqp_sql.Printer.to_string personalized)

let explain_cmd =
  query_cmd "explain"
    ~doc:"Show the preference space and rewriting without executing."
    explain_action

let sql_action catalog _profile query _problem _algorithm _max_k =
  let q = Cqp_sql.Parser.parse query in
  Cqp_sql.Analyzer.check catalog q;
  let rs = Cqp_exec.Engine.execute_rowset catalog q in
  Format.printf "%a@." Cqp_exec.Rowset.pp rs

let sql_cmd =
  query_cmd "sql"
    ~doc:"Execute a plain SQL query against the synthetic database."
    sql_action

let rank_action catalog profile query problem algorithm max_k =
  let outcome =
    C.Personalizer.run catalog profile ~sql:query ~problem ~algorithm ~max_k
      ~execute:false ()
  in
  let ranked = C.Personalizer.ranked_results catalog outcome in
  Format.printf "%s@." (C.Problem.describe problem);
  Format.printf "personalization: %a@." C.Solution.pp
    outcome.C.Personalizer.solution;
  Format.printf "ranked answers (%d rows, %d block reads):@."
    (List.length ranked.C.Ranker.ranked)
    ranked.C.Ranker.block_reads;
  List.iteri
    (fun i rr ->
      if i < 25 then
        Format.printf "  %.4f  [%s]  %s@." rr.C.Ranker.score
          (String.concat ","
             (List.map
                (fun j -> "p" ^ string_of_int (j + 1))
                rr.C.Ranker.satisfied))
          (String.concat " | "
             (List.map V.to_string (Cqp_relal.Tuple.to_list rr.C.Ranker.row))))
    ranked.C.Ranker.ranked

let rank_cmd =
  query_cmd "rank"
    ~doc:
      "Personalize, then rank every answer by the preferences it satisfies."
    rank_action

let plan_action catalog _profile query _problem _algorithm _max_k =
  let q = Cqp_sql.Parser.parse query in
  Cqp_sql.Analyzer.check catalog q;
  print_endline (Cqp_exec.Explain.to_string catalog q)

let plan_cmd =
  query_cmd "plan" ~doc:"Show the physical execution plan of a SQL query."
    plan_action

let pareto_action catalog profile query problem _algorithm max_k =
  let q = Cqp_sql.Parser.parse query in
  Cqp_sql.Analyzer.check catalog q;
  let est = C.Estimate.create catalog q in
  let ps = C.Pref_space.build ~max_k est profile in
  let space = C.Space.create ~order:C.Space.By_doi ps in
  let k = C.Pref_space.k ps in
  (* The serving layer's front, under the problem's size interval; the
     doi/cost front is the skyline of the tri-objective one. *)
  let tri, factor =
    C.Nsga2.build ~constraints:problem.C.Problem.constraints space
  in
  let front = C.Pareto.skyline tri in
  let algorithm =
    if factor = 1. then "exact"
    else Printf.sprintf "thinned, cost and size within x%.4g" factor
  in
  Format.printf "front algorithm: %s (K = %d)@." algorithm k;
  Format.printf "doi/cost Pareto front (%d points, K = %d):@."
    (List.length front) k;
  Format.printf "%a@." C.Pareto.pp front;
  (match C.Pareto.knee front with
  | Some knee -> Format.printf "knee: %a@." C.Params.pp knee.C.Pareto.params
  | None -> ());
  let worst =
    List.fold_left
      (fun (c, s) (p : C.Nsga2.point) ->
        (Float.max c p.params.C.Params.cost, Float.max s p.params.C.Params.size))
      (0., 0.) tri
  in
  let ref_point =
    { C.Params.doi = -0.01; cost = fst worst +. 1.; size = snd worst +. 1. }
  in
  Format.printf
    "tri-objective (doi, cost, size) front: %d points (%s), hypervolume \
     %.4g@."
    (List.length tri) algorithm
    (C.Nsga2.hypervolume ~ref_point tri)

let pareto_cmd =
  query_cmd "pareto"
    ~doc:"Print the doi/cost Pareto front of personalizations."
    pareto_action

let profile_action _catalog profile _query _problem _algorithm _max_k =
  Format.printf "%a@." Cqp_prefs.Profile.pp profile

let profile_cmd =
  query_cmd "profile" ~doc:"Print the (generated or loaded) user profile."
    profile_action

(* --- the server flags of serve and netserve ----------------------- *)

type server_flags = {
  no_cache : bool;
  capacity : int option;
  deadline_ms : float option;
  retries : int;
  shed_depth : int option;
  prometheus : string option;
}

let server_flags =
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable both caches.")
  in
  let capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ]
          ~doc:"Pref_space extraction LRU capacity (default 128).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline in milliseconds (a network query's own \
             deadline_ms field overrides it).  Searches become anytime \
             (best-so-far on expiry) and requests that cannot reach \
             feasibility in time degrade down the ladder: heuristic, \
             greedy, unpersonalized.")
  in
  let retries =
    Arg.(
      value
      & opt int Cqp_resilience.Config.default.Cqp_resilience.Config.max_retries
      & info [ "retries" ]
          ~doc:
            "Bounded-backoff retries for injected transient faults \
             before answering unpersonalized.")
  in
  let shed_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "shed-depth" ] ~docv:"N"
          ~doc:
            "Load shedding: a request at queue position >= $(docv) in \
             arrival order (in a replay, its index among the workload's \
             requests; over the network, the queries in flight when it \
             arrives) is shed with an explicit outcome instead of \
             served, at every $(b,--domains) width.")
  in
  let prometheus =
    Arg.(
      value
      & opt (some string) None
      & info [ "prometheus" ] ~docv:"FILE"
          ~doc:
            "Write the final metrics registry to $(docv) in Prometheus \
             text exposition format (0.0.4) on exit.  Implies metrics \
             recording.")
  in
  Term.(
    const (fun no_cache capacity deadline_ms retries shed_depth prometheus ->
        { no_cache; capacity; deadline_ms; retries; shed_depth; prometheus })
    $ no_cache $ capacity $ deadline_ms $ retries $ shed_depth $ prometheus)

let make_server f ?(portfolio = false) ?(pareto = false) ?fault ~lanes
    catalog =
  Cqp_serve.Serve.create ~caching:(not f.no_cache)
    ?pref_space_capacity:f.capacity ~lanes
    ~resilience:
      {
        Cqp_resilience.Config.default with
        deadline_ms = f.deadline_ms;
        portfolio;
        pareto;
        max_retries = f.retries;
        shed_queue_depth = f.shed_depth;
        fault;
      }
    catalog

(* --- serve: batch multi-user workload replay --------------------- *)

let serve_action verbose seed movies workload_file save_file users requests
    updates repeat domains flags execute inject spike_ms portfolio pareto
    profiling events_file trace metrics =
  setup_logs verbose;
  try
    Cqp_obs.Obs.with_sinks ?trace ?metrics ?prometheus:flags.prometheus
      ?events:events_file ~profile:profiling
    @@ fun () ->
    let catalog = catalog_of ~movies ~seed in
    let entries =
      match workload_file with
      | Some f -> Cqp_serve.Workload.load f
      | None ->
          Cqp_serve.Workload.generate ~users ~requests ~updates ~execute
            ~rng:(Cqp_util.Rng.create seed) catalog
    in
    (match save_file with
    | Some f ->
        Cqp_serve.Workload.save f entries;
        Format.eprintf "workload (%d entries) -> %s@." (List.length entries) f
    | None -> ());
    let fault =
      Option.map
        (fun fseed ->
          Cqp_resilience.Fault.plan
            ~spec:
              { Cqp_resilience.Fault.default_spec with io_spike_ms = spike_ms }
            ~rng:(Cqp_util.Rng.create fseed) ())
        inject
    in
    let server =
      make_server flags ~portfolio ~pareto ?fault ~lanes:domains catalog
    in
    Cqp_par.Pool.with_pool ~domains @@ fun pool ->
    for rep = 1 to repeat do
      let t0 = Cqp_obs.Clock.raw_us () in
      let responses = Cqp_serve.Workload.replay ~pool server entries in
      let elapsed = (Cqp_obs.Clock.raw_us () -. t0) /. 1e6 in
      let l = Cqp_serve.Serve.latency responses in
      let n = l.requests in
      Format.printf
        "pass %d/%d (%d domain%s): %d requests in %.1f ms (%.1f req/s)  \
         latency ms mean=%.2f±%.2f p50=%.2f p90=%.2f p99=%.2f@."
        rep repeat domains
        (if domains = 1 then "" else "s")
        n (elapsed *. 1000.)
        (if elapsed > 0. then float_of_int n /. elapsed else 0.)
        l.mean_ms l.sd_ms l.p50_ms l.p90_ms l.p99_ms;
      (* Outcome tally — only interesting (and only printed) when a
         resilience feature is on. *)
      let resilience = Cqp_serve.Serve.resilience server in
      if pareto || not (Cqp_resilience.Config.is_inert resilience) then begin
        let t = Cqp_serve.Serve.tally responses in
        Format.printf
          "  outcomes: served=%d shed=%d deadline_expired=%d retries=%d  \
           rungs:%s@."
          t.served t.shed t.expired t.total_retries
          (String.concat ""
             (List.map
                (fun (rung, n) ->
                  Printf.sprintf " %s=%d" (Cqp_resilience.Rung.name rung) n)
                t.rungs))
      end
    done;
    (* Cache summary over every lane's caches. *)
    let c = Cqp_serve.Serve.cache_totals server in
    if c.caches = 0 then Format.printf "caches disabled@."
    else begin
      Format.printf
        "pref_space cache: %d/%d hits (%d entries, %d bytes%s); estimate \
         memo: %d/%d hits@."
        c.extraction_hits c.extraction_lookups c.extraction_entries
        c.bytes_held
        (if c.caches = 1 then ""
         else Printf.sprintf " across %d caches" c.caches)
        c.memo_hits c.memo_lookups;
      if pareto then
        Format.printf "pareto front cache: %d/%d hits (%d entries, %d points)@."
          c.front_hits c.front_lookups c.front_entries c.front_points
    end;
    if Cqp_obs.Request.is_enabled () then begin
      (* Per-phase latency breakdown off the registry histograms.
         Quantiles read from log-scale buckets are upper bounds within
         a factor of 2 — fine for a console summary; the bench trend
         files carry exact percentiles. *)
      Format.printf "phase breakdown (requests with the phase):@.";
      List.iter
        (fun p ->
          let nm = "profile.phase." ^ Cqp_obs.Phase.name p ^ "_us" in
          let n = Cqp_obs.Metrics.histogram_count nm in
          if n > 0 then
            Format.printf "  %-12s %6d  p50<=%.0fus p99<=%.0fus total=%.1fms@."
              (Cqp_obs.Phase.name p)
              n
              (Option.value ~default:0.
                 (Cqp_obs.Metrics.histogram_quantile nm 0.50))
              (Option.value ~default:0.
                 (Cqp_obs.Metrics.histogram_quantile nm 0.99))
              (Option.value ~default:0. (Cqp_obs.Metrics.histogram_sum nm)
              /. 1000.))
        Cqp_obs.Phase.all;
      Format.printf
        "gc: request minor_words=%d major_words=%d compactions=%d@."
        (Cqp_obs.Metrics.counter_value "profile.gc.request.minor_words")
        (Cqp_obs.Metrics.counter_value "profile.gc.request.major_words")
        (Cqp_obs.Metrics.counter_value "profile.gc.request.compactions")
    end;
    0
  with e -> report_error e

let serve_cmd =
  let doc =
    "Replay a multi-user personalization workload through the batch server."
  in
  let workload_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "workload" ] ~docv:"FILE"
          ~doc:"Workload file to replay (default: generate one).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the (generated or loaded) workload to $(docv).")
  in
  let users_arg =
    Arg.(value & opt int 3 & info [ "users" ] ~doc:"Generated users.")
  in
  let requests_arg =
    Arg.(value & opt int 20 & info [ "requests" ] ~doc:"Generated requests.")
  in
  let updates_arg =
    Arg.(
      value
      & opt int 0
      & info [ "updates" ]
          ~doc:"Interleaved profile updates (exercise cache invalidation).")
  in
  let repeat_arg =
    Arg.(
      value
      & opt int 1
      & info [ "repeat" ]
          ~doc:"Replay passes; pass 2+ runs against warm caches.")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ]
          ~doc:
            "Serving lanes and replay domains: users are hashed onto this \
             many lanes, each with its own profiles and caches, and the \
             lanes replay in parallel on as many domains.  Responses are \
             bit-identical to $(b,--domains 1).")
  in
  let execute_arg =
    Arg.(
      value
      & flag
      & info [ "execute" ]
          ~doc:"Mark generated requests for engine execution.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "inject" ] ~docv:"SEED"
          ~doc:
            "Enable the deterministic fault-injection plan seeded by \
             $(docv): I/O latency spikes, forced cache misses, \
             eviction storms, and transient exceptions, decided per \
             request content (replayable at any domain count).")
  in
  let spike_ms_arg =
    Arg.(
      value
      & opt float
          Cqp_resilience.Fault.default_spec.Cqp_resilience.Fault.io_spike_ms
      & info [ "spike-ms" ] ~docv:"MS"
          ~doc:"Injected I/O spike duration (with $(b,--inject)).")
  in
  let portfolio_arg =
    Arg.(
      value
      & flag
      & info [ "portfolio" ]
          ~doc:"Serve the Full rung with the solver portfolio instead \
                of each request's single algorithm.")
  in
  let pareto_serve_arg =
    Arg.(
      value
      & flag
      & info [ "pareto" ]
          ~doc:
            "Pareto serving: compute and cache a tri-objective (doi, \
             cost, size) front per (query, profile), and under deadline \
             pressure answer with an operating point off the front that \
             fits the remaining budget (rung $(b,pareto)) instead of \
             dropping straight to the heuristic rungs.  Without \
             deadline pressure responses are unchanged; only the front \
             cache warms.")
  in
  let profile_flag_arg =
    Arg.(
      value
      & flag
      & info [ "profile" ]
          ~doc:
            "Per-request phase profiling: queue-wait / cache-lookup / \
             solve / degrade / exec / render timers and GC word deltas, \
             published as $(b,profile.phase.*) histograms and \
             $(b,profile.gc.*) counters, with a breakdown printed after \
             the replay.  Implies metrics recording.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Write one JSON line per served request (id, user, rung, \
             outcome, per-phase microseconds, cache hits, GC words) to \
             $(docv).  Implies $(b,--profile).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve_action
      $ verbose $ seed $ movies $ workload_arg $ save_arg $ users_arg
      $ requests_arg $ updates_arg $ repeat_arg $ domains_arg $ server_flags
      $ execute_arg $ inject_arg $ spike_ms_arg $ portfolio_arg
      $ pareto_serve_arg $ profile_flag_arg $ events_arg $ trace_arg
      $ metrics_arg)

(* --- curriculum: adversarial workload evolution ------------------ *)

module Curriculum = Cqp_curriculum.Curriculum
module Cur_fitness = Cqp_curriculum.Fitness
module Cur_scenario = Cqp_curriculum.Scenario

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

module Jsonx = Cqp_obs.Jsonx

let json_int n = Jsonx.Num (float_of_int n)

let fitness_json (f : Cur_fitness.t) =
  Jsonx.Obj
    [
      ("score", Jsonx.Num (Cur_fitness.score f));
      ("requests", json_int f.Cur_fitness.requests);
      ("served", json_int f.Cur_fitness.served);
      ("shed", json_int f.Cur_fitness.shed);
      ("blown", json_int f.Cur_fitness.blown);
      ("degraded", json_int f.Cur_fitness.degraded);
      ("retries", json_int f.Cur_fitness.retries);
      ("mean_work", Jsonx.Num f.Cur_fitness.mean_work);
      ("stddev_work", Jsonx.Num f.Cur_fitness.stddev_work);
      ("p99_work", Jsonx.Num f.Cur_fitness.p99_work);
      ("miss_ratio", Jsonx.Num f.Cur_fitness.miss_ratio);
      ("est_cost_p99", Jsonx.Num f.Cur_fitness.est_cost_p99);
    ]

let summary_json ~seed ~domains ~population spec (result : Curriculum.result) =
  let baseline = result.Curriculum.baseline.Curriculum.fitness in
  let elite (axis, (e : Curriculum.elite)) =
    let bv = Curriculum.axis_value baseline axis in
    let ev = Curriculum.axis_value e.Curriculum.fitness axis in
    Jsonx.Obj
      [
        ("axis", Jsonx.Str (Curriculum.axis_name axis));
        ("baseline", Jsonx.Num bv);
        ("elite", Jsonx.Num ev);
        ("beats_baseline", Jsonx.Bool (ev > bv));
        ("fitness", fitness_json e.Curriculum.fitness);
      ]
  in
  Jsonx.Obj
    [
      ("seed", json_int seed);
      ("generations", json_int result.Curriculum.generations);
      ("population", json_int population);
      ("evaluations", json_int result.Curriculum.evaluations);
      ("domains", json_int domains);
      ("catalog", Jsonx.Str (Cur_scenario.catalog_spec_to_string spec));
      ( "par_pool_errors",
        json_int (Cqp_obs.Metrics.counter_value "par.pool.errors") );
      ("baseline", fitness_json baseline);
      ("elites", Jsonx.Arr (List.map elite result.Curriculum.reservoir));
    ]

let curriculum_action verbose seed generations population mutation_rate
    domains movies catalog_seed export_dir summary_file metrics =
  setup_logs verbose;
  (* par.pool.errors must read back 0 in the summary, so the registry
     is always on for this subcommand. *)
  Cqp_obs.Metrics.enable ();
  try
    Cqp_obs.Obs.with_sinks ?metrics @@ fun () ->
    let spec =
      if movies = 0 then Cur_scenario.Small catalog_seed
      else Cur_scenario.Movies { movies; seed = catalog_seed }
    in
    let catalog = Cur_scenario.build_catalog spec in
    Cqp_par.Pool.with_pool ~domains @@ fun pool ->
    let result =
      Curriculum.evolve ~pool ~population ~mutation_rate
        ~log:(Format.printf "%s@.") ~generations ~seed catalog
    in
    Format.printf
      "evolved %d candidates over %d generations (catalog %s, %d domain%s)@."
      result.Curriculum.evaluations result.Curriculum.generations
      (Cur_scenario.catalog_spec_to_string spec)
      domains
      (if domains = 1 then "" else "s");
    Curriculum.pp_table Format.std_formatter result;
    (match export_dir with
    | Some dir ->
        mkdir_p dir;
        let paths = Curriculum.export ~dir spec result in
        List.iter
          (fun (_, path) -> Format.eprintf "scenario -> %s@." path)
          paths
    | None -> ());
    (match summary_file with
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc
              (Jsonx.to_string
                 (summary_json ~seed ~domains ~population spec result));
            output_char oc '\n');
        Format.eprintf "summary -> %s@." file
    | None -> ());
    0
  with e -> report_error e

let curriculum_cmd =
  let doc =
    "Evolve adversarial workloads against the serve path and freeze the \
     worst survivors as a replayable corpus."
  in
  let generations_arg =
    Arg.(value & opt int 6 & info [ "generations" ] ~doc:"GA generations.")
  in
  let population_arg =
    Arg.(value & opt int 12 & info [ "population" ] ~doc:"GA population size.")
  in
  let mutation_arg =
    Arg.(
      value
      & opt float 0.25
      & info [ "mutation-rate" ] ~doc:"Per-gene mutation probability.")
  in
  let domains_arg =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ]
          ~doc:
            "Evaluate candidates in parallel across this many domains \
             (one candidate per job, each replayed sequentially).  The \
             result is bit-identical to $(b,--domains 1).")
  in
  let cur_movies_arg =
    Arg.(
      value
      & opt int 0
      & info [ "movies" ]
          ~doc:
            "Catalog size; $(b,0) (the default) evolves against the \
             small test catalog, which is what the frozen corpus uses.")
  in
  let catalog_seed_arg =
    Arg.(
      value & opt int 3 & info [ "catalog-seed" ] ~doc:"Catalog build seed.")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:
            "Freeze the elite reservoir as $(docv)/<axis>.scenario files \
             (replayable via the test suite's corpus replay).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Write a JSON run summary (baseline vs per-axis elites, \
             pool error count) to $(docv).")
  in
  Cmd.v (Cmd.info "curriculum" ~doc)
    Term.(
      const curriculum_action
      $ verbose $ seed $ generations_arg $ population_arg $ mutation_arg
      $ domains_arg $ cur_movies_arg $ catalog_seed_arg $ export_arg
      $ summary_arg $ metrics_arg)

(* --- network front door: netserve / loadgen ---------------------- *)

module Net_server = Cqp_net.Server
module Net_client = Cqp_net.Client
module Net_loadgen = Cqp_net.Loadgen

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"TCP address (dotted quad).")

let unix_sock_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH"
        ~doc:"Serve/connect on a Unix socket instead of TCP.")

let sockaddr_of ~unix_path ~host ~port =
  match unix_path with
  | Some path -> Unix.ADDR_UNIX path
  | None ->
      let inet =
        try Unix.inet_addr_of_string host
        with _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith ("cannot resolve host " ^ host))
      in
      Unix.ADDR_INET (inet, port)

let netserve_action verbose seed movies lanes max_connections store_dir
    store_resident flags host port unix_path metrics =
  setup_logs verbose;
  try
    Cqp_obs.Obs.with_sinks ?metrics ?prometheus:flags.prometheus @@ fun () ->
    let serve = make_server flags ~lanes (catalog_of ~movies ~seed) in
    let addr =
      match unix_path with
      | Some path -> Net_server.Unix_path path
      | None -> Net_server.Tcp (host, port)
    in
    let srv =
      Net_server.create ~max_connections ?store_dir ?store_resident ~addr serve
    in
    Net_server.start srv;
    (* The bound address goes to stdout as a single parseable line:
       with --port 0 it is the only way to learn the ephemeral port. *)
    (match Net_server.bound_addr srv with
    | Unix.ADDR_INET (a, p) ->
        Printf.printf "listening on %s:%d\n%!" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX p -> Printf.printf "listening on unix:%s\n%!" p);
    Format.eprintf
      "%d lane%s, %d movies (seed %d)%s; stop with a Shutdown frame (cqp \
       loadgen --shutdown)@."
      lanes
      (if lanes = 1 then "" else "s")
      movies seed
      (match store_dir with
      | Some d -> Printf.sprintf ", store %s" d
      | None -> "");
    Net_server.wait srv;
    Net_server.stop srv;
    0
  with e -> report_error e

let netserve_cmd =
  let doc =
    "Serve personalization over the wire: a TCP (or Unix-socket) front \
     door speaking the length-prefixed cqp_net protocol, with an \
     optional on-disk profile store."
  in
  let domains_arg =
    Arg.(
      value
      & opt int 2
      & info [ "domains" ]
          ~doc:
            "Serving lanes, each with its own profiles and caches; users \
             are hashed onto lanes, and a lane runs one query at a time.")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int 32
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Live connection bound; excess connections get Busy.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Back profiles with the sharded on-disk store in $(docv) \
             (created or reopened; a directory prepopulated by \
             $(b,cqp loadgen --populate-store) works).")
  in
  let store_resident_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "store-resident" ] ~docv:"N"
          ~doc:
            "Decoded profiles kept resident with $(b,--store) \
             (default 4096); evicted users fault back from disk.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 7464
      & info [ "port" ] ~doc:"TCP port; 0 binds an ephemeral port.")
  in
  Cmd.v (Cmd.info "netserve" ~doc)
    Term.(
      const netserve_action
      $ verbose $ seed $ movies $ domains_arg $ max_conns_arg
      $ store_arg $ store_resident_arg $ server_flags $ host_arg $ port_arg
      $ unix_sock_arg $ metrics_arg)

let loadgen_action verbose seed movies users zipf rate requests connections
    load_seed deadline_ms execute no_populate populate_store_dir store_shards
    host port unix_path json_file shutdown =
  setup_logs verbose;
  try
    let catalog = catalog_of ~movies ~seed in
    match populate_store_dir with
    | Some dir ->
        (* Offline bulk load: no server involved. *)
        Net_loadgen.populate_store ?shards:store_shards ~dir ~users
          ~seed:load_seed catalog;
        Format.printf "populated %s with %d profiles@." dir users;
        0
    | None ->
        let config =
          {
            Net_loadgen.users;
            zipf_s = zipf;
            rate;
            requests;
            connections;
            seed = load_seed;
            deadline_ms;
            execute;
          }
        in
        let addr = sockaddr_of ~unix_path ~host ~port in
        if not no_populate then begin
          Net_loadgen.populate config addr;
          Format.eprintf "installed %d profiles over the wire@." users
        end;
        let report = Net_loadgen.run config ~catalog addr in
        Format.printf "%a@." Net_loadgen.pp_report report;
        (match json_file with
        | Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (Net_loadgen.report_to_json report);
                output_char oc '\n');
            Format.eprintf "report -> %s@." file
        | None -> ());
        if shutdown then begin
          let c = Net_client.connect addr in
          Fun.protect
            ~finally:(fun () -> Net_client.close c)
            (fun () -> Net_client.shutdown c)
        end;
        if report.Net_loadgen.protocol_errors > 0 then 1 else 0
  with e -> report_error e

let loadgen_cmd =
  let doc =
    "Open-loop load generator for $(b,cqp netserve): Zipf-skewed users, \
     Poisson arrivals, latency percentiles and shed/blown counts.  The \
     $(b,--movies)/$(b,--seed) catalog options must match the server's."
  in
  let users_arg =
    Arg.(
      value
      & opt int Net_loadgen.default.Net_loadgen.users
      & info [ "users" ] ~doc:"User population (names u0..).")
  in
  let zipf_arg =
    Arg.(
      value
      & opt float Net_loadgen.default.Net_loadgen.zipf_s
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf skew exponent over users; 0 is uniform.")
  in
  let rate_arg =
    Arg.(
      value
      & opt float Net_loadgen.default.Net_loadgen.rate
      & info [ "rate" ] ~docv:"RPS" ~doc:"Offered load, requests/second.")
  in
  let requests_arg =
    Arg.(
      value
      & opt int Net_loadgen.default.Net_loadgen.requests
      & info [ "requests" ] ~doc:"Total arrivals.")
  in
  let connections_arg =
    Arg.(
      value
      & opt int Net_loadgen.default.Net_loadgen.connections
      & info [ "connections" ] ~doc:"Worker domains, one socket each.")
  in
  let load_seed_arg =
    Arg.(
      value
      & opt int Net_loadgen.default.Net_loadgen.seed
      & info [ "load-seed" ]
          ~doc:
            "Load-generator seed: drives user installs (user u<i> gets \
             generator seed load-seed + i) and request content; \
             distinct from the catalog $(b,--seed).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Stamp every query with this deadline.")
  in
  let execute_arg =
    Arg.(
      value
      & flag
      & info [ "execute" ] ~doc:"Mark queries for engine execution.")
  in
  let no_populate_arg =
    Arg.(
      value
      & flag
      & info [ "no-populate" ]
          ~doc:
            "Skip the install phase (the server already holds the \
             population, e.g. from a prepopulated store).")
  in
  let populate_store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "populate-store" ] ~docv:"DIR"
          ~doc:
            "Do not connect anywhere: bulk-write the $(b,--users) \
             population into the store directory $(docv) and exit \
             (hand $(docv) to $(b,cqp netserve --store)).")
  in
  let store_shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "store-shards" ] ~docv:"N"
          ~doc:"Segment-shard count with $(b,--populate-store).")
  in
  let port_arg =
    Arg.(value & opt int 7464 & info [ "port" ] ~doc:"Server TCP port.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the report as one JSON object to $(docv).")
  in
  let shutdown_arg =
    Arg.(
      value
      & flag
      & info [ "shutdown" ]
          ~doc:"Send a Shutdown frame after the run (drains the server).")
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const loadgen_action
      $ verbose $ seed $ movies $ users_arg $ zipf_arg $ rate_arg
      $ requests_arg $ connections_arg $ load_seed_arg $ deadline_arg
      $ execute_arg $ no_populate_arg $ populate_store_arg $ store_shards_arg
      $ host_arg $ port_arg $ unix_sock_arg $ json_arg $ shutdown_arg)

let () =
  let doc = "Constrained Query Personalization (SIGMOD 2005) toolkit" in
  let info = Cmd.info "cqp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd; explain_cmd; rank_cmd; plan_cmd; pareto_cmd; sql_cmd;
            profile_cmd; serve_cmd; curriculum_cmd; netserve_cmd; loadgen_cmd;
          ]))

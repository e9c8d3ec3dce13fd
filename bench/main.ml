(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 7) plus the definitional tables.

   Usage:
     dune exec bench/main.exe                 # quick averaging set
     dune exec bench/main.exe -- --full       # the paper's 20x10 runs
     dune exec bench/main.exe -- --only fig12a,fig15

   Absolute times differ from the paper's 2005 Oracle testbed; the
   reproduction target is the *shape*: which algorithm wins, by what
   factor, and where the curves peak.  Machine-independent counters
   (states visited) are printed alongside wall-clock times. *)

module C = Cqp_core
module W = Cqp_workload
module V = Cqp_relal.Value

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type mode = {
  full : bool;
  seed : int;
  only : string list;  (** empty = all sections *)
  obs : string option;
      (** prefix for a trace + metrics dump of the whole run *)
}

let mode = ref { full = false; seed = 42; only = []; obs = None }

(* Seconds on the monotonic clock; only differences are meaningful. *)
let now_s () = Cqp_obs.Clock.raw_us () /. 1e6

let default_cmax = 400.
(* the paper's default cmax (ms) *)

let k_values () = if !mode.full then [ 10; 15; 20; 25; 30; 35; 40 ] else [ 10; 15; 20; 25 ]
let k_values_slow () = if !mode.full then [ 10; 15; 20; 25; 30 ] else [ 10; 15; 20 ]
let cmax_fracs () =
  if !mode.full then [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]
  else [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let runs_fast () = if !mode.full then 200 else 20
let runs_slow () = if !mode.full then 20 else 6

let experiment_config () =
  let base = if !mode.full then W.Experiment.default else W.Experiment.quick in
  { base with W.Experiment.seed = !mode.seed }

let slow_algorithms =
  [ C.Algorithm.D_maxdoi; C.Algorithm.D_singlemaxdoi; C.Algorithm.C_boundaries ]

let is_slow a = List.mem a slow_algorithms

let section_header id title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==================================================\n%!"

(* ---------------------------------------------------------------- *)
(* Shared measurement machinery                                      *)
(* ---------------------------------------------------------------- *)

type measurement = {
  time_ms : float;
  peak_kb : float;
  visited : int;
  doi : float;
}

let bundle =
  lazy
    (let cfg = experiment_config () in
     Printf.printf
       "building workload: %d movies, %d profiles x %d queries (seed %d)...\n%!"
       cfg.W.Experiment.imdb.W.Imdb.n_movies cfg.W.Experiment.n_profiles
       cfg.W.Experiment.n_queries cfg.W.Experiment.seed;
     W.Experiment.build cfg)

(* Per-(profile, query) runs, truncated to [max_runs]. *)
let runs_list max_runs =
  let b = Lazy.force bundle in
  let pairs =
    List.concat_map
      (fun p -> List.map (fun q -> (p, q)) b.W.Experiment.queries)
      b.W.Experiment.profiles
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take max_runs pairs

let catalog () = (Lazy.force bundle).W.Experiment.catalog

(* Preference spaces are the expensive shared input: cache per
   (profile, query, K, orders). *)
let ps_cache : (int * int * int * bool, C.Pref_space.t) Hashtbl.t =
  Hashtbl.create 64

let pref_space ?(orders = C.Pref_space.All_orders) profile query ~k =
  let key =
    ( Hashtbl.hash (Cqp_prefs.Profile.selections profile),
      Hashtbl.hash (Cqp_sql.Printer.to_string query),
      k,
      orders = C.Pref_space.All_orders )
  in
  match Hashtbl.find_opt ps_cache key with
  | Some ps -> ps
  | None ->
      let est = C.Estimate.create (catalog ()) query in
      let ps = C.Pref_space.build ~max_k:k ~orders est profile in
      Hashtbl.add ps_cache key ps;
      ps

let measure_algo algo profile query ~k ~cmax : measurement option =
  let ps = pref_space profile query ~k in
  if C.Pref_space.k ps = 0 then None
  else begin
    let sol = C.Algorithm.run algo ps ~cmax in
    let stats = sol.C.Solution.stats in
    Some
      {
        time_ms = 1000. *. stats.C.Instrument.wall_seconds;
        peak_kb = C.Instrument.peak_kbytes stats;
        visited = stats.C.Instrument.states_visited;
        doi = sol.C.Solution.params.C.Params.doi;
      }
  end

let average_measurements algo ~k ~cmax_of =
  let runs = runs_list (if is_slow algo then runs_slow () else runs_fast ()) in
  let acc_t = ref 0. and acc_m = ref 0. and acc_v = ref 0 in
  let acc_d = ref 0. and n = ref 0 in
  List.iter
    (fun (p, q) ->
      let cmax = cmax_of p q in
      match measure_algo algo p q ~k ~cmax with
      | Some m ->
          acc_t := !acc_t +. m.time_ms;
          acc_m := !acc_m +. m.peak_kb;
          acc_v := !acc_v + m.visited;
          acc_d := !acc_d +. m.doi;
          incr n
      | None -> ())
    runs;
  if !n = 0 then None
  else
    Some
      {
        time_ms = !acc_t /. float_of_int !n;
        peak_kb = !acc_m /. float_of_int !n;
        visited = !acc_v / !n;
        doi = !acc_d /. float_of_int !n;
      }

(* Campaign A: sweep K at the default cmax.  Campaign B: sweep cmax
   (fraction of Supreme Cost) at K = 20.  Results are cached so the
   time/memory/quality figures all reuse the same runs. *)
let campaign_a : (string * int, measurement option) Hashtbl.t = Hashtbl.create 64
let campaign_b : (string * int, measurement option) Hashtbl.t = Hashtbl.create 64

let run_campaign_a algo k =
  let key = (C.Algorithm.name algo, k) in
  match Hashtbl.find_opt campaign_a key with
  | Some m -> m
  | None ->
      let m = average_measurements algo ~k ~cmax_of:(fun _ _ -> default_cmax) in
      Hashtbl.add campaign_a key m;
      m

let run_campaign_b algo frac_pct =
  let key = (C.Algorithm.name algo, frac_pct) in
  match Hashtbl.find_opt campaign_b key with
  | Some m -> m
  | None ->
      let cmax_of p q =
        let ps = pref_space p q ~k:20 in
        float_of_int frac_pct /. 100. *. C.Pref_space.supreme_cost ps
      in
      let m = average_measurements algo ~k:20 ~cmax_of in
      Hashtbl.add campaign_b key m;
      m

let print_row label cells = Printf.printf "%-16s %s\n%!" label (String.concat " " cells)

let fmt_opt f = function Some m -> f m | None -> Printf.sprintf "%10s" "-"

(* A campaign as a table sweeps it: the values it runs at, their column
   labels, and the (algorithm, value) pairs it skips. *)
type sweep = {
  params : int list;
  label : int -> string;
  skip : C.Algorithm.t -> int -> bool;
  run : C.Algorithm.t -> int -> measurement option;
}

let sweep_a () =
  {
    params = k_values ();
    label = (fun k -> "K=" ^ string_of_int k);
    skip = (fun algo k -> is_slow algo && not (List.mem k (k_values_slow ())));
    run = run_campaign_a;
  }

let sweep_b () =
  {
    params = List.map (fun f -> int_of_float (100. *. f)) (cmax_fracs ());
    label = Printf.sprintf "%d%%";
    skip = (fun _ _ -> false);
    run = run_campaign_b;
  }

(* One algorithm-sweep table: a row per algorithm, [cell] of each
   measurement per swept value. *)
let sweep_table id title sweep cell =
  section_header id title;
  Printf.printf "%-16s %s\n" "algorithm"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%10s" (sweep.label p)) sweep.params));
  List.iter
    (fun algo ->
      print_row (C.Algorithm.name algo)
        (List.map
           (fun p ->
             if sweep.skip algo p then Printf.sprintf "%10s" "(skip)"
             else
               fmt_opt
                 (fun m -> Printf.sprintf "%10.2f" (cell m))
                 (sweep.run algo p))
           sweep.params))
    C.Algorithm.all

(* ---------------------------------------------------------------- *)
(* Definitional tables                                               *)
(* ---------------------------------------------------------------- *)

let table1 () =
  section_header "Table 1" "the CQP problem family, each solved on one instance";
  let b = Lazy.force bundle in
  let profile = List.hd b.W.Experiment.profiles in
  let query = Cqp_sql.Parser.parse "select title from movie" in
  let est = C.Estimate.create (catalog ()) query in
  let ps = C.Pref_space.build ~max_k:12 est profile in
  let base = C.Estimate.base_size est in
  let supreme = C.Pref_space.supreme_cost ps in
  let problems =
    [
      C.Problem.problem1 ~smin:(0.02 *. base) ~smax:base;
      C.Problem.problem2 ~cmax:(0.4 *. supreme);
      C.Problem.problem3 ~cmax:(0.4 *. supreme) ~smin:1. ~smax:(0.5 *. base);
      C.Problem.problem4 ~dmin:0.8;
      C.Problem.problem5 ~dmin:0.8 ~smin:1. ~smax:base;
      C.Problem.problem6 ~smin:1. ~smax:(0.8 *. base);
    ]
  in
  List.iter
    (fun problem ->
      Printf.printf "%-70s" (C.Problem.describe problem);
      match C.Solver.solve ps problem with
      | Some sol ->
          Printf.printf "-> |PU|=%d doi=%.4f cost=%.1f size=%.1f\n%!"
            (List.length sol.C.Solution.pref_ids)
            sol.C.Solution.params.C.Params.doi
            sol.C.Solution.params.C.Params.cost
            sol.C.Solution.params.C.Params.size
      | None -> Printf.printf "-> infeasible on this instance\n%!")
    problems

let table2 () =
  section_header "Table 2" "P = {p1,p2,p3} and its D, C, S vectors (Section 4.4)";
  (* The paper's example: doi (0.5, 0.8, 0.7), cost (10, 5, 12), size
     (3, 2, 10) -> D = {2,3,1}, C = {3,1,2}, S = {2,1,3}. *)
  let prefs = [| (0.5, 10., 3.); (0.8, 5., 2.); (0.7, 12., 10.) |] in
  Printf.printf "preference   doi   cost   size\n";
  Array.iteri
    (fun i (d, c, s) -> Printf.printf "p%d          %.1f   %4.0f   %4.0f\n" (i + 1) d c s)
    prefs;
  let by cmp =
    let idx = [ 0; 1; 2 ] in
    List.sort cmp idx |> List.map (fun i -> "p" ^ string_of_int (i + 1))
  in
  let d =
    by (fun i j ->
        let (di, _, _) = prefs.(i) and (dj, _, _) = prefs.(j) in
        compare dj di)
  in
  let c =
    by (fun i j ->
        let (_, ci, _) = prefs.(i) and (_, cj, _) = prefs.(j) in
        compare cj ci)
  in
  let s =
    by (fun i j ->
        let (_, _, si) = prefs.(i) and (_, _, sj) = prefs.(j) in
        compare si sj)
  in
  Printf.printf "D = {%s}   (paper: {2, 3, 1})\n" (String.concat ", " d);
  Printf.printf "C = {%s}   (paper: {3, 1, 2})\n" (String.concat ", " c);
  Printf.printf "S = {%s}   (paper: {2, 1, 3})\n%!" (String.concat ", " s)

let table3_fig4 () =
  section_header "Table 3 / Figure 4" "states and cost-space transitions for K = 4";
  let states = C.State.all_states ~k:4 in
  for g = 1 to 4 do
    let members = List.filter (fun s -> C.State.group_size s = g) states in
    Printf.printf "group %d (%d states): %s\n" g (List.length members)
      (String.concat " " (List.map C.State.to_string members))
  done;
  (* Figure 4's example transitions from c1c3. *)
  let c1c3 = [ 0; 2 ] in
  Printf.printf "Horizontal(c1c3) = %s   (paper: c1c3c4)\n"
    (match C.State.horizontal ~k:4 c1c3 with
    | Some s -> C.State.to_string s
    | None -> "-");
  Printf.printf "Vertical(c1c3)   = %s   (paper: {c1c4, c2c3})\n%!"
    (String.concat " " (List.map C.State.to_string (C.State.vertical ~k:4 c1c3)))

let table4_5 () =
  section_header "Table 4 / Table 5" "transition directions, verified empirically";
  let ps =
    (* a fixed synthetic space: 6 preferences *)
    let b = Lazy.force bundle in
    let profile = List.hd b.W.Experiment.profiles in
    pref_space profile (Cqp_sql.Parser.parse "select title from movie") ~k:6
  in
  let verify order label =
    let space = C.Space.create ~order ps in
    let k = C.Space.k space in
    let checks = ref 0 and violations = ref 0 in
    List.iter
      (fun st ->
        let value =
          match order with
          | C.Space.By_cost -> C.Space.cost space st
          | C.Space.By_doi -> C.Space.doi space st
          | C.Space.By_size -> C.Space.size space st
        in
        (match C.State.horizontal ~k st with
        | Some h ->
            incr checks;
            let hv =
              match order with
              | C.Space.By_cost -> C.Space.cost space h
              | C.Space.By_doi -> C.Space.doi space h
              | C.Space.By_size -> C.Space.size space h
            in
            let ok =
              match order with
              | C.Space.By_size -> hv <= value (* size shrinks *)
              | _ -> hv >= value
            in
            if not ok then incr violations
        | None -> ());
        List.iter
          (fun v ->
            incr checks;
            let vv =
              match order with
              | C.Space.By_cost -> C.Space.cost space v
              | C.Space.By_doi -> C.Space.doi space v
              | C.Space.By_size -> C.Space.size space v
            in
            let ok =
              match order with
              | C.Space.By_size -> vv >= value
              | _ -> vv <= value
            in
            if not ok then incr violations)
          (C.State.vertical ~k st))
      (C.State.all_states ~k);
    Printf.printf "%-34s %d transition checks, %d violations\n%!" label !checks !violations
  in
  verify C.Space.By_cost "cost space (Table 4): H up, V down";
  verify C.Space.By_doi "doi space (Table 5): H up, V down";
  verify C.Space.By_size "size space (Sec. 6): H down, V up"

let fig6_fig8 () =
  section_header "Figure 6 / Figure 8"
    "worked FINDBOUNDARY and C-MAXBOUNDS runs (costs 120/80/60/40/30, cmax=185)";
  (* Reconstruct the figures' space: per-item sub-query costs derived
     from the singles; all figure node costs follow by additivity. *)
  let catalog = Cqp_relal.Catalog.create () in
  Cqp_relal.Catalog.add catalog
    (Cqp_relal.Relation.of_tuples
       (Cqp_relal.Schema.make "t" [ ("a", V.Tint, 8) ])
       (List.init 50 (fun i -> Cqp_relal.Tuple.make [ V.Int i ])));
  let query = Cqp_sql.Parser.parse "select a from t" in
  let estimate = C.Estimate.create catalog query in
  let base_size = C.Estimate.base_size estimate in
  let costs = [| 120.; 80.; 60.; 40.; 30. |] in
  let dois = [| 0.9; 0.8; 0.7; 0.6; 0.5 |] in
  let ps =
    C.Pref_space.of_items estimate
      (List.init 5 (fun i ->
           {
             C.Pref_space.path =
               Cqp_prefs.Path.atomic (Cqp_prefs.Profile.selection "t" "a" (V.Int i) dois.(i));
             doi = dois.(i);
             cost = costs.(i);
             size = base_size *. 0.5;
           }))
  in
  let space = C.Space.create ~order:C.Space.By_cost ps in
  let bounds = C.C_boundaries.find_boundaries ~budget:Cqp_resilience.Budget.unlimited space ~cmax:185. in
  Printf.printf "FINDBOUNDARY output: %s\n"
    (String.concat " " (List.rev_map C.State.to_string bounds));
  Printf.printf
    "  (paper prints {1} {1,3} {2,3,4} {2,4,5} and then notes {2,4,5} was\n";
  Printf.printf
    "   wrongly classified, lying below {2,3,4}; our prune removes it)\n";
  let space2 = C.Space.create ~order:C.Space.By_cost ps in
  let mbounds = C.C_maxbounds.find_max_bounds ~budget:Cqp_resilience.Budget.unlimited space2 ~cmax:185. in
  Printf.printf "C-MAXBOUNDS output:  %s   (paper: {1,3} {2,3,4})\n%!"
    (String.concat " " (List.rev_map C.State.to_string mbounds))

(* ---------------------------------------------------------------- *)
(* Figure 12: execution times                                        *)
(* ---------------------------------------------------------------- *)

let fig12a () =
  sweep_table "Figure 12(a)"
    (Printf.sprintf "CQP optimization time (ms) vs K, cmax = %.0f ms" default_cmax)
    (sweep_a ()) (fun m -> m.time_ms);
  Printf.printf
    "(paper shape: D_MaxDoi and D_SingleMaxDoi slowest and growing fastest;\n";
  Printf.printf
    " C_Boundaries in between; C_MaxBounds and D_HeurDoi near-flat and fastest)\n%!"

let fig12b () =
  section_header "Figure 12(b)"
    "Preference Space time (ms) vs K: D-only vs full D/C/S ordering";
  let b = Lazy.force bundle in
  Printf.printf "%-16s %s\n" ""
    (String.concat " " (List.map (fun k -> Printf.sprintf "%10s" ("K=" ^ string_of_int k)) (k_values ())));
  let time_orders orders =
    List.map
      (fun k ->
        let t0 = now_s () in
        let n = ref 0 in
        List.iter
          (fun p ->
            List.iter
              (fun q ->
                let est = C.Estimate.create (catalog ()) q in
                ignore (C.Pref_space.build ~max_k:k ~orders est p);
                incr n)
              b.W.Experiment.queries)
          b.W.Experiment.profiles;
        let dt = now_s () -. t0 in
        Printf.sprintf "%10.3f" (1000. *. dt /. float_of_int !n))
      (k_values ())
  in
  print_row "D_PrefSelTime" (time_orders C.Pref_space.D_only);
  print_row "C_PrefSelTime" (time_orders C.Pref_space.All_orders);
  Printf.printf
    "(paper shape: both negligible vs the CQP algorithms of Fig 12(a))\n%!"

let fig12cd () =
  sweep_table "Figure 12(c,d)"
    "CQP optimization time (ms) vs cmax (% of Supreme Cost), K = 20"
    (sweep_b ()) (fun m -> m.time_ms);
  Printf.printf
    "(paper shape: times peak around cmax = 50%% of Supreme Cost;\n";
  Printf.printf " D_HeurDoi nearly unaffected by cmax)\n%!"

(* ---------------------------------------------------------------- *)
(* Figure 13: memory                                                 *)
(* ---------------------------------------------------------------- *)

let fig13ab () =
  sweep_table "Figure 13(a)"
    (Printf.sprintf "memory high-water mark (KB) vs K, cmax = %.0f ms" default_cmax)
    (sweep_a ()) (fun m -> m.peak_kb);
  sweep_table "Figure 13(b)"
    "memory high-water mark (KB) vs cmax (% Supreme Cost), K = 20"
    (sweep_b ()) (fun m -> m.peak_kb);
  Printf.printf
    "(paper shape: D_MaxDoi/D_SingleMaxDoi memory-hungry, C_Boundaries\n";
  Printf.printf
    " moderate, C_MaxBounds and D_HeurDoi tiny; absolute KB are small)\n%!"

(* ---------------------------------------------------------------- *)
(* Figure 14: quality                                                *)
(* ---------------------------------------------------------------- *)

let fig14ab () =
  section_header "Figure 14(a)"
    "Quality = doi_optimal - doi_found (x 1e7) vs K  [D_MaxDoi is the oracle]";
  let heuristics =
    [ C.Algorithm.D_heurdoi; C.Algorithm.C_maxbounds; C.Algorithm.D_singlemaxdoi ]
  in
  let quality_vs sweep =
    Printf.printf "%-16s %s\n" "algorithm"
      (String.concat " "
         (List.map (fun p -> Printf.sprintf "%12s" (sweep.label p)) sweep.params));
    List.iter
      (fun algo ->
        let cells =
          List.map
            (fun p ->
              let oracle = sweep.run C.Algorithm.D_maxdoi p in
              let found = sweep.run algo p in
              match oracle, found with
              | Some o, Some f ->
                  Printf.sprintf "%12.4f" (1e7 *. (o.doi -. f.doi))
              | _ -> Printf.sprintf "%12s" "-")
            sweep.params
        in
        print_row (C.Algorithm.name algo) cells)
      heuristics
  in
  quality_vs { (sweep_a ()) with params = k_values_slow () };
  section_header "Figure 14(b)"
    "Quality = doi_optimal - doi_found (x 1e7) vs cmax (% Supreme Cost), K = 20";
  quality_vs (sweep_b ());
  Printf.printf
    "(paper shape: differences are minuscule — order 1e-7 — because the\n";
  Printf.printf
    " noisy-or doi of conjunctions saturates as preferences accumulate)\n%!"

(* ---------------------------------------------------------------- *)
(* Figure 15: cost-model validation                                   *)
(* ---------------------------------------------------------------- *)

let fig15 () =
  section_header "Figure 15"
    "personalized-query cost: estimated vs real (engine-measured) vs K";
  let b = Lazy.force bundle in
  let profiles = b.W.Experiment.profiles in
  let queries = b.W.Experiment.queries in
  Printf.printf "%6s %14s %14s %10s\n" "K" "estimated(ms)" "real(ms)" "rel.err";
  List.iter
    (fun k ->
      let est_sum = ref 0. and real_sum = ref 0. and n = ref 0 in
      List.iteri
        (fun i p ->
          List.iteri
            (fun j q ->
              if i < 4 && j < 3 then begin
                let ps = pref_space p q ~k in
                if C.Pref_space.k ps > 0 then begin
                  let sol = C.Algorithm.run C.Algorithm.D_heurdoi ps ~cmax:infinity in
                  let space = C.Space.create ~order:C.Space.By_doi ps in
                  let paths = C.Solution.paths space sol in
                  let personalized = C.Rewrite.personalize (catalog ()) q paths in
                  let result = Cqp_exec.Engine.execute (catalog ()) personalized in
                  est_sum := !est_sum +. sol.C.Solution.params.C.Params.cost;
                  real_sum :=
                    !real_sum
                    +. (float_of_int result.Cqp_exec.Engine.block_reads
                       *. Cqp_exec.Io.default_block_ms);
                  incr n
                end
              end)
            queries)
        profiles;
      if !n > 0 then begin
        let est = !est_sum /. float_of_int !n and real = !real_sum /. float_of_int !n in
        Printf.printf "%6d %14.1f %14.1f %9.1f%%\n%!" k est real
          (100. *. abs_float (est -. real) /. max 1. real)
      end)
    (k_values ());
  Printf.printf
    "(paper shape: estimated and real curves nearly coincide.  In this\n";
  Printf.printf
    " reproduction they coincide exactly: the engine implements the same\n";
  Printf.printf
    " physical regime the estimator assumes — every relation instance of\n";
  Printf.printf
    " each sub-query scanned once, no indexes; the paper's residual gap\n";
  Printf.printf
    " comes from Oracle internals outside that model)\n%!"

(* ---------------------------------------------------------------- *)
(* Section 6: other CQP problems                                      *)
(* ---------------------------------------------------------------- *)

let sec6_problems () =
  section_header "Section 6" "the other CQP problems on the experiment workload";
  let b = Lazy.force bundle in
  let profile = List.nth b.W.Experiment.profiles 1 in
  let query = Cqp_sql.Parser.parse "select title from movie" in
  let ps = pref_space profile query ~k:12 in
  let est = ps.C.Pref_space.estimate in
  let base = C.Estimate.base_size est in
  let supreme = C.Pref_space.supreme_cost ps in
  let cases =
    [
      ("P1 smin=2%", C.Problem.problem1 ~smin:(0.02 *. base) ~smax:base);
      ("P2 cmax=40%", C.Problem.problem2 ~cmax:(0.4 *. supreme));
      ("P3 + size", C.Problem.problem3 ~cmax:(0.4 *. supreme) ~smin:1e-6 ~smax:(0.5 *. base));
      ("P4 dmin=.7", C.Problem.problem4 ~dmin:0.7);
      ("P5 + size", C.Problem.problem5 ~dmin:0.7 ~smin:1e-6 ~smax:base);
      ("P6 size", C.Problem.problem6 ~smin:1e-6 ~smax:(0.8 *. base));
    ]
  in
  List.iter
    (fun (label, problem) ->
      match C.Solver.solve ps problem with
      | Some sol ->
          Printf.printf "%-12s |PU|=%2d doi=%.4f cost=%8.1f size=%8.2f  [%s]\n%!"
            label
            (List.length sol.C.Solution.pref_ids)
            sol.C.Solution.params.C.Params.doi
            sol.C.Solution.params.C.Params.cost
            sol.C.Solution.params.C.Params.size
            (C.Problem.describe problem)
      | None -> Printf.printf "%-12s infeasible  [%s]\n%!" label (C.Problem.describe problem))
    cases

(* ---------------------------------------------------------------- *)
(* Ablation: generic metaheuristics                                   *)
(* ---------------------------------------------------------------- *)

let ablation_metaheuristics () =
  section_header "Ablation (Section 2)"
    "generic metaheuristics vs CQP-aware algorithms, K = 20, cmax = 30% Supreme";
  let runs = runs_list (runs_slow ()) in
  Printf.printf "%-22s %12s %14s\n" "method" "avg time(ms)" "avg doi gap(1e7)";
  let eval name solve =
    let t_sum = ref 0. and gap_sum = ref 0. and n = ref 0 in
    List.iter
      (fun (p, q) ->
        let ps = pref_space p q ~k:20 in
        if C.Pref_space.k ps > 0 then begin
          let cmax = 0.3 *. C.Pref_space.supreme_cost ps in
          let oracle =
            (C.Algorithm.run C.Algorithm.C_boundaries ps ~cmax).C.Solution.params
              .C.Params.doi
          in
          let t0 = now_s () in
          let doi = solve ps ~cmax in
          let dt = 1000. *. (now_s () -. t0) in
          t_sum := !t_sum +. dt;
          gap_sum := !gap_sum +. (oracle -. doi);
          incr n
        end)
      runs;
    if !n > 0 then
      Printf.printf "%-22s %12.2f %14.2f\n%!" name
        (!t_sum /. float_of_int !n)
        (1e7 *. !gap_sum /. float_of_int !n)
  in
  List.iter
    (fun algo ->
      eval (C.Algorithm.name algo) (fun ps ~cmax ->
          (C.Algorithm.run algo ps ~cmax).C.Solution.params.C.Params.doi))
    [ C.Algorithm.C_maxbounds; C.Algorithm.D_heurdoi ];
  let mh name solve =
    eval name (fun ps ~cmax ->
        let space = C.Space.create ~order:C.Space.By_doi ps in
        let rng = Cqp_util.Rng.create 7 in
        (solve ~rng space ~cmax).C.Solution.params.C.Params.doi)
  in
  List.iter
    (fun evals ->
      let budget = { C.Metaheuristics.evaluations = evals } in
      let tag name = Printf.sprintf "%s (%d evals)" name evals in
      mh (tag "simulated_annealing") (fun ~rng space ~cmax ->
          C.Metaheuristics.simulated_annealing ~budget ~rng space ~cmax);
      mh (tag "genetic") (fun ~rng space ~cmax ->
          C.Metaheuristics.genetic ~budget ~rng space ~cmax);
      mh (tag "tabu") (fun ~rng space ~cmax ->
          C.Metaheuristics.tabu ~budget ~rng space ~cmax))
    [ 100; 500; 2000 ];
  Printf.printf
    "(observed: with generous evaluation budgets the generic methods are\n";
  Printf.printf
    " competitive at this K — the search space is small and the penalty-\n";
  Printf.printf
    " guided objective is smooth; their gap grows as the budget shrinks.\n";
  Printf.printf
    " What they never provide is the exact algorithms' optimality proof,\n";
  Printf.printf
    " and D_HeurDoi reaches comparable quality with ~%d parameter\n"
    20;
  Printf.printf " evaluations instead of hundreds)\n%!"

(* ---------------------------------------------------------------- *)
(* "Similar results were obtained for the other CQP problems"        *)
(* ---------------------------------------------------------------- *)

let fig12_problem1 () =
  section_header "Section 7 (Problem 1)"
    "optimization time (ms) vs K on the size state space (floor at 40% of the supreme shrinkage)";
  (* The size floor becomes a cost bound on the transformed space
     (Section 6 / Pref_space.log_size), so the Section-5
     algorithms run unchanged; the paper reports the same relative
     behaviour as Figures 12-14 and omits the plots. *)
  Printf.printf "%-16s %s\n" "algorithm"
    (String.concat " "
       (List.map
          (fun k -> Printf.sprintf "%10s" ("K=" ^ string_of_int k))
          (k_values_slow ())));
  let runs = runs_list (runs_slow ()) in
  List.iter
    (fun algo ->
      let cells =
        List.map
          (fun k ->
            if is_slow algo && k > 15 then Printf.sprintf "%10s" "(skip)"
            else begin
            let t_sum = ref 0. and n = ref 0 in
            List.iter
              (fun (p, q) ->
                let ps = pref_space p q ~k in
                if C.Pref_space.k ps > 0 then begin
                  let ps' = C.Pref_space.log_size ps in
                  (* The resource budget plays cmax's role: 40% of the
                     total shrinkage all K preferences would apply —
                     the regime where Figure 12's searches peak. *)
                  let supreme_resource =
                    Array.fold_left
                      (fun acc it -> acc +. it.C.Pref_space.cost)
                      0. ps'.C.Pref_space.items
                  in
                  let cmax' = 0.4 *. supreme_resource in
                  let sol = C.Algorithm.run algo ps' ~cmax:cmax' in
                  t_sum :=
                    !t_sum
                    +. (1000.
                       *. sol.C.Solution.stats.C.Instrument.wall_seconds);
                  incr n
                end)
              runs;
            if !n = 0 then Printf.sprintf "%10s" "-"
            else Printf.sprintf "%10.2f" (!t_sum /. float_of_int !n)
            end)
          (k_values_slow ())
      in
      print_row (C.Algorithm.name algo) cells)
    C.Algorithm.all;
  Printf.printf
    "(same two performance classes as Figure 12(a): the state spaces and\n";
  Printf.printf
    " partial orders are identical, only the resource being bounded\n";
  Printf.printf " changed — the paper's Section 7 closing remark)\n%!"

(* ---------------------------------------------------------------- *)
(* Database-size scaling                                             *)
(* ---------------------------------------------------------------- *)

let scaling () =
  section_header "Scaling"
    "database size vs optimizer time: CQP search depends on K, not on data volume";
  Printf.printf "%10s %14s %14s %16s %16s\n" "movies" "base cost(ms)"
    "supreme(ms)" "C_MB time(ms)" "D_Heur time(ms)";
  List.iter
    (fun n_movies ->
      let config = { W.Imdb.default_config with W.Imdb.n_movies } in
      let catalog = W.Imdb.build ~config ~seed:!mode.seed () in
      let rng = Cqp_util.Rng.create (!mode.seed + n_movies) in
      let profile = W.Profile_gen.generate ~rng catalog in
      let query = Cqp_sql.Parser.parse "select title from movie" in
      let est = C.Estimate.create catalog query in
      let ps = C.Pref_space.build ~max_k:20 est profile in
      if C.Pref_space.k ps > 0 then begin
        let supreme = C.Pref_space.supreme_cost ps in
        let cmax = 0.3 *. supreme in
        let time algo =
          let sol = C.Algorithm.run algo ps ~cmax in
          1000. *. sol.C.Solution.stats.C.Instrument.wall_seconds
        in
        Printf.printf "%10d %14.1f %14.1f %16.3f %16.3f\n%!" n_movies
          (C.Estimate.base_cost est) supreme
          (time C.Algorithm.C_maxbounds)
          (time C.Algorithm.D_heurdoi)
      end)
    [ 1000; 5000; 20000; 50000 ];
  Printf.printf
    "(query costs grow linearly with the data; the CQP optimizer's own\n";
  Printf.printf
    " time depends only on K and the cmax fraction — the premise that\n";
  Printf.printf
    " lets personalization run per-request in front of a large database)\n%!"

(* ---------------------------------------------------------------- *)
(* Serve: multi-user batch driver, caches on vs off                   *)
(* ---------------------------------------------------------------- *)

(* The workload the serve section and the serve trend workloads
   replay. *)
let serve_workload ?execute () =
  Cqp_serve.Workload.generate ~users:6 ~requests:48 ~updates:2 ?execute
    ~rng:(Cqp_util.Rng.create !mode.seed) (catalog ())

let serve_bench () =
  section_header "Serve"
    "multi-user workload through cqp_serve: cross-request caches on vs off";
  let catalog = catalog () in
  let entries = serve_workload () in
  let passes = 3 in
  Printf.printf "%-10s %6s %12s %12s %14s %10s %10s %10s\n" "caches" "pass"
    "total(ms)" "req/s" "mean±sd(ms)" "p50(ms)" "p90(ms)" "p99(ms)";
  let run_config caching =
    let server = Cqp_serve.Serve.create ~caching catalog in
    let total = ref 0. in
    for pass = 1 to passes do
      let t0 = now_s () in
      let responses = Cqp_serve.Workload.replay server entries in
      let elapsed = (now_s () -. t0) *. 1000. in
      if pass > 1 then total := !total +. elapsed;
      let l = Cqp_serve.Serve.latency responses in
      Printf.printf
        "%-10s %6d %12.1f %12.1f %7.3f±%5.3f %10.3f %10.3f %10.3f\n%!"
        (if caching then "on" else "off")
        pass elapsed
        (if elapsed > 0. then 1000. *. float_of_int l.requests /. elapsed
         else 0.)
        l.mean_ms l.sd_ms l.p50_ms l.p90_ms l.p99_ms
    done;
    let c = Cqp_serve.Serve.cache_totals server in
    if c.caches > 0 then
      Printf.printf
        "           pref_space: %d/%d hits, %d entries, %d bytes; estimate \
         memo: %d/%d hits\n%!"
        c.extraction_hits c.extraction_lookups c.extraction_entries
        c.bytes_held c.memo_hits c.memo_lookups;
    !total
  in
  let warm_off = run_config false in
  let warm_on = run_config true in
  if warm_on > 0. then
    Printf.printf
      "warm-pass speedup with caches: %.2fx (%.1f ms -> %.1f ms over %d \
       passes)\n%!"
      (warm_off /. warm_on) warm_off warm_on (passes - 1);
  Printf.printf
    "(identical responses either way — test/test_serve_diff.ml holds the\n";
  Printf.printf " caches to bit-identical solutions, params, and SQL)\n%!";
  (* Domain scaling: the same workload on a server with one lane per
     pool domain, requests partitioned by user onto lanes with their
     own caches.  Responses are bit-identical at every width (checked
     below); wall clock depends on the hardware this runs on. *)
  Printf.printf "\ndomain scaling (caches on, warm passes):\n";
  Printf.printf "%-10s %6s %12s %12s %10s\n" "domains" "pass" "total(ms)"
    "req/s" "speedup";
  let observable (r : Cqp_serve.Serve.response) =
    let o = Cqp_serve.Serve.outcome_exn r in
    let sol = o.C.Personalizer.solution in
    ( sol.C.Solution.pref_ids,
      sol.C.Solution.params,
      Cqp_sql.Printer.to_string o.C.Personalizer.personalized,
      o.C.Personalizer.rows )
  in
  let run_domains domains =
    let server = Cqp_serve.Serve.create ~caching:true ~lanes:domains catalog in
    Cqp_par.Pool.with_pool ~domains @@ fun pool ->
    let warm = ref 0. in
    let last = ref [] in
    for pass = 1 to passes do
      let t0 = now_s () in
      let responses = Cqp_serve.Workload.replay ~pool server entries in
      let elapsed = (now_s () -. t0) *. 1000. in
      if pass > 1 then warm := !warm +. elapsed;
      last := List.map observable responses
    done;
    (!warm, !last)
  in
  let base_ms, base_obs = run_domains 1 in
  Printf.printf "%-10d %6s %12.1f %12.1f %10s\n%!" 1 "warm" base_ms
    (if base_ms > 0. then
       1000. *. float_of_int (List.length base_obs * (passes - 1)) /. base_ms
     else 0.)
    "1.00x";
  List.iter
    (fun domains ->
      let ms, obs = run_domains domains in
      Printf.printf "%-10d %6s %12.1f %12.1f %9.2fx %s\n%!" domains "warm" ms
        (if ms > 0. then
           1000. *. float_of_int (List.length obs * (passes - 1)) /. ms
         else 0.)
        (if ms > 0. then base_ms /. ms else 0.)
        (if obs = base_obs then "(bit-identical)" else "(MISMATCH)"))
    [ 2; 4 ];
  Printf.printf
    "(hardware note: speedup tracks physical cores; a single-core host\n";
  Printf.printf
    " shows <= 1x here while test/test_par_diff.ml still proves the\n";
  Printf.printf " domain counts equivalent)\n%!"

(* ---------------------------------------------------------------- *)
(* Adversarial curriculum: evolved workloads vs the seeded baseline   *)
(* ---------------------------------------------------------------- *)

module Cur = Cqp_curriculum.Curriculum
module Cur_scenario = Cqp_curriculum.Scenario

let curriculum_bench () =
  section_header "Curriculum"
    "GA-evolved adversarial workloads vs the seeded-generator baseline";
  let spec = Cur_scenario.Small 3 in
  let catalog = Cur_scenario.build_catalog spec in
  let t0 = now_s () in
  let result =
    Cur.evolve ~population:8 ~generations:3 ~seed:!mode.seed catalog
  in
  let elapsed = now_s () -. t0 in
  Printf.printf
    "evolved %d candidates over %d generations in %.1f s (catalog %s)\n"
    result.Cur.evaluations result.Cur.generations elapsed
    (Cur_scenario.catalog_spec_to_string spec);
  Cur.pp_table Format.std_formatter result;
  Printf.printf
    "(the committed corpus under test/corpus/ is frozen from a longer run\n";
  Printf.printf " of `cqp curriculum --export`; see EXPERIMENTS.md)\n%!"

(* ---------------------------------------------------------------- *)
(* The [12] evaluation setting: doi distributions and deviations      *)
(* ---------------------------------------------------------------- *)

let doi_distributions () =
  section_header "Setting of [12]"
    "sensitivity to the profile doi distribution (K = 15, cmax = 30% Supreme)";
  let cfg = experiment_config () in
  let catalog = (Lazy.force bundle).W.Experiment.catalog in
  let query = Cqp_sql.Parser.parse "select title from movie" in
  let distributions =
    [
      ("uniform wide [0.05,0.95]", W.Profile_gen.Uniform (0.05, 0.95));
      ("uniform high [0.6,0.95]", W.Profile_gen.Uniform (0.6, 0.95));
      ("uniform low  [0.05,0.4]", W.Profile_gen.Uniform (0.05, 0.4));
      ("normal 0.5 +/- 0.1", W.Profile_gen.Normal { mean = 0.5; stddev = 0.1 });
      ("normal 0.5 +/- 0.3", W.Profile_gen.Normal { mean = 0.5; stddev = 0.3 });
    ]
  in
  Printf.printf "%-24s %10s %12s %12s %14s\n" "doi distribution" "opt doi"
    "|PU| (opt)" "t C_MB (ms)" "t D_Heur (ms)";
  List.iter
    (fun (label, dist) ->
      let rng = Cqp_util.Rng.create (cfg.W.Experiment.seed * 13) in
      let pconfig =
        { W.Profile_gen.default_config with W.Profile_gen.doi_dist = dist }
      in
      let n = 6 in
      let doi_sum = ref 0. and pu_sum = ref 0 in
      let t_mb = ref 0. and t_hd = ref 0. in
      for _ = 1 to n do
        let profile = W.Profile_gen.generate ~config:pconfig ~rng catalog in
        let est = C.Estimate.create catalog query in
        let ps = C.Pref_space.build ~max_k:15 est profile in
        if C.Pref_space.k ps > 0 then begin
          let cmax = 0.3 *. C.Pref_space.supreme_cost ps in
          let opt = C.Algorithm.run C.Algorithm.C_boundaries ps ~cmax in
          doi_sum := !doi_sum +. opt.C.Solution.params.C.Params.doi;
          pu_sum := !pu_sum + List.length opt.C.Solution.pref_ids;
          let time algo =
            let sol = C.Algorithm.run algo ps ~cmax in
            1000. *. sol.C.Solution.stats.C.Instrument.wall_seconds
          in
          t_mb := !t_mb +. time C.Algorithm.C_maxbounds;
          t_hd := !t_hd +. time C.Algorithm.D_heurdoi
        end
      done;
      let f = float_of_int n in
      Printf.printf "%-24s %10.4f %12.1f %12.3f %14.3f\n%!" label
        (!doi_sum /. f)
        (float_of_int !pu_sum /. f)
        (!t_mb /. f) (!t_hd /. f))
    distributions;
  Printf.printf
    "(the paper adopts [12]'s setting with 'a broad range of doi values\n";
  Printf.printf
    " and doi-value deviations'; the algorithms' relative standing is\n";
  Printf.printf " insensitive to the distribution)\n%!"

(* ---------------------------------------------------------------- *)
(* Extensions: merged construction (footnote 1) and Pareto fronts    *)
(* ---------------------------------------------------------------- *)

let ablation_merged () =
  section_header "Ablation (footnote 1)"
    "UNION construction vs merged conjunctive sub-query, estimated & real cost";
  let b = Lazy.force bundle in
  let profile = List.hd b.W.Experiment.profiles in
  let query = Cqp_sql.Parser.parse "select title from movie" in
  Printf.printf "%4s %16s %16s %14s %12s\n" "L" "union est(ms)" "merged est(ms)"
    "union real" "merged real";
  List.iter
    (fun l ->
      let ps = pref_space profile query ~k:l in
      if C.Pref_space.k ps >= l then begin
        let est = ps.C.Pref_space.estimate in
        let space = C.Space.create ~order:C.Space.By_doi ps in
        let ids = List.init l Fun.id in
        let paths =
          List.map (fun id -> (C.Space.item space id).C.Pref_space.path) ids
        in
        let union_est =
          List.fold_left (fun acc p -> acc +. C.Estimate.item_cost est p) 0. paths
        in
        let merged_est = C.Estimate.merged_cost est paths in
        let union_q = C.Rewrite.personalize (catalog ()) query paths in
        let merged_q = C.Rewrite.personalize_merged (catalog ()) query paths in
        let real q =
          float_of_int (Cqp_exec.Engine.execute (catalog ()) q).Cqp_exec.Engine.block_reads
        in
        Printf.printf "%4d %16.1f %16.1f %14.1f %12.1f\n%!" l union_est
          merged_est (real union_q) (real merged_q)
      end)
    [ 2; 4; 8; 12 ];
  Printf.printf
    "(the merged form scans Q's relations once instead of L times; the\n";
  Printf.printf
    " paper leaves this combining 'beyond the scope' in footnote 1)\n%!"

(* The subset enumeration the front builder replaced: every subset,
   then the non-dominated filter. *)
let enumerated_front space =
  let all = ref [] in
  C.Exhaustive.iter_subsets space (fun ids _n params ->
      all := { C.Pareto.pref_ids = List.rev ids; params } :: !all);
  C.Nsga2.non_dominated !all

let pareto_front () =
  section_header "Extension (Section 8)"
    "multi-objective CQP: Pareto fronts, the builder against enumeration";
  let b = Lazy.force bundle in
  let profile = List.nth b.W.Experiment.profiles 2 in
  let query = Cqp_sql.Parser.parse "select title from movie" in
  let space_at k =
    C.Space.create ~order:C.Space.By_doi (pref_space profile query ~k)
  in
  let timed f =
    let t0 = now_s () in
    let r = f () in
    (r, 1000. *. (now_s () -. t0))
  in
  let front = C.Pareto.skyline (C.Nsga2.front (space_at 12)) in
  Printf.printf "doi/cost front at K = 12: %d points\n" (List.length front);
  Option.iter
    (fun (p : C.Pareto.point) ->
      Format.printf "knee: |PU| = %d, %a@." (List.length p.pref_ids)
        C.Params.pp p.params)
    (C.Pareto.knee front);
  Printf.printf "\n%4s %12s %10s %12s %12s\n" "K" "tri points" "front"
    "build(ms)" "enum(ms)";
  List.iter
    (fun k ->
      let space = space_at k in
      let (tri, factor), build_ms = timed (fun () -> C.Nsga2.build space) in
      let enum_ms =
        if k > 16 then "-"
        else
          let enumerated, ms = timed (fun () -> enumerated_front space) in
          let params = List.map (fun p -> p.C.Pareto.params) in
          if params enumerated <> params tri then
            failwith (Printf.sprintf "pareto_front: builder <> enumeration, K %d" k);
          Printf.sprintf "%.1f" ms
      in
      Printf.printf "%4d %12d %10s %12.1f %12s\n%!" (C.Space.k space)
        (List.length tri)
        (if factor = 1. then "exact" else Printf.sprintf "x%.4g" factor)
        build_ms enum_ms)
    [ 12; 16; 20; 24 ]

(* ---------------------------------------------------------------- *)
(* Perf trajectory: `trend` writes BENCH_<label>.json, `profile`      *)
(* diffs two of them                                                  *)
(* ---------------------------------------------------------------- *)

module BF = Cqp_obs.Bench_file

(* Each trend workload returns the raw per-request latencies (µs) and
   its cache hit rate; states visited and GC words are measured around
   it.  Exact percentiles come from the raw arrays — the registry's
   log-scale histograms are factor-2 resolution, far too coarse for a
   20% regression gate. *)
let trend_measure name f =
  Printf.printf "trend: running %s...\n%!" name;
  (* settle the heap so the workload's GC deltas do not inherit debt
     from whatever ran before it *)
  Gc.full_major ();
  let states0 = Cqp_obs.Metrics.counter_value "solver.states_visited" in
  let gc0 = Gc.quick_stat () in
  let latencies_us, cache_hit_rate = f () in
  let gc1 = Gc.quick_stat () in
  let states1 = Cqp_obs.Metrics.counter_value "solver.states_visited" in
  let lat = Array.of_list latencies_us in
  Array.sort compare lat;
  let pct q =
    if Array.length lat = 0 then 0. else Cqp_util.Stats.percentile lat q
  in
  {
    BF.name;
    requests = Array.length lat;
    p50_us = pct 0.50;
    p99_us = pct 0.99;
    p999_us = pct 0.999;
    states_visited = states1 - states0;
    cache_hit_rate;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
  }

(* Workload 1: the solver sweep — one exact, one bounds-based, one
   heuristic algorithm over two K values on the shared experiment
   runs.  Pure optimization, no caches: states_visited is its
   deterministic signature. *)
let trend_solver_sweep () =
  let lats = ref [] in
  List.iter
    (fun algo ->
      List.iter
        (fun k ->
          List.iter
            (fun (p, q) ->
              match measure_algo algo p q ~k ~cmax:default_cmax with
              | Some m -> lats := (1000. *. m.time_ms) :: !lats
              | None -> ())
            (runs_list 6))
        [ 10; 15 ])
    [ C.Algorithm.C_boundaries; C.Algorithm.C_maxbounds; C.Algorithm.D_heurdoi ];
  (!lats, 0.)

(* Workload 2: the wide-profile solver sweep — K = 100 is past
   State.max_mask_bits (61), so every visited set runs on the Bitset
   keys the int-mask fast path hands over to.  The space is fabricated
   deterministically (no estimator variance across machines) and every
   search runs budgetless, so states_visited is an exact signature.
   The cmax keeps groups small enough that the exact algorithms stay
   fast at this width. *)
let largek_k = 100
let largek_cmax = 30.

let largek_pref_space =
  lazy
    begin
      let catalog = Cqp_relal.Catalog.create () in
      Cqp_relal.Catalog.add catalog
        (Cqp_relal.Relation.of_tuples
           (Cqp_relal.Schema.make "t" [ ("a", V.Tint, 8) ])
           (List.init 100 (fun i -> Cqp_relal.Tuple.make [ V.Int i ])));
      let query = Cqp_sql.Parser.parse "select a from t" in
      let estimate = C.Estimate.create catalog query in
      let base_size = C.Estimate.base_size estimate in
      let rng = Cqp_util.Rng.create 0xB175 in
      let k = largek_k in
      let costs = Array.init k (fun _ -> 5. +. Cqp_util.Rng.float rng 100.) in
      let dois = Array.init k (fun _ -> 0.05 +. Cqp_util.Rng.float rng 0.9) in
      let fracs = Array.init k (fun _ -> 0.05 +. Cqp_util.Rng.float rng 0.9) in
      C.Pref_space.of_items estimate
        (List.init k (fun i ->
             {
               C.Pref_space.path =
                 Cqp_prefs.Path.atomic
                   (Cqp_prefs.Profile.selection "t" "a" (V.Int i) dois.(i));
               doi = dois.(i);
               cost = costs.(i);
               size = base_size *. fracs.(i);
             }))
    end

(* The K = 100 sweep: per-search latencies in µs (spaces here are
   hand-built, so publish the counters that [Algorithm.run] would
   have). *)
let trend_solver_largek () =
  let ps = Lazy.force largek_pref_space in
  let lats = ref [] in
  let run ?(publish = true) order solve =
    let space = C.Space.create ~order ps in
    let t0 = now_s () in
    solve space;
    lats := ((now_s () -. t0) *. 1e6) :: !lats;
    (* the BnB publishes its own counters; hand-run algorithms do not *)
    if publish then C.Instrument.publish (C.Space.stats space)
  in
  let cmax = largek_cmax in
  for _ = 1 to 3 do
    run C.Space.By_cost (fun sp -> ignore (C.C_boundaries.solve sp ~cmax));
    run C.Space.By_cost (fun sp -> ignore (C.C_maxbounds.solve sp ~cmax));
    run C.Space.By_doi (fun sp -> ignore (C.D_maxdoi.solve sp ~cmax));
    run C.Space.By_doi (fun sp -> ignore (C.D_singlemaxdoi.solve sp ~cmax));
    run C.Space.By_doi (fun sp -> ignore (C.D_heurdoi.solve sp ~cmax));
    run ~publish:false C.Space.By_doi (fun sp ->
        ignore (C.Solver.max_doi_bnb sp (C.Params.with_cmax cmax)))
  done;
  (!lats, 0.)

(* Workloads 3 to 5 and 7: serve replay.  A cold pass warms the caches, then
   the measured warm pass replays the same entries and reports its
   latencies (µs) and the hit rate, over the pass, of the (hits,
   lookups) that [pick] reads off the server's cache totals.  The
   parallel variant replays on a 4-lane server over a 4-domain pool,
   one cache per lane.  The pareto variant arms the
   tri-objective front cache ([Config.pareto]) and reports the
   {e front} cache hit rate, so a regression in front-key stability or
   builder determinism (a fresh front per request) shows up as a
   hit-rate collapse long before it shows up as latency.  The exec
   variant marks every request for execution, so the warm pass runs
   the engine on each personalized query. *)
let trend_serve ?(domains = 1) ?resilience ?execute
    (pick : Cqp_serve.Serve.cache_totals -> int * int) () =
  let entries = serve_workload ?execute () in
  let server =
    Cqp_serve.Serve.create ~caching:true ?resilience ~lanes:domains (catalog ())
  in
  Cqp_par.Pool.with_pool ~domains @@ fun pool ->
  ignore (Cqp_serve.Workload.replay ~pool server entries);
  let hits0, lookups0 = pick (Cqp_serve.Serve.cache_totals server) in
  let responses = Cqp_serve.Workload.replay ~pool server entries in
  let hits1, lookups1 = pick (Cqp_serve.Serve.cache_totals server) in
  ( List.map (fun r -> r.Cqp_serve.Serve.latency_ms *. 1000.) responses,
    if lookups1 > lookups0 then
      float_of_int (hits1 - hits0) /. float_of_int (lookups1 - lookups0)
    else 0. )

(* Workload 6: replay the frozen adversarial corpus (skipped when
   test/corpus is absent — e.g. when trend runs outside the repo
   root).  Frozen scenarios hit the serve path's ugly corners — shed,
   pre-expired deadlines, fault plans, cache-hostile fingerprints — so
   their latency/GC trajectory complements the healthy-path serve
   workloads above. *)
let corpus_dir = "test/corpus"

let trend_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scenario")
    |> List.sort compare
  in
  let lats = ref [] in
  List.iter
    (fun f ->
      let s = Cur_scenario.load (Filename.concat corpus_dir f) in
      List.iter
        (fun (r : Cqp_serve.Serve.response) ->
          lats := (r.Cqp_serve.Serve.latency_ms *. 1000.) :: !lats)
        (Cur_scenario.replay s))
    files;
  (!lats, 0.)

let run_trend ~label ~out =
  Cqp_obs.Metrics.enable ();
  Cqp_obs.Request.enable ();
  (* bound in sequence: a list literal would evaluate right-to-left *)
  let solver = trend_measure "solver_sweep" trend_solver_sweep in
  let largek = trend_measure "solver_largek" trend_solver_largek in
  let extraction c = (c.Cqp_serve.Serve.extraction_hits, c.extraction_lookups)
  and front c = (c.Cqp_serve.Serve.front_hits, c.front_lookups) in
  let warm = trend_measure "serve_warm" (trend_serve extraction) in
  let par = trend_measure "par_replay" (trend_serve ~domains:4 extraction) in
  let pareto =
    trend_measure "pareto_front"
      (trend_serve front
         ~resilience:
           { Cqp_resilience.Config.default with Cqp_resilience.Config.pareto = true })
  in
  let corpus =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      [ trend_measure "corpus_replay" trend_corpus ]
    else begin
      Printf.printf "trend: %s absent, skipping corpus_replay\n%!" corpus_dir;
      []
    end
  in
  let exec =
    trend_measure "exec_warm" (trend_serve ~execute:true extraction)
  in
  let workloads = [ solver; largek; warm; par; pareto ] @ corpus @ [ exec ] in
  let t = { BF.label; workloads } in
  let file =
    match out with Some f -> f | None -> "BENCH_" ^ label ^ ".json"
  in
  BF.write ~file t;
  Printf.printf "\n%-14s %6s %10s %10s %10s %10s %8s %12s %12s\n" "workload"
    "reqs" "p50(us)" "p99(us)" "p999(us)" "states" "hit%" "gc minor" "gc major";
  List.iter
    (fun (w : BF.workload) ->
      Printf.printf "%-14s %6d %10.1f %10.1f %10.1f %10d %7.1f%% %12.0f %12.0f\n"
        w.BF.name w.BF.requests w.BF.p50_us w.BF.p99_us w.BF.p999_us
        w.BF.states_visited
        (100. *. w.BF.cache_hit_rate)
        w.BF.gc_minor_words w.BF.gc_major_words)
    workloads;
  Printf.printf "\nbench trajectory -> %s\n%!" file;
  0

let run_profile_diff ~base ~current ~tolerance ~ignore_timing =
  let base_t = BF.read base in
  let current_t = BF.read current in
  let findings =
    BF.diff ~tolerance ~ignore_timing ~base:base_t ~current:current_t ()
  in
  Printf.printf "comparing %s (%s) -> %s (%s), tolerance %.0f%%%s\n\n" base
    base_t.BF.label current current_t.BF.label (100. *. tolerance)
    (if ignore_timing then ", timing ignored" else "");
  List.iter
    (fun f -> Format.printf "%a@." BF.pp_finding f)
    findings;
  let regressions = List.filter (fun f -> f.BF.regression) findings in
  if regressions = [] then begin
    Printf.printf "\nno regressions beyond tolerance.\n%!";
    0
  end
  else begin
    Printf.printf "\n%d regression(s) beyond tolerance.\n%!"
      (List.length regressions);
    1
  end

(* ---------------------------------------------------------------- *)
(* Main                                                               *)
(* ---------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3_fig4", table3_fig4);
    ("table4_5", table4_5);
    ("fig6_fig8", fig6_fig8);
    ("fig12a", fig12a);
    ("fig12b", fig12b);
    ("fig12cd", fig12cd);
    ("fig13ab", fig13ab);
    ("fig14ab", fig14ab);
    ("fig15", fig15);
    ("sec6_problems", sec6_problems);
    ("fig12_problem1", fig12_problem1);
    ("ablation_metaheuristics", ablation_metaheuristics);
    ("ablation_merged", ablation_merged);
    ("pareto_front", pareto_front);
    ("doi_distributions", doi_distributions);
    ("scaling", scaling);
    ("serve", serve_bench);
    ("curriculum", curriculum_bench);
  ]

let () =
  let only = ref "" in
  let label = ref "dev" in
  let out = ref "" in
  let tolerance = ref 0.20 in
  let ignore_timing = ref false in
  let anon = ref [] in
  let speclist =
    [
      ("--full", Arg.Unit (fun () -> mode := { !mode with full = true }),
       " run the paper's full averaging set (20 profiles x 10 queries, K to 40)");
      ("--seed", Arg.Int (fun s -> mode := { !mode with seed = s }), " workload seed");
      ("--only", Arg.Set_string only,
       " comma-separated section ids (e.g. fig12a,fig15)");
      ("--obs", Arg.String (fun p -> mode := { !mode with obs = Some p }),
       "PREFIX enable observability; write PREFIX.trace.json (Chrome \
        trace_event) and PREFIX.metrics.json next to the results");
      ("--label", Arg.Set_string label,
       "LABEL trajectory label for `trend` (git sha, date; default dev)");
      ("--out", Arg.Set_string out,
       "FILE output file for `trend` (default BENCH_<label>.json)");
      ("--tolerance", Arg.Set_float tolerance,
       "FRAC regression tolerance for `profile` (default 0.20)");
      ("--ignore-timing", Arg.Set ignore_timing,
       " `profile` skips latency percentiles (cross-machine CI mode)");
    ]
  in
  let usage =
    "CQP experiment harness\n\
     \  main.exe [options]                 run the paper's tables/figures\n\
     \  main.exe trend [--label L]         write the BENCH_<label>.json \
     perf-trajectory point\n\
     \  main.exe profile BASE NEW          diff two BENCH files; exit 1 on \
     regression"
  in
  Arg.parse speclist (fun a -> anon := a :: !anon) usage;
  match List.rev !anon with
  | [ "trend" ] ->
      exit
        (run_trend ~label:!label ~out:(if !out = "" then None else Some !out))
  | [ "profile"; base; current ] ->
      exit
        (run_profile_diff ~base ~current ~tolerance:!tolerance
           ~ignore_timing:!ignore_timing)
  | "trend" :: _ | "profile" :: _ ->
      prerr_endline usage;
      exit 2
  | _ :: _ ->
      prerr_endline usage;
      exit 2
  | [] ->
      if !only <> "" then
        mode := { !mode with only = String.split_on_char ',' !only };
      (match
         List.filter (fun id -> not (List.mem_assoc id sections)) !mode.only
       with
      | [] -> ()
      | unknown ->
          Printf.eprintf "unknown section %s; sections: %s\n"
            (String.concat ", " unknown)
            (String.concat ", " (List.map fst sections));
          exit 2);
      let selected =
        match !mode.only with
        | [] -> sections
        | ids -> List.filter (fun (id, _) -> List.mem id ids) sections
      in
      Printf.printf "CQP experiment harness — %s mode\n%!"
        (if !mode.full then "FULL (paper-scale averaging)" else "quick");
      let file ext = Option.map (fun prefix -> prefix ^ ext) !mode.obs in
      Cqp_obs.Obs.with_sinks ?trace:(file ".trace.json")
        ?metrics:(file ".metrics.json") (fun () ->
          List.iter
            (fun (id, f) ->
              Cqp_obs.Trace.with_span ~name:("bench." ^ id) (fun () -> f ()))
            selected);
      Printf.printf "\ndone.\n%!"

(* Shared helpers for the CQP test suites. *)

module V = Cqp_relal.Value
module C = Cqp_core

(* --- deterministic qcheck driver ---------------------------------- *)

(* Every suite seeds its qcheck generators from one fixed value
   (overridable through QCHECK_SEED) and announces it up front, so a
   CI failure reproduces locally without seed archaeology.  Suites
   without qcheck properties still print the banner: it doubles as a
   statement that nothing in the suite draws from an unseeded
   generator. *)
let qcheck_seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None -> 20050614)

let seed_banner suite =
  Printf.printf "[%s] deterministic qcheck seed: %d (override: QCHECK_SEED)\n%!"
    suite (Lazy.force qcheck_seed)

let qc test =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Lazy.force qcheck_seed |])
    test

(* A one-relation catalog and trivial query, used to anchor fabricated
   preference spaces. *)
let tiny_catalog () =
  let c = Cqp_relal.Catalog.create () in
  Cqp_relal.Catalog.add c
    (Cqp_relal.Relation.of_tuples
       (Cqp_relal.Schema.make "t" [ ("a", V.Tint, 8) ])
       (List.init 100 (fun i -> Cqp_relal.Tuple.make [ V.Int i ])));
  c

(* Build a Pref_space with prescribed per-item parameters through
   [Pref_space.of_items], which orders them by decreasing doi and
   derives the D, C and S vectors.  Paths are dummy selections on t.a,
   distinct per item. *)
let fabricate ?(catalog = tiny_catalog ()) ~costs ~dois ~fracs () =
  let k = Array.length costs in
  assert (Array.length dois = k && Array.length fracs = k);
  let query = Cqp_sql.Parser.parse "select a from t" in
  let estimate = C.Estimate.create catalog query in
  let base_size = C.Estimate.base_size estimate in
  C.Pref_space.of_items estimate
    (List.init k (fun i ->
         let sel = Cqp_prefs.Profile.selection "t" "a" (V.Int i) dois.(i) in
         {
           C.Pref_space.path = Cqp_prefs.Path.atomic sel;
           doi = dois.(i);
           cost = costs.(i);
           size = base_size *. fracs.(i);
         }))

(* The Figure 6/8 cost configuration: five preferences whose sub-query
   costs are 120, 80, 60, 40, 30 (C order = identity because the dois
   are chosen decreasing too); every figure-node cost follows by
   additivity (Formula 6). *)
let figure6_space () =
  fabricate
    ~costs:[| 120.; 80.; 60.; 40.; 30. |]
    ~dois:[| 0.9; 0.8; 0.7; 0.6; 0.5 |]
    ~fracs:[| 0.5; 0.5; 0.5; 0.5; 0.5 |]
    ()

(* Random space generator for qcheck-style equivalence tests. *)
let random_draws rng ~k =
  let module Rng = Cqp_util.Rng in
  let costs = Array.init k (fun _ -> 5. +. Rng.float rng 100.) in
  let dois = Array.init k (fun _ -> 0.05 +. Rng.float rng 0.9) in
  let fracs = Array.init k (fun _ -> 0.05 +. Rng.float rng 0.9) in
  (costs, dois, fracs)

let random_space rng ~k =
  let costs, dois, fracs = random_draws rng ~k in
  fabricate ~costs ~dois ~fracs ()

(* [random_space]'s draws with every third item (ids 0, 3, 6, ...) at
   doi 1 and, with [zero_fracs], every third from id 1 keeping no rows:
   removing such an item is not invertible from a set's doi or size,
   and sets holding one tie at doi 1. *)
let saturated_space ?(zero_fracs = false) rng ~k =
  let costs, dois, fracs = random_draws rng ~k in
  for i = 0 to k - 1 do
    if i mod 3 = 0 then dois.(i) <- 1.;
    if zero_fracs && i mod 3 = 1 then fracs.(i) <- 0.
  done;
  fabricate ~costs ~dois ~fracs ()

let sorted_ids (sol : C.Solution.t) = List.sort compare sol.C.Solution.pref_ids

(* 1-based state notation for readable assertions: [c1c3] = "{1,3}". *)
let states_to_strings states =
  List.sort compare (List.map C.State.to_string states)

(* --- shared random catalogs ---------------------------------------- *)

(* The r/t/u catalog the engine-level differential suites generate
   their select-project-join queries over: small enough that a naive
   reference evaluator stays fast, with nulls and skew to exercise the
   planner's edge cases. *)
let rtu_catalog () =
  let module Rng = Cqp_util.Rng in
  let module Tuple = Cqp_relal.Tuple in
  let c = Cqp_relal.Catalog.create () in
  let rng = Rng.create 1234 in
  let add name cols mk n =
    Cqp_relal.Catalog.add c
      (Cqp_relal.Relation.of_tuples ~block_size:256
         (Cqp_relal.Schema.make name cols)
         (List.init n (mk rng)))
  in
  add "r"
    [ ("a", V.Tint, 8); ("b", V.Tint, 8); ("s", V.Tstring, 8) ]
    (fun rng _ ->
      Tuple.make
        [
          V.Int (Rng.int rng 8);
          (if Rng.int rng 10 = 0 then V.Null else V.Int (Rng.int rng 5));
          V.String (String.make 1 (Char.chr (97 + Rng.int rng 4)));
        ])
    25;
  add "t"
    [ ("a", V.Tint, 8); ("c", V.Tint, 8) ]
    (fun rng _ ->
      Tuple.make
        [
          V.Int (Rng.int rng 8);
          (if Rng.int rng 10 = 0 then V.Null else V.Int (Rng.int rng 6));
        ])
    20;
  add "u"
    [ ("c", V.Tint, 8); ("s", V.Tstring, 8) ]
    (fun rng _ ->
      Tuple.make
        [
          V.Int (Rng.int rng 6);
          V.String (String.make 1 (Char.chr (97 + Rng.int rng 4)));
        ])
    15;
  c

(* --- temporary directories ------------------------------------------ *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let temp_dirs = ref 0

(* [f dir], with [dir] a fresh path under the temp directory named
   [prefix-<pid>-<n>] (left for [f] to create), removed with all it
   holds when [f] returns or raises. *)
let with_temp_dir prefix f =
  incr temp_dirs;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !temp_dirs)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () -> f dir)

(* A small IMDB-shaped catalog for the serve-layer suites; [seed]
   varies the data, the shape stays [small_config]. *)
let small_imdb ~seed () =
  Cqp_workload.Imdb.build ~config:Cqp_workload.Imdb.small_config ~seed ()

(* Everything observable about a serve response, compared with
   structural equality — floats included, so any drift between two
   replays (cached vs. uncached, parallel vs. sequential) is caught
   bit for bit.  Latency is deliberately absent; the resilience
   verdict (rung, retries, deadline label, shed position) is included
   so the differential suites also pin the default-config path to
   "Served at Full, no retries, no expiry". *)
let serve_observable (r : Cqp_serve.Serve.response) =
  match r.Cqp_serve.Serve.verdict with
  | Cqp_serve.Serve.Shed { queue_position; limit } ->
      `Shed (queue_position, limit)
  | Cqp_serve.Serve.Served s ->
      let o = s.Cqp_serve.Serve.outcome in
      let sol = o.C.Personalizer.solution in
      `Served
        ( sol.C.Solution.pref_ids,
          sol.C.Solution.params,
          Cqp_sql.Printer.to_string o.C.Personalizer.personalized,
          o.C.Personalizer.rows,
          Cqp_resilience.Rung.name s.Cqp_serve.Serve.rung,
          s.Cqp_serve.Serve.retries,
          s.Cqp_serve.Serve.deadline_expired,
          s.Cqp_serve.Serve.front_point )

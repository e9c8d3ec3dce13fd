(* The adversarial-curriculum suite: genome codec laws, GA-operator
   closure, seed-stability goldens, frozen-corpus replay with exact
   outcome reconciliation, domain-count differentials, and evolve
   determinism. *)

module Rng = Cqp_util.Rng
module Genome = Cqp_curriculum.Genome
module Scenario = Cqp_curriculum.Scenario
module Curriculum = Cqp_curriculum.Curriculum
module Workload = Cqp_serve.Workload

let catalog = lazy (Testlib.small_imdb ~seed:3 ())

let genome_of_seed seed = Genome.random (Rng.create seed)

let arb_genome =
  QCheck.set_print Genome.to_string
    (QCheck.map genome_of_seed (QCheck.int_bound 999_999))

(* --- codec laws ---------------------------------------------------- *)

let string_roundtrip =
  QCheck.Test.make ~name:"of_string (to_string g) = g" ~count:200 arb_genome
    (fun g -> Genome.of_string (Genome.to_string g) = g)

let genes_roundtrip =
  QCheck.Test.make ~name:"of_genes (genes g) = g" ~count:200 arb_genome
    (fun g ->
      let v = Genome.genes g in
      Array.length v = Genome.n_genes && Genome.of_genes v = g)

(* Closure of the GA operators: any child bred from valid parents by
   the curriculum's crossover + mutation is itself valid, and lands on
   the codec's canonical form (so a further genes/of_genes pass is the
   identity — the property that makes evolved genomes exportable). *)
let ga_closure =
  QCheck.Test.make ~name:"crossover + mutation closed over validity"
    ~count:200
    QCheck.(triple (int_bound 999_999) (int_bound 999_999) (int_bound 999_999))
    (fun (sa, sb, sop) ->
      let module Ga = Cqp_core.Metaheuristics.Ga in
      let rng = Rng.create sop in
      let genes =
        Ga.one_point ~rng
          (Genome.genes (genome_of_seed sa))
          (Genome.genes (genome_of_seed sb))
      in
      Ga.point_mutate ~rng ~rate:0.5 Genome.mutate_gene genes;
      let child = Genome.of_genes genes in
      Genome.is_valid child
      && Genome.of_genes (Genome.genes child) = child
      && Genome.of_string (Genome.to_string child) = child)

(* Decoded children are real workloads: entry lines survive the
   workload file codec and the request count matches the genome. *)
let decode_closure =
  QCheck.Test.make ~name:"bred genomes decode into replayable entries"
    ~count:20
    QCheck.(pair (int_bound 999_999) (int_bound 999_999))
    (fun (sa, sb) ->
      let rng = Rng.create (sa lxor sb) in
      let genes =
        Cqp_core.Metaheuristics.Ga.one_point ~rng
          (Genome.genes (genome_of_seed sa))
          (Genome.genes (genome_of_seed sb))
      in
      let child = Genome.of_genes genes in
      let entries = Genome.decode child (Lazy.force catalog) in
      let requests =
        List.length
          (List.filter
             (function Workload.Request _ -> true | _ -> false)
             entries)
      in
      requests = child.Genome.requests
      && List.for_all
           (fun e -> Workload.entry_of_line (Workload.entry_to_line e) = e)
           entries)

(* --- seed-stability goldens ---------------------------------------- *)

let lines_digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Same seed, byte-identical workload — twice in-process, and against
   a committed digest so cross-version drift in the generator (or in
   the Rng split discipline it relies on) cannot land silently. *)
let generate_golden () =
  let gen () =
    List.map Workload.entry_to_line
      (Workload.generate ~users:3 ~requests:12 ~updates:2
         ~rng:(Rng.create 20050614) (Lazy.force catalog))
  in
  let a = gen () and b = gen () in
  Alcotest.(check (list string)) "same seed, same workload" a b;
  Alcotest.(check string) "committed digest"
    "343c107fe47bb522dea5d7ac67d2e8b4" (lines_digest a)

let decode_golden () =
  let dec () =
    List.map Workload.entry_to_line
      (Genome.decode (genome_of_seed 20050614) (Lazy.force catalog))
  in
  let a = dec () and b = dec () in
  Alcotest.(check (list string)) "same genome, same entries" a b;
  Alcotest.(check string) "committed digest"
    "1f5ffe3819b8e73e9ae30e46c3a6605b" (lines_digest a)

(* --- frozen corpus ------------------------------------------------- *)

(* Under `dune runtest` the cwd is the test directory (the dune deps
   copy the corpus next to the binary); under a bare `dune exec` from
   the repo root, fall back to the source tree. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scenario")
  |> List.sort compare
  |> List.map (fun f -> Scenario.load (Filename.concat corpus_dir f))

let corpus_present () =
  let n = List.length (corpus ()) in
  if n < 5 then
    Alcotest.failf "expected >= 5 frozen scenarios under test/%s, found %d"
      corpus_dir n

(* Exact reconciliation: the genome still decodes to the frozen
   entries, and a fresh sequential replay reproduces the frozen label
   tallies and response digest bit for bit. *)
let corpus_replays () =
  List.iter
    (fun s ->
      match Scenario.check s with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    (corpus ())

(* The corpus earns its keep: at least one frozen scenario is strictly
   worse for the server than the seeded-generator baseline on the axis
   it was elected for (shed, blown deadlines, misses, ...). *)
let corpus_is_adversarial () =
  let baseline_expect =
    let g = Genome.baseline ~seed:42 in
    let server = Genome.server g (Lazy.force catalog) in
    Scenario.expect_of_responses
      (Workload.replay server (Genome.decode g (Lazy.force catalog)))
  in
  let worse (s : Scenario.t) =
    s.Scenario.expect.Scenario.shed > baseline_expect.Scenario.shed
    || s.Scenario.expect.Scenario.blown > baseline_expect.Scenario.blown
    || s.Scenario.expect.Scenario.retries > baseline_expect.Scenario.retries
  in
  if not (List.exists worse (corpus ())) then
    Alcotest.fail
      "no frozen scenario sheds, blows deadlines, or retries more than the \
       seeded baseline"

(* --- domain-count differential ------------------------------------- *)

(* Every frozen scenario replays bit-identically at domains 1, 2, and
   4 — responses, rungs, and shed positions — and the pool captures no
   job exceptions doing it. *)
let corpus_domains_diff () =
  Cqp_obs.Metrics.enable ();
  let scenarios = corpus () in
  let sequential =
    List.map (fun s -> List.map Testlib.serve_observable (Scenario.replay s))
      scenarios
  in
  List.iter
    (fun domains ->
      let pool = Cqp_par.Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Cqp_par.Pool.shutdown pool) @@ fun () ->
      List.iter2
        (fun (s : Scenario.t) seq ->
          let par =
            List.map Testlib.serve_observable (Scenario.replay ~pool s)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %d domains bit-identical" s.Scenario.name
               domains)
            true (par = seq);
          (* and the frozen tallies still reconcile exactly *)
          let shed =
            List.length
              (List.filter (function `Shed _ -> true | _ -> false) par)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s @ %d domains shed tally" s.Scenario.name
               domains)
            s.Scenario.expect.Scenario.shed shed)
        scenarios sequential)
    [ 2; 4 ];
  Alcotest.(check int) "par.pool.errors" 0
    (Cqp_obs.Metrics.counter_value "par.pool.errors")

(* --- evolve determinism -------------------------------------------- *)

let reservoir_key (r : Curriculum.result) =
  List.map
    (fun (axis, (e : Curriculum.elite)) ->
      ( Curriculum.axis_name axis,
        Genome.to_string e.Curriculum.genome,
        e.Curriculum.fitness ))
    r.Curriculum.reservoir

let evolve_deterministic () =
  let run ?pool () =
    Curriculum.evolve ?pool ~population:6 ~generations:2 ~seed:11
      (Lazy.force catalog)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "two sequential runs identical" true
    (reservoir_key a = reservoir_key b);
  let pool = Cqp_par.Pool.create ~domains:3 () in
  let c =
    Fun.protect ~finally:(fun () -> Cqp_par.Pool.shutdown pool) (fun () ->
        run ~pool ())
  in
  Alcotest.(check bool) "pooled run identical to sequential" true
    (reservoir_key a = reservoir_key c);
  (* and even this tiny run already beats the seeded baseline
     somewhere — the smoke invariant CI asserts at larger scale *)
  let beats =
    List.exists
      (fun (axis, (e : Curriculum.elite)) ->
        Curriculum.axis_value e.Curriculum.fitness axis
        > Curriculum.axis_value a.Curriculum.baseline.Curriculum.fitness axis)
      a.Curriculum.reservoir
  in
  Alcotest.(check bool) "evolved elite beats baseline on some axis" true beats

let () =
  Testlib.seed_banner "test_curriculum";
  Alcotest.run "curriculum"
    [
      ( "genome",
        [
          Testlib.qc string_roundtrip;
          Testlib.qc genes_roundtrip;
          Testlib.qc ga_closure;
          Testlib.qc decode_closure;
        ] );
      ( "golden",
        [
          Alcotest.test_case "workload generate is seed-stable" `Quick
            generate_golden;
          Alcotest.test_case "genome decode is seed-stable" `Quick
            decode_golden;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "at least 5 scenarios frozen" `Quick
            corpus_present;
          Alcotest.test_case "every scenario replays exactly" `Quick
            corpus_replays;
          Alcotest.test_case "corpus is adversarial" `Quick
            corpus_is_adversarial;
          Alcotest.test_case "bit-identical at domains 1/2/4" `Quick
            corpus_domains_diff;
        ] );
      ( "evolve",
        [
          Alcotest.test_case "deterministic, pool-invariant, adversarial"
            `Slow evolve_deterministic;
        ] );
    ]

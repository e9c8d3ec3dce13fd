module Rng = Cqp_util.Rng
module Ga = Cqp_core.Metaheuristics.Ga

type axis = Overall | Work | Blown | Shed | Miss | Cost

let axes = [ Overall; Work; Blown; Shed; Miss; Cost ]

let axis_name = function
  | Overall -> "worst_overall"
  | Work -> "worst_solve_work"
  | Blown -> "worst_blown_deadlines"
  | Shed -> "worst_shed"
  | Miss -> "worst_cache_misses"
  | Cost -> "worst_est_cost"

let axis_value (f : Fitness.t) = function
  | Overall -> Fitness.score f
  | Work -> f.Fitness.p99_work
  | Blown -> float_of_int f.Fitness.blown
  | Shed -> float_of_int f.Fitness.shed
  | Miss -> f.Fitness.miss_ratio
  | Cost -> f.Fitness.est_cost_p99

type elite = { genome : Genome.t; fitness : Fitness.t }

type result = {
  reservoir : (axis * elite) list;
  baseline : elite;
  evaluations : int;
  generations : int;
}

let evolve ?pool ?(population = 12) ?(mutation_rate = 0.25)
    ?(log = fun _ -> ()) ~generations ~seed catalog =
  if population < 2 then
    invalid_arg "Curriculum.evolve: population must be at least 2";
  let rng = Rng.create seed in
  let eval_all gs =
    (* One pool job per candidate; each replays its own fresh server
       sequentially, so results are slot-ordered and domain-count
       independent. *)
    match pool with
    | Some pool when Cqp_par.Pool.domains pool > 1 ->
        Cqp_par.Pool.map pool (Fitness.evaluate catalog) gs
    | _ -> Array.map (Fitness.evaluate catalog) gs
  in
  let pop =
    ref
      (Array.init population (fun i ->
           if i = 0 then Genome.baseline ~seed
           else Genome.random (Rng.split rng (1_000_000 + i))))
  in
  let fits = ref (eval_all !pop) in
  let evaluations = ref population in
  let baseline = { genome = !pop.(0); fitness = !fits.(0) } in
  (* Reservoir: per-axis incumbent, replaced only on strict
     improvement (in slot order), so ties keep the earliest genome and
     admission is deterministic. *)
  let reservoir = ref (List.map (fun a -> (a, baseline)) axes) in
  let admit genome fitness =
    reservoir :=
      List.map
        (fun (a, incumbent) ->
          if axis_value fitness a > axis_value incumbent.fitness a then
            (a, { genome; fitness })
          else (a, incumbent))
        !reservoir
  in
  Array.iteri (fun i g -> admit g !fits.(i)) !pop;
  for gen = 1 to generations do
    let scores = Array.map Fitness.score !fits in
    let children =
      Array.init population (fun slot ->
          let r = Rng.split rng ((gen * 10_000) + slot) in
          let a = Ga.tournament ~rng:r scores in
          let b = Ga.tournament ~rng:r scores in
          let genes =
            Ga.one_point ~rng:r (Genome.genes !pop.(a)) (Genome.genes !pop.(b))
          in
          Ga.point_mutate ~rng:r ~rate:mutation_rate Genome.mutate_gene genes;
          Genome.of_genes genes)
    in
    let child_fits = eval_all children in
    evaluations := !evaluations + population;
    Array.iteri (fun i g -> admit g child_fits.(i)) children;
    (* Elitist merge: best [population] of parents ∪ children by
       score, ties broken by slot (parents first) — deterministic. *)
    let all = Array.append !pop children in
    let all_fits = Array.append !fits child_fits in
    let order = Array.init (2 * population) Fun.id in
    Array.sort
      (fun i j ->
        match
          Float.compare (Fitness.score all_fits.(j)) (Fitness.score all_fits.(i))
        with
        | 0 -> compare i j
        | c -> c)
      order;
    pop := Array.init population (fun i -> all.(order.(i)));
    fits := Array.init population (fun i -> all_fits.(order.(i)));
    log
      (Printf.sprintf "gen %d/%d: best %s" gen generations
         (Fitness.summary !fits.(0)))
  done;
  {
    reservoir = !reservoir;
    baseline;
    evaluations = !evaluations;
    generations;
  }

let pp_table ppf result =
  let base = result.baseline.fitness in
  Format.fprintf ppf "baseline: %s@." (Fitness.summary base);
  Format.fprintf ppf "%-22s %14s %14s  improved@." "axis" "baseline" "elite";
  List.iter
    (fun (axis, elite) ->
      let bv = axis_value base axis and ev = axis_value elite.fitness axis in
      Format.fprintf ppf "%-22s %14.4f %14.4f  %s@." (axis_name axis) bv ev
        (if ev > bv then "yes" else "no"))
    result.reservoir

let export ~dir spec result =
  List.map
    (fun (axis, elite) ->
      let scenario =
        Scenario.freeze ~name:(axis_name axis) spec elite.genome
      in
      (axis, Scenario.save ~dir scenario))
    result.reservoir

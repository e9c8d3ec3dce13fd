type t =
  | C_boundaries
  | C_maxbounds
  | D_maxdoi
  | D_singlemaxdoi
  | D_heurdoi
  | Exhaustive

let all = [ C_boundaries; C_maxbounds; D_maxdoi; D_singlemaxdoi; D_heurdoi ]

let name = function
  | C_boundaries -> "C_Boundaries"
  | C_maxbounds -> "C_MaxBounds"
  | D_maxdoi -> "D_MaxDoi"
  | D_singlemaxdoi -> "D_SingleMaxDoi"
  | D_heurdoi -> "D_HeurDoi"
  | Exhaustive -> "Exhaustive"

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt
    (fun a -> String.lowercase_ascii (name a) = s)
    (Exhaustive :: all)

let space_order = function
  | C_boundaries | C_maxbounds | Exhaustive -> Space.By_cost
  | D_maxdoi | D_singlemaxdoi | D_heurdoi -> Space.By_doi

let required_orders = function
  | C_boundaries | C_maxbounds | Exhaustive -> Pref_space.All_orders
  | D_maxdoi | D_singlemaxdoi | D_heurdoi -> Pref_space.D_only

let solver = function
  | C_boundaries -> C_boundaries.solve
  | C_maxbounds -> C_maxbounds.solve
  | D_maxdoi -> D_maxdoi.solve
  | D_singlemaxdoi -> D_singlemaxdoi.solve
  | D_heurdoi -> D_heurdoi.solve
  | Exhaustive -> Exhaustive.solve

let run ?(budget = Cqp_resilience.Budget.unlimited) t ps ~cmax =
  let space = Space.create ~order:(space_order t) ps in
  Cqp_obs.Trace.with_span ~name:"solver.search"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.str "algorithm" (name t);
        Cqp_obs.Attr.int "k" (Space.k space);
        Cqp_obs.Attr.float "cmax" cmax;
      ])
    (fun () ->
      let start = Cqp_obs.Clock.raw_us () in
      let solution = (solver t) ~budget space ~cmax in
      solution.Solution.stats.Instrument.wall_seconds <-
        (Cqp_obs.Clock.raw_us () -. start) /. 1e6;
      Instrument.publish solution.Solution.stats;
      Cqp_obs.Trace.add_attr
        (Cqp_obs.Attr.int "states_visited"
           solution.Solution.stats.Instrument.states_visited);
      solution)

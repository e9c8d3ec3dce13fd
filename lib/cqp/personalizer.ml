let log_src = Logs.Src.create "cqp.personalizer" ~doc:"CQP pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  original : Cqp_sql.Ast.query;
  pref_space : Pref_space.t;
  solution : Solution.t;
  personalized : Cqp_sql.Ast.query;
  rows : Cqp_relal.Tuple.t list;
  real_cost_ms : float;
}

let personalize_query ?(algorithm = Algorithm.C_boundaries) ?max_k ?cache
    ?orders ?solve catalog profile ~query ~problem =
  (* A custom [solve] may race algorithms beyond the configured one
     (the serve path's portfolio rung), so it can demand more order
     vectors than [algorithm] alone requires. *)
  let orders =
    match orders with
    | Some o -> o
    | None -> Algorithm.required_orders algorithm
  in
  (match cache with
  | Some c when not (Cache.catalog c == catalog) ->
      invalid_arg
        "Personalizer.personalize_query: cache built for a different catalog"
  | _ -> ());
  Cqp_obs.Trace.with_span ~name:"personalize"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.int "problem" problem.Problem.number;
        Cqp_obs.Attr.str "algorithm" (Algorithm.name algorithm);
      ])
  @@ fun () ->
  Cqp_obs.Trace.with_span ~name:"sql.analyze" (fun () ->
      Cqp_sql.Analyzer.check catalog query);
  Log.debug (fun m ->
      m "personalizing %S under %s"
        (Cqp_sql.Printer.to_string query)
        (Problem.describe problem));
  (* Estimate construction and the preference-space lookup/build both
     run against the cross-request caches, so together they are the
     request's [Cache_lookup] phase. *)
  let ps =
    Cqp_obs.Trace.with_span ~name:"personalize.cache_lookup"
      ~phase:Cqp_obs.Phase.Cache_lookup
    @@ fun () ->
    let estimate =
      Cqp_obs.Trace.with_span ~name:"estimate.create" (fun () ->
          let memo = Option.bind cache Cache.memo in
          Estimate.create ?memo catalog query)
    in
    match cache with
    | Some c ->
        Cache.pref_space c ~constraints:problem.Problem.constraints ?max_k
          ~orders estimate profile
    | None ->
        Pref_space.build ~constraints:problem.Problem.constraints ?max_k
          ~orders estimate profile
  in
  Log.debug (fun m ->
      m "preference space: K = %d, supreme cost %.1f ms" (Pref_space.k ps)
        (Pref_space.supreme_cost ps));
  let solved =
    Cqp_obs.Trace.with_span ~name:"personalize.solve"
      ~phase:Cqp_obs.Phase.Solve
    @@ fun () ->
    match solve with
    | Some f -> f ps
    | None -> Solver.solve ~algorithm ps problem
  in
  let solution =
    match solved with
    | Some sol ->
        Log.debug (fun m ->
            m "%s selected %d preferences (%a)" (Algorithm.name algorithm)
              (List.length sol.Solution.pref_ids)
              Params.pp sol.Solution.params);
        sol
    | None ->
        (* Infeasible: fall back to the unpersonalized query. *)
        Log.info (fun m ->
            m "no feasible personalization for %s; running the query as-is"
              (Problem.describe problem));
        Solution.empty (Space.create ~order:Space.By_doi ps)
  in
  let space = Space.create ~order:Space.By_doi ps in
  let paths = Solution.paths space solution in
  (* dedup:true — exact intersection semantics even when a preference
     path has a fan-out join (the paper's plain construction drops
     tuples matched more than once by a branch; see Rewrite). *)
  let personalized =
    Cqp_obs.Trace.with_span ~name:"rewrite.personalize"
      ~phase:Cqp_obs.Phase.Render
      ~attrs:(fun () ->
        [ Cqp_obs.Attr.int "paths" (List.length paths) ])
      (fun () -> Rewrite.personalize ~dedup:true catalog query paths)
  in
  (ps, solution, personalized)

let ranked_results ?mode catalog outcome =
  let space =
    Space.create ~order:Space.By_doi outcome.pref_space
  in
  Ranker.rank_solution ?mode catalog outcome.original space outcome.solution

let run ?algorithm ?max_k ?cache ?orders ?solve ?(execute = true) catalog
    profile ~sql ~problem () =
  let query =
    Cqp_obs.Trace.with_span ~name:"sql.parse" (fun () ->
        Cqp_sql.Parser.parse sql)
  in
  let ps, solution, personalized =
    personalize_query ?algorithm ?max_k ?cache ?orders ?solve catalog profile
      ~query ~problem
  in
  let rows, real_cost_ms =
    if execute then begin
      let result = Cqp_exec.Engine.execute catalog personalized in
      ( result.Cqp_exec.Engine.rows,
        float_of_int result.Cqp_exec.Engine.block_reads
        *. Cqp_exec.Io.default_block_ms )
    end
    else ([], 0.)
  in
  { original = query; pref_space = ps; solution; personalized; rows; real_cost_ms }

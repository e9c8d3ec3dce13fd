module Tuple = Cqp_relal.Tuple
module Doi = Cqp_prefs.Doi

type mode = All_of | Any_of

type ranked_row = {
  row : Tuple.t;
  satisfied : int list;
  score : float;
}

type result = { ranked : ranked_row list; block_reads : int }

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let rank ?(mode = Any_of) catalog q paths =
  match paths with
  | [] ->
      let res = Cqp_exec.Engine.execute catalog q in
      {
        ranked =
          List.map
            (fun row -> { row; satisfied = []; score = 0. })
            res.Cqp_exec.Engine.rows;
        block_reads = res.Cqp_exec.Engine.block_reads;
      }
  | _ ->
      let table : (int list * Tuple.t) Tuple_tbl.t = Tuple_tbl.create 256 in
      let order = ref [] in
      let io = ref 0 in
      List.iteri
        (fun i (path, _doi) ->
          let sub = Rewrite.subquery_of catalog q path in
          let res = Cqp_exec.Engine.execute catalog sub in
          io := !io + res.Cqp_exec.Engine.block_reads;
          (* A sub-query may yield duplicates (several genre rows per
             movie): count each tuple once per preference. *)
          let seen_here = Tuple_tbl.create 64 in
          List.iter
            (fun row ->
              if not (Tuple_tbl.mem seen_here row) then begin
                Tuple_tbl.add seen_here row ();
                match Tuple_tbl.find_opt table row with
                | Some (sats, orig) ->
                    Tuple_tbl.replace table row (i :: sats, orig)
                | None ->
                    Tuple_tbl.replace table row ([ i ], row);
                    order := row :: !order
              end)
            res.Cqp_exec.Engine.rows)
        paths;
      let n_paths = List.length paths in
      let dois = Array.of_list (List.map snd paths) in
      let rows =
        List.rev !order
        |> List.filter_map (fun row ->
               match Tuple_tbl.find_opt table row with
               | None -> None
               | Some (sats, _) ->
                   let satisfied = List.sort compare sats in
                   if mode = All_of && List.length satisfied < n_paths then
                     None
                   else begin
                     let score =
                       Doi.combine (List.map (fun i -> dois.(i)) satisfied)
                     in
                     Some { row; satisfied; score }
                   end)
      in
      let ranked =
        List.stable_sort (fun a b -> Stdlib.compare b.score a.score) rows
      in
      { ranked; block_reads = !io }

let rank_solution ?mode catalog q space (sol : Solution.t) =
  let paths =
    List.map
      (fun id ->
        let item = Space.item space id in
        (item.Pref_space.path, item.Pref_space.doi))
      sol.Solution.pref_ids
  in
  rank ?mode catalog q paths

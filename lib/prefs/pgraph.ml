module Value = Cqp_relal.Value

type node =
  | Rel_node of string
  | Attr_node of string * string
  | Value_node of string * string * Value.t

type edge = Sel_edge of Profile.selection | Join_edge of Profile.join

type t = { catalog : Cqp_relal.Catalog.t; profile : Profile.t }

let build catalog profile =
  (match Profile.validate catalog profile with
  | Ok () -> ()
  | Error problems ->
      invalid_arg ("Pgraph.build: " ^ String.concat "; " problems));
  { catalog; profile }

let relation_names t = Cqp_relal.Catalog.names t.catalog
let profile t = t.profile

let nodes t =
  let rels = relation_names t in
  let rel_nodes = List.map (fun r -> Rel_node r) rels in
  let attr_nodes =
    List.concat_map
      (fun r ->
        let schema =
          Cqp_relal.Relation.schema (Cqp_relal.Catalog.get t.catalog r)
        in
        List.map
          (fun a -> Attr_node (r, a.Cqp_relal.Schema.attr_name))
          schema.Cqp_relal.Schema.attrs)
      rels
  in
  let value_nodes =
    List.map
      (fun (s : Profile.selection) ->
        Value_node (s.s_rel, s.s_attr, s.s_value))
      (Profile.selections t.profile)
  in
  rel_nodes @ attr_nodes @ value_nodes

let edges t =
  List.map (fun s -> Sel_edge s) (Profile.selections t.profile)
  @ List.map (fun j -> Join_edge j) (Profile.joins t.profile)

let selection_edges_on t rel = Profile.selections_on t.profile rel
let join_edges_from t rel = Profile.joins_from t.profile rel

let acyclic_paths_from ?max_length t anchor =
  let anchor = String.lowercase_ascii anchor in
  let max_length =
    match max_length with
    | Some n -> n
    | None -> List.length (relation_names t)
  in
  (* DFS over join edges, collecting a path for every selection edge
     found at any relation along the way. *)
  let rec explore rel visited depth =
    let direct =
      List.map Path.atomic (selection_edges_on t rel)
    in
    let extended =
      if depth >= max_length then []
      else
        List.concat_map
          (fun (j : Profile.join) ->
            if List.mem j.j_to_rel visited then []
            else
              explore j.j_to_rel (j.j_to_rel :: visited) (depth + 1)
              |> List.map (fun p -> Path.extend j p))
          (join_edges_from t rel)
    in
    direct @ extended
  in
  explore anchor [ anchor ] 1
  |> List.filter (fun p -> Path.length p <= max_length)

let reachable_relations t anchor =
  let anchor = String.lowercase_ascii anchor in
  let rec bfs seen frontier =
    match frontier with
    | [] -> List.rev seen
    | rel :: rest ->
        let nexts =
          List.filter_map
            (fun (j : Profile.join) ->
              if List.mem j.j_to_rel seen || List.mem j.j_to_rel rest then
                None
              else Some j.j_to_rel)
            (join_edges_from t rel)
        in
        bfs (rel :: seen) (rest @ nexts)
  in
  bfs [] [ anchor ]

let pp ppf t =
  Format.fprintf ppf "@[<v>personalization graph: %d nodes, %d edges@ %a@]"
    (List.length (nodes t))
    (List.length (edges t))
    Profile.pp t.profile

type t = {
  relations : (string, Relation.t) Hashtbl.t;
  stats_cache : (string, Stats.t) Hashtbl.t;
}

let create () =
  { relations = Hashtbl.create 16; stats_cache = Hashtbl.create 16 }

let key r = (Relation.schema r).Schema.rel_name

let add t r =
  let name = key r in
  if Hashtbl.mem t.relations name then
    invalid_arg ("Catalog.add: duplicate relation " ^ name);
  Hashtbl.add t.relations name r

let replace t r =
  let name = key r in
  Hashtbl.replace t.relations name r;
  Hashtbl.remove t.stats_cache name

let find t name = Hashtbl.find_opt t.relations (String.lowercase_ascii name)

let get t name =
  match find t name with Some r -> r | None -> raise Not_found

let mem t name = find t name <> None

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.relations []
  |> List.sort String.compare

let stats t name =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt t.stats_cache name with
  | Some s -> s
  | None ->
      let s = Stats.analyze (get t name) in
      Hashtbl.add t.stats_cache name s;
      s

let refresh_stats t = Hashtbl.reset t.stats_cache

let blocks t name =
  match find t name with None -> 0 | Some r -> Relation.blocks r

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun name -> Format.fprintf ppf "%a@ " Relation.pp (get t name))
    (names t);
  Format.fprintf ppf "@]"

module Ast = Cqp_sql.Ast
module Value = Cqp_relal.Value
module Catalog = Cqp_relal.Catalog
module Stats = Cqp_relal.Stats
module Path = Cqp_prefs.Path
module Profile = Cqp_prefs.Profile

module Memo = struct
  (* Cross-request memo for the pure per-predicate catalog lookups.
     Every entry is a function of (catalog contents, key) only, so as
     long as one memo serves one catalog the cached value is the value
     the raw fold would have produced — memoization cannot change any
     estimate.  The serve layer owns that pairing. *)
  type t = {
    sel : (string * string * Ast.binop * Value.t, float) Hashtbl.t;
    dst : (string * string, int) Hashtbl.t;
    blk : (string, int) Hashtbl.t;
    mutable lookups : int;
    mutable hits : int;
  }

  let create () =
    {
      sel = Hashtbl.create 256;
      dst = Hashtbl.create 64;
      blk = Hashtbl.create 64;
      lookups = 0;
      hits = 0;
    }

  let lookups t = t.lookups
  let hits t = t.hits
  let entries t = Hashtbl.length t.sel + Hashtbl.length t.dst + Hashtbl.length t.blk

  let get m tbl key compute =
    m.lookups <- m.lookups + 1;
    match Hashtbl.find_opt tbl key with
    | Some v ->
        m.hits <- m.hits + 1;
        v
    | None ->
        let v = compute () in
        Hashtbl.add tbl key v;
        v
end

type t = {
  catalog : Catalog.t;
  query : Ast.query;
  query_rels : (string * string) list;  (** alias, relation name *)
  base_cost : float;
  base_size : float;
  memo : Memo.t option;
}

let catalog t = t.catalog
let query t = t.query
let block_ms = Cqp_exec.Io.default_block_ms

let condition_selectivity ?memo catalog rel attr op v =
  match memo with
  | None -> Cqp_exec.Explain.selectivity catalog rel attr op v
  | Some m ->
      Memo.get m m.Memo.sel (rel, attr, op, v) (fun () ->
          Cqp_exec.Explain.selectivity catalog rel attr op v)

let distinct_of ?memo catalog rel attr =
  match memo with
  | None -> Stats.distinct (Catalog.stats catalog rel) attr
  | Some m ->
      Memo.get m m.Memo.dst (rel, attr) (fun () ->
          Stats.distinct (Catalog.stats catalog rel) attr)

let blocks_of ?memo catalog rel =
  match memo with
  | None -> Catalog.blocks catalog rel
  | Some m -> Memo.get m m.Memo.blk rel (fun () -> Catalog.blocks catalog rel)

(* Estimate |Q| for a select block: product of cardinalities, scaled by
   equi-join selectivities (1 / max distinct) and literal-condition
   selectivities, System-R style. *)
let estimate_block_size ?memo catalog (b : Ast.select_block) =
  let aliases =
    List.filter_map
      (function
        | Ast.Table (name, alias) ->
            Some (Option.value alias ~default:name, name)
        | Ast.Subquery _ -> None)
      b.Ast.from
  in
  let rel_of alias = List.assoc_opt alias aliases in
  let resolve_unqualified attr =
    (* Find the unique base relation carrying the attribute. *)
    let hits =
      List.filter
        (fun (_, rel) ->
          match Catalog.find catalog rel with
          | None -> false
          | Some r ->
              Cqp_relal.Schema.mem (Cqp_relal.Relation.schema r) attr)
        aliases
    in
    match hits with [ (_, rel) ] -> Some rel | _ -> None
  in
  let rel_of_col q attr =
    match q with
    | Some alias -> rel_of alias
    | None -> resolve_unqualified attr
  in
  let card =
    List.fold_left
      (fun acc (_, rel) ->
        match Catalog.find catalog rel with
        | Some r ->
            acc *. float_of_int (max 1 (Cqp_relal.Relation.cardinality r))
        | None -> acc)
      1. aliases
  in
  let conjuncts =
    match b.Ast.where with None -> [] | Some p -> Ast.predicate_conjuncts p
  in
  let literal_selectivity q a op v =
    match rel_of_col q a with
    | Some rel -> condition_selectivity ?memo catalog rel a op v
    | None -> 0.1
  in
  let sel_of_conjunct = function
    | Ast.Cmp (Ast.Eq, Ast.Col (q1, a1), Ast.Col (q2, a2)) -> (
        match rel_of_col q1 a1, rel_of_col q2 a2 with
        | Some r1, Some r2 ->
            let d1 = max 1 (distinct_of ?memo catalog r1 a1) in
            let d2 = max 1 (distinct_of ?memo catalog r2 a2) in
            1. /. float_of_int (max d1 d2)
        | _ -> 0.1)
    | Ast.Cmp (op, Ast.Col (q, a), Ast.Lit v) -> literal_selectivity q a op v
    | Ast.Cmp (op, Ast.Lit v, Ast.Col (q, a)) ->
        literal_selectivity q a (Ast.mirror op) v
    | Ast.In_list (Ast.Col (q, a), vs) -> (
        match rel_of_col q a with
        | Some rel ->
            let stats = Catalog.stats catalog rel in
            min 1.
              (List.fold_left
                 (fun acc v -> acc +. Stats.eq_selectivity stats a v)
                 0. vs)
        | None -> 0.1)
    | Ast.True -> 1.
    | _ -> 0.5
  in
  List.fold_left (fun acc c -> acc *. sel_of_conjunct c) card conjuncts

let create ?memo catalog query =
  let tables = Ast.tables_of query in
  List.iter
    (fun (name, _) ->
      if not (Catalog.mem catalog name) then
        invalid_arg ("Estimate.create: unknown relation " ^ name))
    tables;
  let query_rels =
    List.map (fun (name, alias) -> (Option.value alias ~default:name, name))
      tables
  in
  let base_cost =
    block_ms
    *. float_of_int
         (List.fold_left
            (fun acc (_, name) -> acc + blocks_of ?memo catalog name)
            0 query_rels)
  in
  let base_size =
    match query with
    | Ast.Select b -> estimate_block_size ?memo catalog b
    | Ast.Union_all qs ->
        List.fold_left
          (fun acc sub ->
            match sub with
            | Ast.Select b -> acc +. estimate_block_size ?memo catalog b
            | Ast.Union_all _ -> acc)
          0. qs
  in
  { catalog; query; query_rels; base_cost; base_size; memo }

let base_cost t = t.base_cost
let base_size t = t.base_size
let blocks t rel = blocks_of ?memo:t.memo t.catalog rel
let memo t = t.memo

(* One counter tick per per-item estimator call; [item_size] and
   [params_of] are counted through the primitives they delegate to. *)
let[@inline] count_call () = Cqp_obs.Metrics.incr "estimate.calls"

let item_cost t path =
  count_call ();
  (* Sub-query q_i scans Q's relations plus the relations the path
     joins in (the anchor is already part of Q). *)
  let extra =
    match Path.relations path with
    | [] -> []
    | _anchor :: joined -> joined
  in
  t.base_cost
  +. block_ms
     *. float_of_int
          (List.fold_left
             (fun acc rel -> acc + blocks_of ?memo:t.memo t.catalog rel)
             0 extra)

let item_frac t path =
  count_call ();
  (* Walk the path from the terminal selection back to the anchor. *)
  let sel = path.Path.sel in
  let sel_frac =
    condition_selectivity ?memo:t.memo t.catalog sel.Profile.s_rel
      sel.Profile.s_attr sel.Profile.s_op sel.Profile.s_value
  in
  let frac =
    List.fold_right
      (fun (j : Profile.join) downstream ->
        (* Fraction of j_from_rel tuples with a matching satisfying
           tuple in j_to_rel: downstream fraction scaled by the average
           fan-out, capped at 1 (containment assumption). *)
        let to_rel = j.Profile.j_to_rel in
        match Catalog.find t.catalog to_rel with
        | None -> downstream
        | Some r ->
            let card = float_of_int (Cqp_relal.Relation.cardinality r) in
            let distinct =
              float_of_int
                (max 1
                   (distinct_of ?memo:t.memo t.catalog to_rel
                      j.Profile.j_to_attr))
            in
            min 1. (downstream *. (card /. distinct)))
      path.Path.joins sel_frac
  in
  min 1. (max 0. frac)

let item_size t path = t.base_size *. item_frac t path

let merged_cost t paths =
  List.fold_left
    (fun acc path -> acc +. (item_cost t path -. t.base_cost))
    t.base_cost paths

let params_of t paths =
  match paths with
  | [] -> { Params.doi = 0.; cost = t.base_cost; size = t.base_size }
  | _ ->
      let doi = Cqp_prefs.Doi.combine (List.map Path.doi paths) in
      let cost =
        List.fold_left (fun acc p -> acc +. item_cost t p) 0. paths
      in
      let size =
        List.fold_left (fun acc p -> acc *. item_frac t p) t.base_size paths
      in
      { Params.doi; cost; size }

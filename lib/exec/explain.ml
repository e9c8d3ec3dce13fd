open Cqp_sql.Ast
module Catalog = Cqp_relal.Catalog
module Relation = Cqp_relal.Relation
module Printer = Cqp_sql.Printer

exception Runtime_error of string

type input = Base of string * Relation.t | Derived of t

and source_plan = {
  label : string;
  input : input;
  cardinality : int;
  blocks : int;
  header : Rowset.col list;
  pushed_down : predicate list;
}

and join_step = {
  with_source : string;
  method_ : [ `Hash of (predicate * (int * int)) list | `Cartesian ];
  post_filters : predicate list;
}

and block_plan = {
  sources : source_plan list;
  joins : join_step list;
  residual : predicate list;
  outputs : expr list;
  cols : Rowset.col list;
  aggregate : (expr list * predicate option) option;
  distinct : bool;
  order_by : (expr * order_dir) list;
  limit : int option;
}

and t = Plan_select of block_plan | Plan_union of t list

let fail msg = raise (Runtime_error msg)

let rec scan_blocks = function
  | Plan_select b -> List.fold_left (fun n s -> n + s.blocks) 0 b.sources
  | Plan_union plans -> List.fold_left (fun n p -> n + scan_blocks p) 0 plans

(* A union's rows carry its first branch's header. *)
let rec output_cols = function
  | Plan_select b -> b.cols
  | Plan_union [] -> fail "empty UNION"
  | Plan_union (first :: _) -> output_cols first

(* --- column resolution against headers -------------------------------- *)

(* Headers resolve columns by exactly the rules [Engine] compiles
   them with. *)
let find cols (q, n) =
  match Rowset.find_col cols q n with
  | i -> Some i
  | exception Rowset.Column_error _ -> None

let rec expr_cols = function
  | Col (q, n) -> [ (q, n) ]
  | Lit _ | Count_star -> []
  | Count e | Min e | Max e | Sum e | Avg e -> expr_cols e

let rec pred_cols = function
  | True -> []
  | Cmp (_, l, r) -> expr_cols l @ expr_cols r
  | And (a, b) | Or (a, b) -> pred_cols a @ pred_cols b
  | Not p -> pred_cols p
  | In_list (e, _) | Like (e, _) | Is_null e | Is_not_null e -> expr_cols e

let resolves_in cols p = List.for_all (fun c -> find cols c <> None) (pred_cols p)

(* An equality between a column of [a] and a column of [b] is a hash-join
   key: its (left, right) column indexes. *)
let join_key a b = function
  | Cmp (Eq, Col (ql, nl), Col (qr, nr)) -> (
      match find a (ql, nl), find b (qr, nr) with
      | Some i, Some j -> Some (i, j)
      | _ -> (
          match find a (qr, nr), find b (ql, nl) with
          | Some i, Some j -> Some (i, j)
          | _ -> None))
  | _ -> None

(* Output expressions (with [*] expanded against the block's header) and
   the column each one is named. *)
let output_items header items =
  List.concat_map
    (function
      | Star ->
          List.map
            (fun c -> (Col (c.Rowset.qualifier, c.Rowset.name), Rowset.col c.Rowset.name))
            header
      | Item (e, alias) ->
          let name =
            match e, alias with
            | _, Some alias -> alias
            | Col (_, name), None -> name
            | (Count_star | Count _), None -> "count"
            | Min _, None -> "min"
            | Max _, None -> "max"
            | Sum _, None -> "sum"
            | Avg _, None -> "avg"
            | Lit _, None -> "literal"
          in
          [ (e, Rowset.col name) ])
    items

(* --- the planner ------------------------------------------------------- *)

let rec explain catalog = function
  | Union_all [] -> fail "empty UNION"
  | Union_all qs -> Plan_union (List.map (explain catalog) qs)
  | Select b -> Plan_select (plan_block catalog b)

and source catalog = function
  | Table (name, alias) ->
      let rel =
        match Catalog.find catalog name with
        | Some rel -> rel
        | None -> fail ("unknown relation " ^ name)
      in
      let label = Option.value alias ~default:name in
      {
        label;
        input = Base (name, rel);
        cardinality = Relation.cardinality rel;
        blocks = Relation.blocks rel;
        header =
          List.map
            (fun a -> Rowset.col ~qualifier:label a.Cqp_relal.Schema.attr_name)
            (Relation.schema rel).Cqp_relal.Schema.attrs;
        pushed_down = [];
      }
  | Subquery (q, alias) ->
      let sub = explain catalog q in
      {
        label = alias;
        input = Derived sub;
        cardinality = 0;
        blocks = scan_blocks sub;
        header =
          List.map
            (fun c -> Rowset.col ~qualifier:alias c.Rowset.name)
            (output_cols sub);
        pushed_down = [];
      }

and plan_block catalog b =
  let remaining =
    ref (match b.where with None -> [] | Some p -> predicate_conjuncts p)
  in
  let claim cols =
    let mine, rest = List.partition (resolves_in cols) !remaining in
    remaining := rest;
    mine
  in
  (* 1. Selection pushdown: each source takes the conjuncts it resolves
     alone. *)
  let sources =
    List.map
      (fun from ->
        let s = source catalog from in
        { s with pushed_down = claim s.header })
      b.from
  in
  (* 2. Left-deep joins: equi-conjuncts across the two sides become hash
     keys; conjuncts the joined header newly resolves filter the join. *)
  let joins =
    match sources with
    | [] -> fail "empty FROM"
    | first :: rest ->
        let acc = ref first.header in
        List.map
          (fun s ->
            let keys, others =
              List.partition_map
                (fun p ->
                  match join_key !acc s.header p with
                  | Some key -> Either.Left (p, key)
                  | None -> Either.Right p)
                !remaining
            in
            remaining := others;
            acc := !acc @ s.header;
            {
              with_source = s.label;
              method_ = (if keys = [] then `Cartesian else `Hash keys);
              post_filters = claim !acc;
            })
          rest
  in
  (* 3. Whatever is left filters the joined rows. *)
  let residual = !remaining in
  let header = List.concat_map (fun s -> s.header) sources in
  let outputs, cols = List.split (output_items header b.items) in
  let aggregate =
    if b.group_by <> [] || List.exists Cqp_sql.Analyzer.has_aggregate outputs
    then Some (b.group_by, b.having)
    else None
  in
  {
    sources;
    joins;
    residual;
    outputs;
    cols;
    aggregate;
    distinct = b.distinct;
    order_by = b.order_by;
    limit = b.limit;
  }

(* --- rendering --------------------------------------------------------- *)

let conj ps = String.concat " and " (List.map Printer.predicate_to_string ps)

let rec pp ppf plan =
  Format.pp_open_vbox ppf 0;
  (match plan with
  | Plan_union plans ->
      Format.fprintf ppf "union all of %d branches:@ " (List.length plans);
      List.iteri
        (fun i sub -> Format.fprintf ppf "branch %d:@   @[<v>%a@]@ " (i + 1) pp sub)
        plans
  | Plan_select p -> pp_block ppf p);
  Format.fprintf ppf "estimated scan cost: %d blocks" (scan_blocks plan);
  Format.pp_close_box ppf ()

and pp_block ppf p =
  List.iter
    (fun s ->
      (match s.input with
      | Base (name, _) ->
          Format.fprintf ppf "scan %s%s (%d tuples, %d blocks)" s.label
            (if name <> s.label then " [" ^ name ^ "]" else "")
            s.cardinality s.blocks
      | Derived _ ->
          Format.fprintf ppf "scan %s (derived table, %d blocks)" s.label
            s.blocks);
      if s.pushed_down <> [] then
        Format.fprintf ppf "  filter: %s" (conj s.pushed_down);
      Format.fprintf ppf "@ ";
      match s.input with
      | Derived sub -> Format.fprintf ppf "  @[<v>%a@]@ " pp sub
      | Base _ -> ())
    p.sources;
  List.iter
    (fun j ->
      (match j.method_ with
      | `Hash keys ->
          Format.fprintf ppf "hash join with %s on %s@ " j.with_source
            (conj (List.map fst keys))
      | `Cartesian ->
          Format.fprintf ppf "cartesian product with %s@ " j.with_source);
      if j.post_filters <> [] then
        Format.fprintf ppf "  then filter: %s@ " (conj j.post_filters))
    p.joins;
  if p.residual <> [] then
    Format.fprintf ppf "residual filter: %s@ " (conj p.residual);
  (match p.aggregate with
  | Some (group_by, having) ->
      Format.fprintf ppf "hash aggregate%s%s@ "
        (if group_by = [] then ""
         else
           " by " ^ String.concat ", " (List.map Printer.expr_to_string group_by))
        (match having with
        | Some h -> " having " ^ Printer.predicate_to_string h
        | None -> "")
  | None -> ());
  if p.distinct then Format.fprintf ppf "distinct@ ";
  if p.order_by <> [] then
    Format.fprintf ppf "sort by %s@ "
      (String.concat ", "
         (List.map
            (fun (e, dir) ->
              Printer.expr_to_string e ^ if dir = Desc then " desc" else "")
            p.order_by));
  match p.limit with
  | Some n -> Format.fprintf ppf "limit %d@ " n
  | None -> ()

let to_string catalog q = Format.asprintf "%a" pp (explain catalog q)

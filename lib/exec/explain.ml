open Cqp_sql.Ast
module Catalog = Cqp_relal.Catalog
module Relation = Cqp_relal.Relation
module Stats = Cqp_relal.Stats
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
  estimate : float;
}

and join_step = {
  with_source : int;
  method_ : [ `Hash of (predicate * (int * int)) list | `Cartesian ];
  post_filters : predicate list;
}

and block_plan = {
  sources : source_plan list;
  first : int;
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

(* A post-scan conjunct, resolved once against its block's header: the
   sources it reads ([None] when a reference does not resolve) and, for
   an equality of two columns, their header positions. *)
type conjunct = {
  pred : predicate;
  reads : int list option;
  equi : (int * int) option;
}

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

(* --- size estimates ---------------------------------------------------- *)

let selectivity catalog rel attr op v =
  let stats = Catalog.stats catalog rel in
  match op with
  | Eq -> Stats.eq_selectivity stats attr v
  | Neq -> 1. -. Stats.eq_selectivity stats attr v
  | Lt | Le -> Stats.range_selectivity stats attr ~hi:v ()
  | Gt | Ge -> Stats.range_selectivity stats attr ~lo:v ()

(* The fraction of [rel]'s rows a pushed-down conjunct keeps: the
   catalog-stats selectivity of a comparison with a literal, a guessed
   half for any other conjunct. *)
let conjunct_selectivity catalog rel = function
  | Cmp (op, Col (_, attr), Lit v) -> selectivity catalog rel attr op v
  | Cmp (op, Lit v, Col (_, attr)) -> selectivity catalog rel attr (mirror op) v
  | _ -> 0.5

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
        estimate = float_of_int (Relation.cardinality rel);
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
        estimate = infinity;
      }

and plan_block catalog b =
  let remaining =
    ref (match b.where with None -> [] | Some p -> predicate_conjuncts p)
  in
  (* 1. Selection pushdown: each source takes the conjuncts it resolves
     alone, which scale a base source's estimate. *)
  let sources =
    List.map
      (fun from ->
        let s = source catalog from in
        let pushed_down, rest =
          List.partition (resolves_in s.header) !remaining
        in
        remaining := rest;
        let estimate =
          match s.input with
          | Base (name, _) ->
              List.fold_left
                (fun n p -> n *. conjunct_selectivity catalog name p)
                s.estimate pushed_down
          | Derived _ -> s.estimate
        in
        { s with pushed_down; estimate })
      b.from
  in
  if sources = [] then fail "empty FROM";
  (* Every other conjunct, like the outputs, resolves against the
     block's header, the sources' headers in FROM order, so the join
     order decides where a conjunct runs, never what it means. *)
  let header = List.concat_map (fun s -> s.header) sources in
  let owner =
    Array.of_list
      (List.concat
         (List.mapi (fun i s -> List.map (fun _ -> i) s.header) sources))
  in
  let resolve pred =
    let reads =
      List.fold_left
        (fun acc c ->
          match acc, find header c with
          | Some ss, Some i -> Some (owner.(i) :: ss)
          | _ -> None)
        (Some []) (pred_cols pred)
    and equi =
      match pred with
      | Cmp (Eq, Col (ql, nl), Col (qr, nr)) -> (
          match find header (ql, nl), find header (qr, nr) with
          | Some i, Some j -> Some (i, j)
          | _ -> None)
      | _ -> None
    in
    { pred; reads; equi }
  in
  let pending = ref (List.map resolve !remaining) in
  let n = List.length sources in
  let estimate = Array.of_list (List.map (fun s -> s.estimate) sources) in
  let joined = Array.make n false in
  (* An equality between a column of a joined source and one of [s] is
     a hash-join key: its header positions, the joined side's first. *)
  let key s c =
    match c.equi with
    | Some (i, j) when joined.(owner.(i)) && owner.(j) = s -> Some (i, j)
    | Some (i, j) when joined.(owner.(j)) && owner.(i) = s -> Some (j, i)
    | _ -> None
  in
  (* The smallest estimate, the earliest in FROM order on a tie. *)
  let smallest = function
    | [] -> assert false
    | s :: rest ->
        List.fold_left
          (fun best s -> if estimate.(s) < estimate.(best) then s else best)
          s rest
  in
  let unjoined () =
    List.filter (fun s -> not joined.(s)) (List.init n Fun.id)
  in
  (* 2. Greedy join order: the smallest source first, then the smallest
     one an equi-conjunct links to those already joined (of all the
     others when none is linked: a cartesian step).  Each step builds on
     the incoming source; conjuncts whose sources are now all joined
     filter its rows. *)
  let first = smallest (unjoined ()) in
  joined.(first) <- true;
  let rec joins () =
    match unjoined () with
    | [] -> []
    | rest ->
        let linked =
          List.filter
            (fun s -> List.exists (fun c -> key s c <> None) !pending)
            rest
        in
        let s = smallest (if linked = [] then rest else linked) in
        let keys, others =
          List.partition_map
            (fun c ->
              match key s c with
              | Some k -> Either.Left (c.pred, k)
              | None -> Either.Right c)
            !pending
        in
        joined.(s) <- true;
        let post, others =
          List.partition
            (fun c ->
              match c.reads with
              | Some ss -> List.for_all (fun s -> joined.(s)) ss
              | None -> false)
            others
        in
        pending := others;
        let step =
          {
            with_source = s;
            method_ = (if keys = [] then `Cartesian else `Hash keys);
            post_filters = List.map (fun c -> c.pred) post;
          }
        in
        step :: joins ()
  in
  let joins = joins () in
  (* 3. Whatever is left filters the joined rows. *)
  let residual = List.map (fun c -> c.pred) !pending in
  let outputs, cols = List.split (output_items header b.items) in
  let aggregate =
    if b.group_by <> [] || List.exists Cqp_sql.Analyzer.has_aggregate outputs
    then Some (b.group_by, b.having)
    else None
  in
  {
    sources;
    first;
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
  let sources = Array.of_list p.sources in
  let order = p.first :: List.map (fun j -> j.with_source) p.joins in
  List.iter
    (fun i ->
      let s = sources.(i) in
      (match s.input with
      | Base (name, _) ->
          Format.fprintf ppf "scan %s%s (%d tuples, %d blocks, est. %.1f rows)"
            s.label
            (if name <> s.label then " [" ^ name ^ "]" else "")
            s.cardinality s.blocks s.estimate
      | Derived _ ->
          Format.fprintf ppf "scan %s (derived table, %d blocks)" s.label
            s.blocks);
      if s.pushed_down <> [] then
        Format.fprintf ppf "  filter: %s" (conj s.pushed_down);
      Format.fprintf ppf "@ ";
      match s.input with
      | Derived sub -> Format.fprintf ppf "  @[<v>%a@]@ " pp sub
      | Base _ -> ())
    order;
  List.iter
    (fun j ->
      let label = sources.(j.with_source).label in
      (match j.method_ with
      | `Hash keys ->
          Format.fprintf ppf "hash join with %s on %s@ " label
            (conj (List.map fst keys))
      | `Cartesian -> Format.fprintf ppf "cartesian product with %s@ " label);
      if j.post_filters <> [] then
        Format.fprintf ppf "  then filter: %s@ " (conj j.post_filters))
    p.joins;
  if order <> List.init (Array.length sources) Fun.id then
    Format.fprintf ppf "restore FROM order: %s@ "
      (String.concat ", " (List.map (fun s -> s.label) p.sources));
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

open Ast
module Value = Cqp_relal.Value
module Schema = Cqp_relal.Schema
module Catalog = Cqp_relal.Catalog

exception Semantic_error of string

type binding = {
  alias : string;
  source : source;
  columns : (string * Value.ty) list;
}

and source = Base of string | Derived of Ast.query

type env = binding list

let fail fmt = Format.kasprintf (fun msg -> raise (Semantic_error msg)) fmt

let rec has_aggregate = function
  | Count_star | Count _ | Min _ | Max _ | Sum _ | Avg _ -> true
  | Col _ | Lit _ -> false

and is_aggregate_free e = not (has_aggregate e)

(* Mutual recursion: deriving the schema of a sub-query in FROM requires
   analyzing that sub-query. *)
let rec block_env catalog (b : select_block) : env =
  let bindings =
    List.map
      (function
        | Table (name, alias) -> (
            match Catalog.find catalog name with
            | None -> fail "unknown relation %s" name
            | Some rel ->
                let schema = Cqp_relal.Relation.schema rel in
                {
                  alias = Option.value alias ~default:name;
                  source = Base name;
                  columns =
                    List.map
                      (fun a -> (a.Schema.attr_name, a.Schema.attr_ty))
                      schema.Schema.attrs;
                })
        | Subquery (q, alias) ->
            { alias; source = Derived q; columns = schema_of catalog q })
      b.from
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun bd ->
      if Hashtbl.mem seen bd.alias then
        fail "duplicate alias %s in FROM" bd.alias;
      Hashtbl.add seen bd.alias ())
    bindings;
  bindings

and resolve (env : env) qualifier column =
  let column = String.lowercase_ascii column in
  match qualifier with
  | Some q -> (
      let q = String.lowercase_ascii q in
      match
        List.mapi (fun i bd -> (i, bd)) env
        |> List.find_opt (fun (_, bd) -> bd.alias = q)
      with
      | None -> fail "unknown table alias %s" q
      | Some (i, bd) -> (
          let rec find j = function
            | [] -> fail "no column %s in %s" column q
            | (name, ty) :: _ when name = column -> (i, j, ty)
            | _ :: rest -> find (j + 1) rest
          in
          match bd.columns with cols -> find 0 cols))
  | None -> (
      let hits =
        List.concat
          (List.mapi
             (fun i bd ->
               List.concat
                 (List.mapi
                    (fun j (name, ty) ->
                      if name = column then [ (i, j, ty) ] else [])
                    bd.columns))
             env)
      in
      match hits with
      | [ hit ] -> hit
      | [] -> fail "unknown column %s" column
      | _ -> fail "ambiguous column %s" column)

and expr_ty env = function
  | Col (q, name) ->
      let _, _, ty = resolve env q name in
      ty
  | Lit v -> Value.type_of v
  | Count_star -> Value.Tint
  | Count e ->
      ignore (expr_ty env e);
      Value.Tint
  | Sum e | Avg e -> (
      match expr_ty env e with
      | (Value.Tint | Value.Tfloat | Value.Tnull) -> Value.Tfloat
      | ty -> fail "sum/avg over non-numeric %s" (Value.ty_name ty))
  | Min e | Max e -> expr_ty env e

and check_predicate env p =
  let rec go = function
    | True -> ()
    | Cmp (_, l, r) ->
        let tl = expr_ty env l and tr = expr_ty env r in
        if not (Value.compatible tl tr) then
          fail "type mismatch: %s vs %s in %s" (Value.ty_name tl)
            (Value.ty_name tr)
            (* late import to avoid a cycle with Printer *)
            "comparison"
    | And (a, b) | Or (a, b) ->
        go a;
        go b
    | Not q -> go q
    | In_list (e, vs) ->
        let te = expr_ty env e in
        List.iter
          (fun v ->
            if not (Value.compatible te (Value.type_of v)) then
              fail "type mismatch in IN list")
          vs
    | Like (e, _) -> (
        match expr_ty env e with
        | Value.Tstring | Value.Tnull -> ()
        | ty -> fail "LIKE over non-string %s" (Value.ty_name ty))
    | Is_null e | Is_not_null e -> ignore (expr_ty env e)
  in
  go p

and expand_items env items =
  List.concat_map
    (function
      | Star ->
          List.concat_map
            (fun bd ->
              List.map (fun (name, _) -> Col (Some bd.alias, name)) bd.columns)
            env
      | Item (e, _) -> [ e ])
    items

and item_names env items =
  List.concat_map
    (function
      | Star ->
          List.concat_map
            (fun bd -> List.map fst bd.columns)
            env
      | Item (Col (_, name), None) -> [ name ]
      | Item (e, None) -> [ synth_name e ]
      | Item (_, Some alias) -> [ alias ])
    items

and synth_name = function
  | Col (_, name) -> name
  | Lit _ -> "literal"
  | Count_star | Count _ -> "count"
  | Min _ -> "min"
  | Max _ -> "max"
  | Sum _ -> "sum"
  | Avg _ -> "avg"

and check_block catalog b =
  if b.from = [] then fail "empty FROM clause";
  if b.items = [] then fail "empty SELECT list";
  let env = block_env catalog b in
  let exprs = expand_items env b.items in
  List.iter (fun e -> ignore (expr_ty env e)) exprs;
  (match b.where with
  | None -> ()
  | Some p ->
      let rec no_agg = function
        | True -> ()
        | Cmp (_, l, r) ->
            if has_aggregate l || has_aggregate r then
              fail "aggregate in WHERE clause"
        | And (a, c) | Or (a, c) ->
            no_agg a;
            no_agg c
        | Not q -> no_agg q
        | In_list (e, _) | Like (e, _) | Is_null e | Is_not_null e ->
            if has_aggregate e then fail "aggregate in WHERE clause"
      in
      no_agg p;
      check_predicate env p);
  List.iter
    (fun e ->
      if has_aggregate e then fail "aggregate in GROUP BY";
      ignore (expr_ty env e))
    b.group_by;
  (match b.having with
  | None -> ()
  | Some p ->
      if b.group_by = [] then fail "HAVING without GROUP BY";
      check_predicate env p);
  if b.group_by <> [] then begin
    let grouped e = List.exists (equal_expr e) b.group_by in
    List.iter
      (fun e ->
        if is_aggregate_free e && not (grouped e) then
          fail "non-grouped expression in SELECT with GROUP BY")
      exprs
  end
  else if List.exists has_aggregate exprs && List.exists is_aggregate_free exprs
  then fail "mix of aggregated and plain expressions without GROUP BY";
  let names = item_names env b.items in
  (* An unqualified ORDER BY column may name an output column (an alias
     or a synthesized name): the executor reads a key off the output
     row before it looks in FROM. *)
  List.iter
    (function
      | Col (None, c), _ when List.mem (String.lowercase_ascii c) names -> ()
      | e, _ -> ignore (expr_ty env e))
    b.order_by;
  (match b.limit with
  | Some k when k < 0 -> fail "negative LIMIT"
  | _ -> ());
  let tys = List.map (expr_ty env) exprs in
  List.combine names tys

and schema_of catalog q =
  match q with
  | Select b -> check_block catalog b
  | Union_all [] -> fail "empty UNION"
  | Union_all (first :: rest) ->
      let s0 = schema_of catalog first in
      List.iter
        (fun sub ->
          let s = schema_of catalog sub in
          if List.length s <> List.length s0 then
            fail "UNION branches differ in arity";
          List.iter2
            (fun (_, t0) (_, t) ->
              if not (Value.compatible t0 t) then
                fail "UNION branches differ in column types")
            s0 s)
        rest;
      s0

let check catalog q = ignore (schema_of catalog q)
let output_schema = schema_of

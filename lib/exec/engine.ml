open Cqp_sql.Ast
module Value = Cqp_relal.Value
module Tuple = Cqp_relal.Tuple
module Relation = Cqp_relal.Relation

exception Runtime_error = Explain.Runtime_error

type result = {
  schema : (string * Value.ty) list;
  rows : Tuple.t list;
  block_reads : int;
}

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let fail msg = raise (Runtime_error msg)

(* --- physical operators --------------------------------------------- *)

(* Full scan of a base relation: every block is charged, matching the
   paper's cost model. *)
let scan io name rel header =
  Cqp_obs.Trace.with_span ~name:"engine.scan"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.str "table" name;
        Cqp_obs.Attr.int "blocks" (Relation.blocks rel);
        Cqp_obs.Attr.int "rows" (Relation.cardinality rel);
      ])
  @@ fun () ->
  Io.charge_scan io rel;
  Rowset.make header (Relation.to_array rel)

let filter rs p = Rowset.filter rs (fun row -> Eval.predicate rs row p)

(* Cross product into one exactly-sized output array: no nested
   intermediate lists. *)
let cartesian a b =
  let cols = Rowset.product_cols a b in
  let ra = a.Rowset.rows and rb = b.Rowset.rows in
  let na = Array.length ra and nb = Array.length rb in
  let rows = Array.make (na * nb) [||] in
  for i = 0 to na - 1 do
    let left = ra.(i) in
    let base = i * nb in
    for j = 0 to nb - 1 do
      rows.(base + j) <- Tuple.concat left rb.(j)
    done
  done;
  Rowset.make cols rows

(* Hash join on the given equi-key column index pairs
   [(left_idx, right_idx)].  NULL keys never match.  Keys are built
   straight into an array ([Array.map] over an int-array of column
   indexes) — one allocation per probed row, no intermediate list —
   and matches append into a row builder instead of concatenated
   per-probe lists. *)
let hash_join a b keys =
  let cols = Rowset.product_cols a b in
  let left_idxs = Array.of_list (List.map fst keys)
  and right_idxs = Array.of_list (List.map snd keys) in
  let key_of row idxs = Array.map (fun i -> row.(i)) idxs in
  let table = Tuple_tbl.create (max 16 (Rowset.cardinality b)) in
  Array.iter
    (fun rb ->
      let k = key_of rb right_idxs in
      if not (Array.exists Value.is_null k) then
        match Tuple_tbl.find_opt table k with
        | Some bucket -> bucket := rb :: !bucket
        | None -> Tuple_tbl.add table k (ref [ rb ]))
    b.Rowset.rows;
  (* Buckets accumulate newest-first; one flip restores [b]'s storage
     order for every probe. *)
  Tuple_tbl.iter (fun _ bucket -> bucket := List.rev !bucket) table;
  let out = Rowset.Builder.create ~hint:(Array.length a.Rowset.rows) () in
  Array.iter
    (fun ra ->
      let k = key_of ra left_idxs in
      if not (Array.exists Value.is_null k) then
        match Tuple_tbl.find_opt table k with
        | Some bucket ->
            List.iter
              (fun rb -> Rowset.Builder.add out (Tuple.concat ra rb))
              !bucket
        | None -> ())
    a.Rowset.rows;
  Rowset.make cols (Rowset.Builder.contents out)

(* --- aggregation ----------------------------------------------------- *)

let numeric_fold f init rows eval_arg =
  let acc = ref init and seen = ref false in
  List.iter
    (fun row ->
      match Value.to_float (eval_arg row) with
      | Some x ->
          acc := f !acc x;
          seen := true
      | None -> ())
    rows;
  if !seen then Some !acc else None

(* Evaluate an expression in group context: [rows] are the group
   members, [rep] a representative row for aggregate-free parts. *)
let rec eval_group rs rows rep e =
  match e with
  | Col _ | Lit _ -> Eval.scalar rs rep e
  | Count_star -> Value.Int (List.length rows)
  | Count arg ->
      let n =
        List.length
          (List.filter
             (fun row -> not (Value.is_null (eval_group rs rows row arg)))
             rows)
      in
      Value.Int n
  | Sum arg -> (
      match
        numeric_fold ( +. ) 0. rows (fun row ->
            eval_group rs rows row arg)
      with
      | Some s -> Value.Float s
      | None -> Value.Null)
  | Avg arg -> (
      let vals =
        List.filter_map
          (fun row -> Value.to_float (eval_group rs rows row arg))
          rows
      in
      match vals with
      | [] -> Value.Null
      | _ ->
          Value.Float
            (List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)))
  | Min arg ->
      List.fold_left
        (fun best row ->
          let v = eval_group rs rows row arg in
          if Value.is_null v then best
          else
            match best with
            | Value.Null -> v
            | b -> if Value.compare v b < 0 then v else b)
        Value.Null rows
  | Max arg ->
      List.fold_left
        (fun best row ->
          let v = eval_group rs rows row arg in
          if Value.is_null v then best
          else
            match best with
            | Value.Null -> v
            | b -> if Value.compare v b > 0 then v else b)
        Value.Null rows

let eval_group_pred rs rows rep p =
  let rec go = function
    | True -> Some true
    | Cmp (op, l, r) ->
        Eval.compare_values op (eval_group rs rows rep l)
          (eval_group rs rows rep r)
    | And (a, b) -> (
        match go a, go b with
        | Some false, _ | _, Some false -> Some false
        | Some true, Some true -> Some true
        | _ -> None)
    | Or (a, b) -> (
        match go a, go b with
        | Some true, _ | _, Some true -> Some true
        | Some false, Some false -> Some false
        | _ -> None)
    | Not q -> Option.map not (go q)
    | In_list (e, vs) ->
        let v = eval_group rs rows rep e in
        if Value.is_null v then None
        else Some (List.exists (fun x -> Value.equal v x) vs)
    | Like (e, pat) -> (
        match eval_group rs rows rep e with
        | Value.Null -> None
        | v -> Some (Eval.like_match ~pattern:pat (Value.to_string v)))
    | Is_null e -> Some (Value.is_null (eval_group rs rows rep e))
    | Is_not_null e ->
        Some (not (Value.is_null (eval_group rs rows rep e)))
  in
  go p = Some true

(* --- plan interpretation --------------------------------------------- *)

let rec exec_plan io : Explain.t -> Rowset.t = function
  | Plan_select b -> exec_block io b
  | Plan_union [] -> fail "empty UNION"
  | Plan_union (first :: rest) ->
      List.fold_left
        (fun acc sub -> Rowset.append acc (exec_plan io sub))
        (exec_plan io first) rest

(* A source's rows under its plan header, with its pushed-down
   conjuncts applied. *)
and load io (s : Explain.source_plan) =
  let rows =
    match s.input with
    | Base (name, rel) -> scan io name rel s.header
    | Derived sub -> Rowset.make s.header (exec_plan io sub).Rowset.rows
  in
  List.fold_left filter rows s.pushed_down

and exec_block io (b : Explain.block_plan) : Rowset.t =
  (* 1. Sources, each filtered by its pushed-down conjuncts. *)
  let sources = List.map (load io) b.sources in
  (* 2. Left-deep joins, each followed by its post-join filters. *)
  let joined =
    match sources with
    | [] -> fail "empty FROM"
    | first :: rest ->
        List.fold_left2
          (fun acc rs (j : Explain.join_step) ->
            let joined =
              match j.method_ with
              | `Cartesian ->
                  Cqp_obs.Trace.with_span ~name:"engine.cartesian"
                    ~attrs:(fun () ->
                      [
                        Cqp_obs.Attr.int "left_rows" (Rowset.cardinality acc);
                        Cqp_obs.Attr.int "right_rows" (Rowset.cardinality rs);
                      ])
                    (fun () -> cartesian acc rs)
              | `Hash keys ->
                  Cqp_obs.Trace.with_span ~name:"engine.hash_join"
                    ~attrs:(fun () ->
                      [
                        Cqp_obs.Attr.int "keys" (List.length keys);
                        Cqp_obs.Attr.int "left_rows" (Rowset.cardinality acc);
                        Cqp_obs.Attr.int "right_rows" (Rowset.cardinality rs);
                      ])
                    (fun () -> hash_join acc rs (List.map snd keys))
            in
            List.fold_left filter joined j.post_filters)
          first rest b.joins
  in
  (* 3. Residual filters. *)
  let filtered = List.fold_left filter joined b.residual in
  (* 4. Projection / aggregation.  Each output row is paired with its
     ORDER BY key values, evaluated while the pre-projection context is
     still available (SQL permits ordering by non-output columns). *)
  let out_rs_empty = Rowset.make b.cols [||] in
  let order_keys_of out_row eval_in_context =
    List.map
      (fun (e, _) ->
        match Eval.scalar out_rs_empty out_row e with
        | v -> v
        | exception Eval.Eval_error _ -> (
            match eval_in_context e with
            | v -> v
            | exception Eval.Eval_error _ -> Value.Null))
      b.order_by
  in
  let projected =
    match b.aggregate with
    | None ->
        Array.map
          (fun row ->
            let out_row =
              Array.of_list
                (List.map (fun e -> Eval.scalar filtered row e) b.outputs)
            in
            (out_row, order_keys_of out_row (Eval.scalar filtered row)))
          filtered.Rowset.rows
    | Some (group_by, having) ->
        Cqp_obs.Trace.with_span ~name:"engine.aggregate"
          ~attrs:(fun () ->
            [
              Cqp_obs.Attr.int "input_rows" (Rowset.cardinality filtered);
              Cqp_obs.Attr.int "group_by" (List.length group_by);
            ])
        @@ fun () ->
        let groups = Tuple_tbl.create 64 in
        let order = ref [] in
        Array.iter
          (fun row ->
            let key =
              Array.of_list
                (List.map (fun e -> Eval.scalar filtered row e) group_by)
            in
            match Tuple_tbl.find_opt groups key with
            | Some rows_ref -> rows_ref := row :: !rows_ref
            | None ->
                Tuple_tbl.add groups key (ref [ row ]);
                order := key :: !order)
          filtered.Rowset.rows;
        (* no GROUP BY: one implicit group, even over an empty input *)
        let keys = if group_by = [] then [ [||] ] else List.rev !order in
        let group_rows key =
          if group_by = [] then Rowset.to_list filtered
          else
            match Tuple_tbl.find_opt groups key with
            | Some r -> List.rev !r
            | None -> []
        in
        let rows =
          List.filter_map
            (fun key ->
              let rows = group_rows key in
              let rep =
                match rows with
                | r :: _ -> r
                | [] -> Array.make (Rowset.arity filtered) Value.Null
              in
              let keep =
                match having with
                | None -> true
                | Some p -> eval_group_pred filtered rows rep p
              in
              if keep then begin
                let out_row =
                  Array.of_list
                    (List.map (fun e -> eval_group filtered rows rep e) b.outputs)
                in
                Some
                  (out_row, order_keys_of out_row (eval_group filtered rows rep))
              end
              else None)
            keys
        in
        Array.of_list rows
  in
  (* 5. DISTINCT (on output rows only, keeping the first occurrence). *)
  let deduped =
    if not b.distinct then projected
    else begin
      let seen = Tuple_tbl.create 64 in
      (* mark left-to-right so the first occurrence wins, then pack *)
      let keep = Array.map (fun (row, _) ->
          if Tuple_tbl.mem seen row then false
          else begin
            Tuple_tbl.add seen row ();
            true
          end)
          projected
      in
      let n = Array.fold_left (fun n k -> if k then n + 1 else n) 0 keep in
      let out = Array.make n ([||], []) in
      let j = ref 0 in
      Array.iteri
        (fun i pair ->
          if keep.(i) then begin
            out.(!j) <- pair;
            incr j
          end)
        projected;
      out
    end
  in
  (* 6. ORDER BY on the precomputed keys. *)
  let ordered =
    if b.order_by = [] then deduped
    else
      Cqp_obs.Trace.with_span ~name:"engine.sort"
        ~attrs:(fun () ->
          [ Cqp_obs.Attr.int "rows" (Array.length deduped) ])
    @@ fun () ->
    begin
      let dirs = List.map snd b.order_by in
      let cmp (_, k1) (_, k2) =
        let rec go dirs k1 k2 =
          match dirs, k1, k2 with
          | dir :: dirs, v1 :: k1, v2 :: k2 ->
              let c = Value.compare v1 v2 in
              let c = match dir with Asc -> c | Desc -> -c in
              if c <> 0 then c else go dirs k1 k2
          | _ -> 0
        in
        go dirs k1 k2
      in
      (* deduped is always a fresh array here, safe to sort in place *)
      let sorted = Array.copy deduped in
      Array.stable_sort cmp sorted;
      sorted
    end
  in
  (* 7. LIMIT. *)
  let limited =
    match b.limit with
    | None -> ordered
    | Some k -> Array.sub ordered 0 (max 0 (min k (Array.length ordered)))
  in
  Rowset.make b.cols (Array.map fst limited)

(* --- public API ------------------------------------------------------ *)

let execute_rowset ?io catalog q =
  let io = match io with Some io -> io | None -> Io.create () in
  Cqp_obs.Trace.with_span ~name:"engine.execute" (fun () ->
      let rs = exec_plan io (Explain.explain catalog q) in
      Cqp_obs.Trace.add_attr
        (Cqp_obs.Attr.int "block_reads" (Io.block_reads io));
      rs)

let execute ?io catalog q =
  let counter = Io.create () in
  let rs =
    Cqp_obs.Trace.with_span ~name:"engine.execute" (fun () ->
        let rs = exec_plan counter (Explain.explain catalog q) in
        Cqp_obs.Trace.add_attr
          (Cqp_obs.Attr.int "block_reads" (Io.block_reads counter));
        Cqp_obs.Trace.add_attr
          (Cqp_obs.Attr.int "rows" (Rowset.cardinality rs));
        rs)
  in
  (match io with
  | Some outer -> Io.charge_blocks outer (Io.block_reads counter)
  | None -> ());
  let schema =
    try Cqp_sql.Analyzer.output_schema catalog q
    with Cqp_sql.Analyzer.Semantic_error _ ->
      List.map (fun c -> (c.Rowset.name, Value.Tnull)) rs.Rowset.cols
  in
  { schema; rows = Rowset.to_list rs; block_reads = Io.block_reads counter }

let real_cost_ms ?(block_ms = Io.default_block_ms) catalog q =
  let r = execute catalog q in
  float_of_int r.block_reads *. block_ms

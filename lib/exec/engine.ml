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

(* Tuples as hash keys under [Value.equal]; equality walks the cells
   without allocating. *)
module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && Value.equal a.(!i) b.(!i) do
      incr i
    done;
    !i = n

  let hash = Tuple.hash
end)

module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let fail msg = raise (Runtime_error msg)

(* --- row-id batches ---------------------------------------------------- *)

(* Growable int array, for batch positions whose count is not known up
   front. *)
module Positions = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.data 0 b.len
end

(* The rows of a join prefix as row ids: row [i] of [len] combines, for
   each slot [k], row [ids.(k).(i)] of [rows.(k)] ([All]: row [i]
   itself, a source no filter or join has narrowed).  Slot [k] holds
   the block's source [srcs.(k)], by its position in the FROM list;
   slots follow the join order.  Filters and joins only move ids;
   projection builds the output tuples. *)
type ids = All | Ids of int array

type batch = {
  srcs : int array;
  rows : Tuple.t array array;
  ids : ids array;
  len : int;
}

(* A source's rows after its pushed-down conjuncts, as a one-slot
   batch of source 0, with the hash tables built on its columns so far:
   per column, a table mapping each key to its first row and an array
   chaining each row to the next one with the same key. *)
type load = {
  batch : batch;
  mutable tables : (int * (int ref Value_tbl.t * int array)) list;
}

(* The concatenated headers of a block's sources: position [p] is
   column [at.(p)] as a (source, column) pair. *)
type layout = { header : Rowset.col list; at : (int * int) array }

let layout headers =
  {
    header = List.concat headers;
    at =
      Array.concat
        (List.mapi
           (fun s cols -> Array.of_list (List.mapi (fun c _ -> (s, c)) cols))
           headers);
  }

(* Column [c] of source [s], read through the row ids. *)
let column b (s, c) =
  let rec slot k = if b.srcs.(k) = s then k else slot (k + 1) in
  let k = slot 0 in
  let rows = b.rows.(k) in
  match b.ids.(k) with
  | All -> fun i -> rows.(i).(c)
  | Ids ids -> fun i -> rows.(ids.(i)).(c)

(* A column reference resolves once, against the layout's header. *)
let scope l b : int Eval.scope =
 fun q name -> column b l.at.(Rowset.find_col l.header q name)

(* The rows at [positions], in that order. *)
let pick b positions =
  {
    b with
    ids =
      Array.map
        (function
          | All -> Ids positions
          | Ids ids -> Ids (Array.map (fun i -> ids.(i)) positions))
        b.ids;
    len = Array.length positions;
  }

let filter l b p =
  let keep = Eval.predicate (Eval.scalar (scope l b)) p in
  let kept = Positions.create () in
  for i = 0 to b.len - 1 do
    if keep i then Positions.add kept i
  done;
  if kept.len = b.len then b else pick b (Positions.contents kept)

(* [acc] joined with source [s], loaded as [r]: output row [x] pairs
   [acc]'s row [left.(x)] with [r]'s row [right.(x)]. *)
let extend acc s r left right =
  {
    srcs = Array.append acc.srcs [| s |];
    rows = Array.append acc.rows r.rows;
    ids = Array.append (pick acc left).ids (pick r right).ids;
    len = Array.length left;
  }

(* The rows in the order a nested loop over the sources in FROM order
   emits them: by row id, source by source.  Joins that start from a
   source in storage order often emit that order already. *)
let in_from_order b =
  let n = Array.length b.srcs in
  let rec from_order k = k = n || (b.srcs.(k) = k && from_order (k + 1)) in
  if from_order 0 then b
  else begin
    let id = Array.make n [||] in
    Array.iteri
      (fun k s ->
        id.(s) <-
          (match b.ids.(k) with
          | Ids ids -> ids
          | All -> Array.init b.len Fun.id))
      b.srcs;
    let rec cmp s x y =
      if s = n then 0
      else
        let ids = id.(s) in
        let c = Int.compare ids.(x) ids.(y) in
        if c <> 0 then c else cmp (s + 1) x y
    in
    let rec sorted i =
      i + 1 >= b.len || (cmp 0 i (i + 1) < 0 && sorted (i + 1))
    in
    if sorted 0 then b
    else begin
      let order = Array.init b.len Fun.id in
      Array.sort (cmp 0) order;
      pick b order
    end
  end

(* --- physical operators --------------------------------------------- *)

(* Full scan of a base relation: every block is charged, matching the
   paper's cost model. *)
let scan io name rel =
  Cqp_obs.Trace.with_span ~name:"engine.scan"
    ~attrs:(fun () ->
      [
        Cqp_obs.Attr.str "table" name;
        Cqp_obs.Attr.int "blocks" (Relation.blocks rel);
        Cqp_obs.Attr.int "rows" (Relation.cardinality rel);
      ])
  @@ fun () -> Io.charge_scan io rel

let cartesian acc s r =
  let na = acc.len and nb = r.len in
  extend acc s r
    (Array.init (na * nb) (fun x -> x / nb))
    (Array.init (na * nb) (fun x -> x mod nb))

(* Hash join of [acc] with source [s], loaded as [r], on (accumulated
   column, column of [r]) keys.  It probes in [acc]'s order and emits
   each probe's matches in [r]'s order, so rows come out as a nested
   loop would produce them.  The table, on [r]'s first key column, is
   built once per load; a match must agree on the other keys too.
   NULL keys never match. *)
let hash_join acc s (r : load) keys =
  let left = Array.of_list (List.map (fun (p, _) -> column acc p) keys)
  and right =
    Array.of_list (List.map (fun (_, c) -> column r.batch (0, c)) keys)
  in
  let n_keys = Array.length left in
  let rec agree i j c =
    c = n_keys || (Value.equal (left.(c) i) (right.(c) j) && agree i j (c + 1))
  in
  let c = snd (List.hd keys) in
  let first, next =
    match List.assoc_opt c r.tables with
    | Some table -> table
    | None ->
        let nb = r.batch.len in
        let first = Value_tbl.create (max 16 nb)
        and next = Array.make nb (-1) in
        for j = nb - 1 downto 0 do
          let k = right.(0) j in
          if not (Value.is_null k) then
            match Value_tbl.find first k with
            | head ->
                next.(j) <- !head;
                head := j
            | exception Not_found -> Value_tbl.add first k (ref j)
        done;
        r.tables <- (c, (first, next)) :: r.tables;
        (first, next)
  in
  let rec no_null i c =
    c = n_keys || ((not (Value.is_null (left.(c) i))) && no_null i (c + 1))
  in
  let lpos = Positions.create () and rpos = Positions.create () in
  for i = 0 to acc.len - 1 do
    if no_null i 0 then
      match Value_tbl.find first (left.(0) i) with
      | head ->
          let j = ref !head in
          while !j >= 0 do
            if agree i !j 1 then begin
              Positions.add lpos i;
              Positions.add rpos !j
            end;
            j := next.(!j)
          done
      | exception Not_found -> ()
  done;
  extend acc s r.batch (Positions.contents lpos) (Positions.contents rpos)

(* --- plan interpretation --------------------------------------------- *)

(* The base-source loads of one execution, by relation, alias and
   pushed-down conjuncts: every branch of a union that reads the same
   source shares its filtered rows and hash tables, and still pays for
   its own scan. *)
type shared = ((string * string * predicate list) * load) list ref

let rec exec_plan io (shared : shared) : Explain.t -> Rowset.t = function
  | Plan_select b -> exec_block io shared b
  | Plan_union [] -> fail "empty UNION"
  | Plan_union plans -> Rowset.concat (List.map (exec_plan io shared) plans)

(* A source's rows with its pushed-down conjuncts applied. *)
and load io shared (s : Explain.source_plan) =
  let filtered rows =
    let one =
      { srcs = [| 0 |]; rows = [| rows |]; ids = [| All |]; len = Array.length rows }
    in
    {
      batch = List.fold_left (filter (layout [ s.header ])) one s.pushed_down;
      tables = [];
    }
  in
  match s.input with
  | Derived sub -> filtered (exec_plan io shared sub).Rowset.rows
  | Base (name, rel) -> (
      scan io name rel;
      let key = (name, s.label, s.pushed_down) in
      match List.assoc_opt key !shared with
      | Some l -> l
      | None ->
          let l = filtered (Relation.to_array rel) in
          shared := (key, l) :: !shared;
          l)

and exec_block io shared (b : Explain.block_plan) : Rowset.t =
  let l =
    layout (List.map (fun (s : Explain.source_plan) -> s.header) b.sources)
  in
  (* 1. Sources, each filtered by its pushed-down conjuncts. *)
  let loads = Array.of_list (List.map (load io shared) b.sources) in
  (* 2. Joins in the plan's order, each followed by its post-join
     filters; then the rows in FROM order. *)
  let joined =
    List.fold_left
      (fun acc (j : Explain.join_step) ->
        let s = j.with_source in
        let r = loads.(s) in
        let joined =
          match j.method_ with
          | `Cartesian ->
              Cqp_obs.Trace.with_span ~name:"engine.cartesian"
                ~attrs:(fun () ->
                  [
                    Cqp_obs.Attr.int "left_rows" acc.len;
                    Cqp_obs.Attr.int "right_rows" r.batch.len;
                  ])
                (fun () -> cartesian acc s r.batch)
          | `Hash keys ->
              Cqp_obs.Trace.with_span ~name:"engine.hash_join"
                ~attrs:(fun () ->
                  [
                    Cqp_obs.Attr.int "keys" (List.length keys);
                    Cqp_obs.Attr.int "left_rows" acc.len;
                    Cqp_obs.Attr.int "right_rows" r.batch.len;
                  ])
                (fun () ->
                  hash_join acc s r
                    (List.map
                       (fun (_, (p, q)) -> (l.at.(p), snd l.at.(q)))
                       keys))
        in
        List.fold_left (filter l) joined j.post_filters)
      { (loads.(b.first).batch) with srcs = [| b.first |] }
      b.joins
    |> in_from_order
  in
  (* 3. Residual filters. *)
  let filtered = List.fold_left (filter l) joined b.residual in
  let ctx = scope l filtered and n = filtered.len in
  (* 4. Projection / aggregation.  Each output row is paired with its
     ORDER BY key values: a key reads the output row, or else the
     pre-projection context (SQL permits ordering by non-output
     columns), or else is NULL. *)
  let order_keys in_context =
    let keys =
      List.map
        (fun (e, _) ->
          let on_output = Eval.scalar (Eval.tuple_scope b.cols) e
          and in_context = in_context e in
          fun out_row c ->
            match on_output out_row with
            | v -> v
            | exception Eval.Eval_error _ -> (
                match in_context c with
                | v -> v
                | exception Eval.Eval_error _ -> Value.Null))
        b.order_by
    in
    fun out_row c -> List.map (fun key -> key out_row c) keys
  in
  let projected =
    match b.aggregate with
    | None ->
        let outputs = Array.of_list (List.map (Eval.scalar ctx) b.outputs) in
        let keys = order_keys (Eval.scalar ctx) in
        Array.init n (fun i ->
            let out_row = Array.map (fun f -> f i) outputs in
            (out_row, keys out_row i))
    | Some (group_by, having) ->
        Cqp_obs.Trace.with_span ~name:"engine.aggregate"
          ~attrs:(fun () ->
            [
              Cqp_obs.Attr.int "input_rows" n;
              Cqp_obs.Attr.int "group_by" (List.length group_by);
            ])
        @@ fun () ->
        (* Each group's member positions, groups in first-seen order. *)
        let groups =
          if group_by = [] then
            (* one implicit group, even over an empty input *)
            [ Array.init n Fun.id ]
          else begin
            let key_of = Array.of_list (List.map (Eval.scalar ctx) group_by) in
            let table = Tuple_tbl.create 64 and order = ref [] in
            for i = 0 to n - 1 do
              let key = Array.map (fun f -> f i) key_of in
              match Tuple_tbl.find_opt table key with
              | Some members -> members := i :: !members
              | None ->
                  let members = ref [ i ] in
                  Tuple_tbl.add table key members;
                  order := members :: !order
            done;
            List.rev_map (fun members -> Array.of_list (List.rev !members)) !order
          end
        in
        let in_group e =
          let g = Eval.grouped ctx e in
          fun (members, rep) -> g members rep
        in
        let keep = Option.map (Eval.predicate in_group) having in
        let outputs = Array.of_list (List.map (Eval.grouped ctx) b.outputs) in
        let keys = order_keys in_group in
        List.filter_map
          (fun members ->
            let rep = if Array.length members = 0 then None else Some members.(0) in
            let kept = match keep with None -> true | Some p -> p (members, rep) in
            if kept then
              let out_row = Array.map (fun f -> f members rep) outputs in
              Some (out_row, keys out_row (members, rep))
            else None)
          groups
        |> Array.of_list
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

(* [execute] builds on this, so both entry points share one
   [engine.execute] span, which is the serve path's [Exec] phase. *)
let execute_rowset ?(io = Io.create ()) catalog q =
  Cqp_obs.Trace.with_span ~name:"engine.execute" ~phase:Cqp_obs.Phase.Exec
    (fun () ->
      let rs = exec_plan io (ref []) (Explain.explain catalog q) in
      Cqp_obs.Trace.add_attr
        (Cqp_obs.Attr.int "block_reads" (Io.block_reads io));
      Cqp_obs.Trace.add_attr (Cqp_obs.Attr.int "rows" (Rowset.cardinality rs));
      rs)

let execute ?io catalog q =
  let counter = Io.create () in
  let rs = execute_rowset ~io:counter catalog q in
  Option.iter
    (fun outer -> Io.charge_blocks outer (Io.block_reads counter))
    io;
  let schema =
    try Cqp_sql.Analyzer.output_schema catalog q
    with Cqp_sql.Analyzer.Semantic_error _ ->
      List.map (fun c -> (c.Rowset.name, Value.Tnull)) rs.Rowset.cols
  in
  { schema; rows = Rowset.to_list rs; block_reads = Io.block_reads counter }

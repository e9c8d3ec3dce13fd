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
   slots follow the join order.  [vectors.(k)] holds a base source's
   typed columns ({!Relation.vector}), indexed like its rows, and is
   empty for a derived table.  Filters and joins only move ids;
   projection builds the output tuples. *)
type ids = All | Ids of int array

type batch = {
  srcs : int array;
  rows : Tuple.t array array;
  vectors : Relation.vector array array;
  ids : ids array;
  len : int;
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

(* The slot holding source [s]. *)
let slot b s =
  let rec find k = if b.srcs.(k) = s then k else find (k + 1) in
  find 0

(* Column [c] of source [s], read through the row ids. *)
let column b (s, c) =
  let k = slot b s in
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

(* Column [c] of slot [k]'s source as a typed vector, [Boxed] when it
   has none. *)
let vector b k c =
  let vs = b.vectors.(k) in
  if c < Array.length vs then vs.(c) else Relation.Boxed

(* Slot [k]'s row ids, and whether they are all of its rows in order
   (then the array is empty and row [i] is the source's row [i]). *)
let row_ids b k =
  match b.ids.(k) with All -> (true, [||]) | Ids ids -> (false, ids)

(* The rows [i] of [n] whose cell [a.(at i)] compares with [v] by [op],
   into [kept]; [at i] is [i] when [all], else [ids.(i)].  One loop per
   operator. *)
let keep_ints kept (all, ids) n (a : int array) op (v : int) =
  let[@inline] x i = if all then a.(i) else a.(ids.(i)) in
  let add = Positions.add kept in
  match op with
  | Eq -> for i = 0 to n - 1 do if x i = v then add i done
  | Neq -> for i = 0 to n - 1 do if x i <> v then add i done
  | Lt -> for i = 0 to n - 1 do if x i < v then add i done
  | Le -> for i = 0 to n - 1 do if x i <= v then add i done
  | Gt -> for i = 0 to n - 1 do if x i > v then add i done
  | Ge -> for i = 0 to n - 1 do if x i >= v then add i done

(* The same for [op] = [Eq] or [Neq] over a [String] column's codes:
   one dictionary lookup, then an int compare per row. *)
let keep_strings kept at n codes d op v =
  match op, Relation.find_code d v with
  | Eq, -1 -> ()
  | Neq, -1 -> for i = 0 to n - 1 do Positions.add kept i done
  | _, code -> keep_ints kept at n codes op code

let count name =
  if Cqp_obs.Metrics.is_enabled () then Cqp_obs.Metrics.incr name

(* When [p] compares a column with a literal: the column's slot and
   position, the operator with the column on its left, and the
   literal. *)
let literal_test l b p =
  let on q name op v =
    match Rowset.lookup l.header q name with
    | Found p ->
        let s, c = l.at.(p) in
        Some (slot b s, c, op, v)
    | Missing | Ambiguous -> None
  in
  match p with
  | Cmp (op, Col (q, name), Lit v) -> on q name op v
  | Cmp (op, Lit v, Col (q, name)) -> on q name (mirror op) v
  | _ -> None

(* The rows of [b] that [p] keeps.  A column compared with a literal is
   one loop over the column, through the slot's row ids: over its
   vector when the literal has the vector's type (a [String] only for
   [=] and [<>]), else over the boxed cells, where NULL and cross-type
   values follow [Value.compare] as [Eval] does, so a NULL cell or
   literal keeps nothing.  [Eval] compiles every other predicate. *)
let filter l b p =
  let kept = Positions.create () in
  (match literal_test l b p with
  | Some (k, c, op, v) -> (
      let ((all, ids) as at) = row_ids b k in
      match vector b k c, op, v with
      | Ints a, _, Int v ->
          count "engine.filters.typed";
          keep_ints kept at b.len a op v
      | Strings (codes, d), (Eq | Neq), String v ->
          count "engine.filters.typed";
          keep_strings kept at b.len codes d op v
      | _, _, v ->
          let rows = b.rows.(k) in
          if not (Value.is_null v) then
            for i = 0 to b.len - 1 do
              let x = rows.(if all then i else ids.(i)).(c) in
              if (not (Value.is_null x)) && Eval.holds op x v then
                Positions.add kept i
            done)
  | None ->
      let keep = Eval.predicate (Eval.scalar (scope l b)) p in
      for i = 0 to b.len - 1 do
        if keep i then Positions.add kept i
      done);
  if kept.len = b.len then b else pick b (Positions.contents kept)

(* [acc] joined with source [s], loaded as [r]: output row [x] pairs
   [acc]'s row [left.(x)] with [r]'s row [right.(x)]. *)
let extend acc s r left right =
  {
    srcs = Array.append acc.srcs [| s |];
    rows = Array.append acc.rows r.rows;
    vectors = Array.append acc.vectors r.vectors;
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

(* --- the row-id hash index --------------------------------------------- *)

(* Row [i]'s key is [keys.(0) i, keys.(1) i, ...]: keys stay in the rows,
   read through column accessors, so hashing and comparing them
   allocates nothing.  [agree left right i j c]: row [i]'s key cells
   from [c] on, read by [left], equal row [j]'s, read by [right]. *)
let rec agree left right i j c =
  c = Array.length left
  || (Value.equal (left.(c) i) (right.(c) j) && agree left right i j (c + 1))

let hash_key keys i =
  let h = ref 17 in
  for c = 0 to Array.length keys - 1 do
    h := (!h * 1000003) lxor Value.hash (keys.(c) i)
  done;
  !h

(* A hash index over row positions [0, n) in two int arrays:
   [head.(b)] is the first row of bucket [b]'s chain (-1 when empty) and
   [next.(i)] the row after [i] in its chain.  A chain holds every row
   added under a hash in that bucket, so a probe compares keys as it
   walks.  The hash join, DISTINCT and GROUP BY all build on it. *)
type index = { head : int array; next : int array }

let index n =
  let rec size s = if s >= n then s else size (2 * s) in
  { head = Array.make (size 16) (-1); next = Array.make n (-1) }

let bucket t h = h land (Array.length t.head - 1)

(* Row [i] goes first in its bucket's chain. *)
let add t h i =
  let b = bucket t h in
  t.next.(i) <- t.head.(b);
  t.head.(b) <- i

(* For each row [i] of [n], the first row whose key equals [i]'s ([i]
   itself when there is none before it).  Only first rows enter the
   index. *)
let first_rows keys n =
  let t = index n and first = Array.make n 0 in
  for i = 0 to n - 1 do
    let h = hash_key keys i in
    let j = ref t.head.(bucket t h) in
    while !j >= 0 && not (agree keys keys i !j 0) do
      j := t.next.(!j)
    done;
    if !j >= 0 then first.(i) <- !j
    else begin
      add t h i;
      first.(i) <- i
    end
  done;
  first

(* The rows [first] groups together, as member positions in order;
   groups in first-seen order.  A counting sort over int arrays: no
   young group is stored into an old array, which would promote it. *)
let groups first =
  let n = Array.length first in
  let group = Array.make n 0 and count = ref 0 in
  for i = 0 to n - 1 do
    if first.(i) = i then begin
      group.(i) <- !count;
      incr count
    end
    else group.(i) <- group.(first.(i))
  done;
  let start = Array.make (!count + 1) 0 in
  Array.iter (fun g -> start.(g + 1) <- start.(g + 1) + 1) group;
  for g = 1 to !count do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let sorted = Array.make n 0 and fill = Array.sub start 0 !count in
  Array.iteri
    (fun i g ->
      sorted.(fill.(g)) <- i;
      fill.(g) <- fill.(g) + 1)
    group;
  List.init !count (fun g -> Array.sub sorted start.(g) (start.(g + 1) - start.(g)))

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

(* A source's rows after its pushed-down conjuncts, as a one-slot
   batch of source 0, with the hash indexes built on its columns so
   far (see [hash_join]). *)
type load = { batch : batch; mutable indexes : (int * index) list }

let rec no_null keys i c =
  c = Array.length keys
  || ((not (Value.is_null (keys.(c) i))) && no_null keys i (c + 1))

(* Hash join of [acc] with source [s], loaded as [r], on (accumulated
   column, column of [r]) keys.  It probes in [acc]'s order and emits
   each probe's matches in [r]'s order, so rows come out as a nested
   loop would produce them.  The index, on [r]'s first key column, is
   built once per load, in reverse so that each chain runs in [r]'s
   order; a match must agree on every key.  NULL keys never match.

   On one key whose columns both have [Int] vectors, the ints are
   hashed by [Value.hash_int] and compared in place; an index is the
   same whichever path built it, since [hash_int x = hash (Int x)] and
   an [Int] vector holds no NULL. *)
let hash_join acc s (r : load) keys =
  count "engine.joins.hash";
  let c = snd (List.hd keys) in
  let typed =
    match keys with
    | [ ((s', c'), _) ] -> (
        let k = slot acc s' in
        match vector acc k c', vector r.batch 0 c with
        | Ints a, Ints b -> Some (row_ids acc k, a, row_ids r.batch 0, b)
        | _ -> None)
    | _ -> None
  in
  let left = Array.of_list (List.map (fun (p, _) -> column acc p) keys)
  and right =
    Array.of_list (List.map (fun (_, c) -> column r.batch (0, c)) keys)
  in
  let t =
    match List.assoc_opt c r.indexes with
    | Some t -> t
    | None ->
        let t = index r.batch.len in
        (match typed with
        | Some (_, _, (all, ids), b) ->
            for j = r.batch.len - 1 downto 0 do
              add t (Value.hash_int b.(if all then j else ids.(j))) j
            done
        | None ->
            for j = r.batch.len - 1 downto 0 do
              let k = right.(0) j in
              if not (Value.is_null k) then add t (Value.hash k) j
            done);
        r.indexes <- (c, t) :: r.indexes;
        t
  in
  let lpos = Positions.create () and rpos = Positions.create () in
  (match typed with
  | Some ((lall, lids), a, (rall, rids), b) ->
      count "engine.joins.typed";
      for i = 0 to acc.len - 1 do
        let x = a.(if lall then i else lids.(i)) in
        let j = ref t.head.(bucket t (Value.hash_int x)) in
        while !j >= 0 do
          if b.(if rall then !j else rids.(!j)) = x then begin
            Positions.add lpos i;
            Positions.add rpos !j
          end;
          j := t.next.(!j)
        done
      done
  | None ->
      for i = 0 to acc.len - 1 do
        if no_null left i 0 then begin
          let j = ref t.head.(bucket t (Value.hash (left.(0) i))) in
          while !j >= 0 do
            if agree left right i !j 0 then begin
              Positions.add lpos i;
              Positions.add rpos !j
            end;
            j := t.next.(!j)
          done
        end
      done);
  extend acc s r.batch (Positions.contents lpos) (Positions.contents rpos)

(* --- plan interpretation --------------------------------------------- *)

(* The base-source loads of one execution, by relation, alias and
   pushed-down conjuncts: every branch of a union that reads the same
   source shares its filtered rows and hash indexes, and still pays for
   its own scan. *)
type shared = ((string * string * predicate list) * load) list ref

(* Source [s]'s rows [rows] ([len] of them), with its typed columns
   [vectors], after its pushed-down conjuncts. *)
let filtered (s : Explain.source_plan) ?(vectors = [||]) rows len =
  let one =
    {
      srcs = [| 0 |];
      rows = [| rows |];
      vectors = [| vectors |];
      ids = [| All |];
      len;
    }
  in
  {
    batch = List.fold_left (filter (layout [ s.header ])) one s.pushed_down;
    indexes = [];
  }

(* Every scan of a plan that does not run: its base sources, derived
   tables' included, are charged as if it did. *)
let rec charge io = function
  | Explain.Plan_union plans -> List.iter (charge io) plans
  | Plan_select b ->
      List.iter
        (fun (s : Explain.source_plan) ->
          match s.input with
          | Base (name, rel) -> scan io name rel
          | Derived sub -> charge io sub)
        b.sources

(* Steps 2 to 7 of a block, on its sources' loads (step 1, in
   [exec_block]), in FROM order.  With [cut], only the rows whose output
   cells [cut] accepts reach projection. *)
let run_block ?cut (b : Explain.block_plan) loads : Rowset.t =
  let l =
    layout (List.map (fun (s : Explain.source_plan) -> s.header) b.sources)
  in
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
  (* 3. Residual filters; then [cut], on each row's output cells. *)
  let filtered = List.fold_left (filter l) joined b.residual in
  let filtered =
    match cut with
    | None -> filtered
    | Some keep ->
        let cells =
          Array.of_list (List.map (Eval.scalar (scope l filtered)) b.outputs)
        and kept = Positions.create () in
        for i = 0 to filtered.len - 1 do
          if keep cells i then Positions.add kept i
        done;
        if kept.len = filtered.len then filtered
        else pick filtered (Positions.contents kept)
  in
  let ctx = scope l filtered and n = filtered.len in
  (* 4. Projection / aggregation: the output rows, and a function
     giving each one's ORDER BY key values.  A key reads the output
     row, or else the pre-projection context (SQL permits ordering by
     non-output columns), or else is NULL. *)
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
  let rows, keys_of =
    match b.aggregate with
    | None ->
        let outputs = Array.of_list (List.map (Eval.scalar ctx) b.outputs) in
        let rows = Array.init n (fun i -> Array.map (fun f -> f i) outputs) in
        let keys = order_keys (Eval.scalar ctx) in
        (rows, fun i -> keys rows.(i) i)
    | Some (group_by, having) ->
        Cqp_obs.Trace.with_span ~name:"engine.aggregate"
          ~attrs:(fun () ->
            [
              Cqp_obs.Attr.int "input_rows" n;
              Cqp_obs.Attr.int "group_by" (List.length group_by);
            ])
        @@ fun () ->
        let groups =
          if group_by = [] then
            (* one implicit group, even over an empty input *)
            [ Array.init n Fun.id ]
          else
            groups
              (first_rows
                 (Array.of_list (List.map (Eval.scalar ctx) group_by))
                 n)
        in
        let with_rep members =
          (members, if Array.length members = 0 then None else Some members.(0))
        in
        let in_group e =
          let g = Eval.grouped ctx e in
          fun (members, rep) -> g members rep
        in
        let kept =
          let all = List.map with_rep groups in
          Array.of_list
            (match having with
            | None -> all
            | Some p -> List.filter (Eval.predicate in_group p) all)
        in
        let outputs = Array.of_list (List.map (Eval.grouped ctx) b.outputs) in
        let rows =
          Array.map
            (fun (members, rep) -> Array.map (fun f -> f members rep) outputs)
            kept
        in
        let keys = order_keys in_group in
        (rows, fun g -> keys rows.(g) kept.(g))
  in
  (* 5. DISTINCT keeps each output row's first occurrence. *)
  let order =
    if b.distinct then begin
      let cells = Array.of_list (List.mapi (fun c _ i -> rows.(i).(c)) b.cols) in
      let first = first_rows cells (Array.length rows) and kept = Positions.create () in
      Array.iteri (fun i f -> if f = i then Positions.add kept i) first;
      Positions.contents kept
    end
    else Array.init (Array.length rows) Fun.id
  in
  (* 6. ORDER BY, stable, on every output row's key values. *)
  if b.order_by <> [] then
    Cqp_obs.Trace.with_span ~name:"engine.sort"
      ~attrs:(fun () -> [ Cqp_obs.Attr.int "rows" (Array.length order) ])
      (fun () ->
        let keys = Array.init (Array.length rows) keys_of in
        let rec cmp dirs k1 k2 =
          match dirs, k1, k2 with
          | (_, dir) :: dirs, v1 :: k1, v2 :: k2 ->
              let c = Value.compare v1 v2 in
              let c = match dir with Asc -> c | Desc -> -c in
              if c <> 0 then c else cmp dirs k1 k2
          | _ -> 0
        in
        Array.stable_sort (fun i j -> cmp b.order_by keys.(i) keys.(j)) order);
  (* 7. LIMIT. *)
  let order =
    match b.limit with
    | None -> order
    | Some k -> Array.sub order 0 (max 0 (min k (Array.length order)))
  in
  Rowset.make b.cols (Array.map (fun i -> rows.(i)) order)

let rec exec_plan io (shared : shared) : Explain.t -> Rowset.t = function
  | Plan_select b -> exec_block io shared b
  | Plan_union [] -> fail "empty UNION"
  | Plan_union plans -> Rowset.concat (List.map (exec_plan io shared) plans)

(* A source's rows with its pushed-down conjuncts applied. *)
and load io shared (s : Explain.source_plan) =
  match s.input with
  | Derived sub ->
      let rs = exec_plan io shared sub in
      filtered s rs.Rowset.rows (Rowset.cardinality rs)
  | Base (name, rel) -> (
      scan io name rel;
      let key = (name, s.label, s.pushed_down) in
      match List.assoc_opt key !shared with
      | Some l -> l
      | None ->
          (* the relation's own arrays, read in place *)
          if Cqp_obs.Metrics.is_enabled () then
            Cqp_obs.Metrics.add "engine.filters.pushed"
              (List.length s.pushed_down);
          let l =
            filtered s
              ~vectors:(Array.init (List.length s.header) (Relation.vector rel))
              (Relation.storage rel) (Relation.cardinality rel)
          in
          shared := (key, l) :: !shared;
          l)

(* 1. Sources, each filtered by its pushed-down conjuncts.  An
   intersection's union runs through [intersect]; when its branches
   hold no row in common, the block keeps none. *)
and exec_block ?cut io shared (b : Explain.block_plan) : Rowset.t =
  match b.intersect, b.sources with
  | Some order, [ ({ input = Derived (Plan_union branches); _ } as s) ] -> (
      match intersect io shared (Array.of_list branches) order with
      | None -> Rowset.make b.cols [||]
      | Some rs ->
          run_block ?cut b
            [| filtered s rs.Rowset.rows (Rowset.cardinality rs) |])
  | _ -> run_block ?cut b (Array.of_list (List.map (load io shared) b.sources))

(* The rows of [branches] concatenated in SQL order, for the block's
   GROUP BY to count, or [None] once no row is held by every branch run
   so far.  The branches run in [order], cheapest first.  The running
   intersection is a hash index over the first one's rows, keyed on all
   their cells as GROUP BY keys them; the [j]th later branch stamps [j]
   on each row still in it that the branch holds, so a row without the
   latest stamp has dropped out.  A later branch that neither
   aggregates nor has a LIMIT projects only the rows whose output cells
   are still in it: the rows it drops could only form groups that
   HAVING drops, and DISTINCT and ORDER BY keep the rest as they were.
   The branches left when the intersection empties do not run, and
   still charge their scans. *)
and intersect io shared branches order =
  let cells (rs : Rowset.t) =
    Array.init (Rowset.arity rs) (fun c i -> rs.rows.(i).(c))
  in
  let ran = Array.make (Array.length branches) None in
  let first = List.hd order in
  let r = exec_plan io shared branches.(first) in
  ran.(first) <- Some r;
  let keys = cells r and n = Rowset.cardinality r in
  let t = index n and stamp = Array.make n 0 in
  for i = 0 to n - 1 do
    add t (hash_key keys i) i
  done;
  (* The row still in the intersection after [j] branches whose key
     cells equal row [i]'s, read by [probe]; -1 when there is none. *)
  let alive j probe i =
    let x = ref t.head.(bucket t (hash_key probe i)) in
    while !x >= 0 && not (stamp.(!x) = j && agree keys probe !x i 0) do
      x := t.next.(!x)
    done;
    !x
  in
  let rec next j held = function
    | skipped when held = 0 ->
        List.iter (fun p -> charge io branches.(p)) skipped;
        if Cqp_obs.Metrics.is_enabled () then
          Cqp_obs.Metrics.add "engine.branches_skipped" (List.length skipped);
        None
    | [] -> Some (Rowset.concat (List.filter_map Fun.id (Array.to_list ran)))
    | p :: rest ->
        let rs =
          match branches.(p) with
          | Explain.Plan_select b
            when Option.is_none b.aggregate && Option.is_none b.limit ->
              exec_block
                ~cut:(fun probe i -> alive (j - 1) probe i >= 0)
                io shared b
          | plan -> exec_plan io shared plan
        in
        ran.(p) <- Some rs;
        let probe = cells rs and still = ref 0 in
        for i = 0 to Rowset.cardinality rs - 1 do
          let x = alive (j - 1) probe i in
          if x >= 0 then begin
            stamp.(x) <- j;
            incr still
          end
        done;
        next (j + 1) !still rest
  in
  next 1 n (List.tl order)

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

type binop = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | Col of string option * string
  | Lit of Cqp_relal.Value.t
  | Count_star
  | Count of expr
  | Min of expr
  | Max of expr
  | Sum of expr
  | Avg of expr

type predicate =
  | True
  | Cmp of binop * expr * expr
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate
  | In_list of expr * Cqp_relal.Value.t list
  | Like of expr * string
  | Is_null of expr
  | Is_not_null of expr

type order_dir = Asc | Desc
type select_item = Star | Item of expr * string option

type from_item =
  | Table of string * string option
  | Subquery of query * string

and select_block = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
  where : predicate option;
  group_by : expr list;
  having : predicate option;
  order_by : (expr * order_dir) list;
  limit : int option;
}

and query = Select of select_block | Union_all of query list

let simple_select ?where ?(order_by = []) ?limit items from =
  Select
    {
      distinct = false;
      items;
      from;
      where;
      group_by = [];
      having = None;
      order_by;
      limit;
    }

let mirror = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | (Eq | Neq) as op -> op

let rec conj = function
  | [] -> True
  | [ p ] -> p
  | p :: rest -> And (p, conj rest)

let conj_opt where p =
  match where with None -> Some p | Some w -> Some (And (w, p))

let rec flatten_union q =
  match q with
  | Select _ -> q
  | Union_all qs -> (
      let flat =
        List.concat_map
          (fun sub ->
            match flatten_union sub with
            | Union_all inner -> inner
            | single -> [ single ])
          qs
      in
      match flat with [ single ] -> single | qs -> Union_all qs)

let rec tables_of q =
  match q with
  | Union_all qs -> List.concat_map tables_of qs
  | Select b ->
      List.concat_map
        (function
          | Table (name, alias) -> [ (name, alias) ]
          | Subquery (sub, _) -> tables_of sub)
        b.from

let rec predicate_conjuncts = function
  | And (a, b) -> predicate_conjuncts a @ predicate_conjuncts b
  | True -> []
  | p -> [ p ]

let rec equal_expr a b =
  match a, b with
  | Col (qa, na), Col (qb, nb) -> qa = qb && na = nb
  | Lit va, Lit vb -> Cqp_relal.Value.equal va vb
  | Count_star, Count_star -> true
  | Count x, Count y
  | Min x, Min y
  | Max x, Max y
  | Sum x, Sum y
  | Avg x, Avg y ->
      equal_expr x y
  | ( ( Col _ | Lit _ | Count_star | Count _ | Min _ | Max _ | Sum _
      | Avg _ ),
      _ ) ->
      false

let rec equal_predicate a b =
  match a, b with
  | True, True -> true
  | Cmp (o1, l1, r1), Cmp (o2, l2, r2) ->
      o1 = o2 && equal_expr l1 l2 && equal_expr r1 r2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
      equal_predicate a1 a2 && equal_predicate b1 b2
  | Not p1, Not p2 -> equal_predicate p1 p2
  | In_list (e1, vs1), In_list (e2, vs2) ->
      equal_expr e1 e2
      && List.length vs1 = List.length vs2
      && List.for_all2 Cqp_relal.Value.equal vs1 vs2
  | Like (e1, p1), Like (e2, p2) -> equal_expr e1 e2 && p1 = p2
  | Is_null e1, Is_null e2 | Is_not_null e1, Is_not_null e2 ->
      equal_expr e1 e2
  | ( ( True | Cmp _ | And _ | Or _ | Not _ | In_list _ | Like _ | Is_null _
      | Is_not_null _ ),
      _ ) ->
      false

let equal_item a b =
  match a, b with
  | Star, Star -> true
  | Item (e1, a1), Item (e2, a2) -> equal_expr e1 e2 && a1 = a2
  | (Star | Item _), _ -> false

let rec equal qa qb =
  match qa, qb with
  | Union_all xs, Union_all ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Select a, Select b ->
      a.distinct = b.distinct
      && List.length a.items = List.length b.items
      && List.for_all2 equal_item a.items b.items
      && List.length a.from = List.length b.from
      && List.for_all2 equal_from a.from b.from
      && (match a.where, b.where with
         | None, None -> true
         | Some x, Some y -> equal_predicate x y
         | _ -> false)
      && List.length a.group_by = List.length b.group_by
      && List.for_all2 equal_expr a.group_by b.group_by
      && (match a.having, b.having with
         | None, None -> true
         | Some x, Some y -> equal_predicate x y
         | _ -> false)
      && List.length a.order_by = List.length b.order_by
      && List.for_all2
           (fun (e1, d1) (e2, d2) -> equal_expr e1 e2 && d1 = d2)
           a.order_by b.order_by
      && a.limit = b.limit
  | (Union_all _ | Select _), _ -> false

and equal_from a b =
  match a, b with
  | Table (n1, a1), Table (n2, a2) -> n1 = n2 && a1 = a2
  | Subquery (q1, a1), Subquery (q2, a2) -> a1 = a2 && equal q1 q2
  | (Table _ | Subquery _), _ -> false

open Cqp_sql.Ast
module Value = Cqp_relal.Value

exception Eval_error of string

type 'r scope = string option -> string -> 'r -> Value.t

let tuple_scope cols q name =
  let i = Rowset.find_col cols q name in
  fun (row : Cqp_relal.Tuple.t) -> row.(i)

let scalar scope = function
  | Col (q, name) -> (
      match scope q name with
      | get -> get
      | exception Rowset.Column_error msg -> fun _ -> raise (Eval_error msg))
  | Lit v -> fun _ -> v
  | Count_star | Count _ | Min _ | Max _ | Sum _ | Avg _ ->
      fun _ -> raise (Eval_error "aggregate in row context")

(* An aggregate's argument is itself evaluated in group context, with
   each member in turn as the representative row. *)
let rec grouped scope = function
  | Col (q, name) -> (
      match scope q name with
      | get -> (
          fun _ rep -> match rep with Some row -> get row | None -> Value.Null)
      | exception Rowset.Column_error msg -> fun _ _ -> raise (Eval_error msg))
  | Lit v -> fun _ _ -> v
  | Count_star -> fun members _ -> Value.Int (Array.length members)
  | Count arg ->
      let arg = grouped scope arg in
      fun members _ ->
        Value.Int
          (Array.fold_left
             (fun n m -> if Value.is_null (arg members (Some m)) then n else n + 1)
             0 members)
  | Sum arg ->
      let sum = numeric scope arg in
      fun members _ ->
        let s, n = sum members in
        if n = 0 then Value.Null else Value.Float s
  | Avg arg ->
      let sum = numeric scope arg in
      fun members _ ->
        let s, n = sum members in
        if n = 0 then Value.Null else Value.Float (s /. float_of_int n)
  | Min arg -> extremum scope arg (fun c -> c < 0)
  | Max arg -> extremum scope arg (fun c -> c > 0)

(* Sum and count of the argument's numeric values, in member order. *)
and numeric scope arg =
  let arg = grouped scope arg in
  fun members ->
    let s = ref 0. and n = ref 0 in
    Array.iter
      (fun m ->
        match Value.to_float (arg members (Some m)) with
        | Some x ->
            s := !s +. x;
            incr n
        | None -> ())
      members;
    (!s, !n)

and extremum scope arg better =
  let arg = grouped scope arg in
  fun members _ ->
    Array.fold_left
      (fun best m ->
        let v = arg members (Some m) in
        if Value.is_null v then best
        else
          match best with
          | Value.Null -> v
          | b -> if better (Value.compare v b) then v else b)
      Value.Null members

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* Classical two-pointer wildcard matcher ('%' = '*', '_' = '?'). *)
  let rec go pi si star_pi star_si =
    if si = ns then
      let rec only_pct pi =
        pi = np || (pattern.[pi] = '%' && only_pct (pi + 1))
      in
      only_pct pi
    else if pi < np && pattern.[pi] = '%' then go (pi + 1) si pi si
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_pi star_si
    else if star_pi >= 0 then go (star_pi + 1) (star_si + 1) star_pi (star_si + 1)
    else false
  in
  go 0 0 (-1) (-1)

(* Kleene truth values. *)
type truth = Yes | No | Unknown

let of_bool b = if b then Yes else No

let holds op a b =
  match op with
  | Eq -> Value.equal a b
  | Neq -> not (Value.equal a b)
  | Lt -> Value.compare a b < 0
  | Le -> Value.compare a b <= 0
  | Gt -> Value.compare a b > 0
  | Ge -> Value.compare a b >= 0

let compare_values op a b =
  if Value.is_null a || Value.is_null b then Unknown else of_bool (holds op a b)

let kand a b =
  match a, b with
  | No, _ | _, No -> No
  | Yes, Yes -> Yes
  | _ -> Unknown

let kor a b =
  match a, b with
  | Yes, _ | _, Yes -> Yes
  | No, No -> No
  | _ -> Unknown

let knot = function Yes -> No | No -> Yes | Unknown -> Unknown

let predicate expr p =
  let rec go = function
    | True -> fun _ -> Yes
    | Cmp (op, l, r) ->
        let l = expr l and r = expr r in
        fun row -> compare_values op (l row) (r row)
    | And (a, b) ->
        let a = go a and b = go b in
        fun row -> kand (a row) (b row)
    | Or (a, b) ->
        let a = go a and b = go b in
        fun row -> kor (a row) (b row)
    | Not q ->
        let q = go q in
        fun row -> knot (q row)
    | In_list (e, vs) ->
        let e = expr e and has_null = List.exists Value.is_null vs in
        fun row ->
          let v = e row in
          if Value.is_null v then Unknown
          else if List.exists (fun x -> Value.equal v x) vs then Yes
          else if has_null then Unknown
          else No
    | Like (e, pattern) -> (
        let e = expr e in
        fun row ->
          match e row with
          | Value.Null -> Unknown
          | v -> of_bool (like_match ~pattern (Value.to_string v)))
    | Is_null e ->
        let e = expr e in
        fun row -> of_bool (Value.is_null (e row))
    | Is_not_null e ->
        let e = expr e in
        fun row -> of_bool (not (Value.is_null (e row)))
  in
  let p = go p in
  fun row -> match p row with Yes -> true | No | Unknown -> false

type objective = Maximize_doi | Minimize_cost

type t = {
  number : int;
  objective : objective;
  constraints : Params.constraints;
}

let make ?objective number (c : Params.constraints) =
  let implied = if number <= 3 then Maximize_doi else Minimize_cost in
  let nan_bound =
    List.find_opt
      (fun (_, v) -> Option.fold ~none:false ~some:Float.is_nan v)
      [
        ("cmax", c.Params.cmax);
        ("dmin", c.Params.dmin);
        ("smin", c.Params.smin);
        ("smax", c.Params.smax);
      ]
  in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if number < 1 || number > 6 then fail "problem number %d outside 1-6" number
  else if Option.fold ~none:false ~some:(( <> ) implied) objective then
    fail "objective mismatch: Problem %d %s" number
      (match implied with
      | Maximize_doi -> "maximizes doi"
      | Minimize_cost -> "minimizes cost")
  else
    match nan_bound with
    | Some (name, _) -> fail "Problem %d: %s is NaN" number name
    | None ->
        if (number = 2 || number = 3) && c.Params.cmax = None then
          fail "Problem %d requires cmax" number
        else if number = 1 && c.Params.smin = None && c.Params.smax = None
        then fail "Problem 1 requires smin or smax"
        else Ok { number; objective = implied; constraints = c }

let make_exn number constraints =
  match make number constraints with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let problem1 ~smin ~smax = make_exn 1 (Params.make ~smin ~smax ())
let problem2 ~cmax = make_exn 2 (Params.make ~cmax ())
let problem3 ~cmax ~smin ~smax = make_exn 3 (Params.make ~cmax ~smin ~smax ())
let problem4 ~dmin = make_exn 4 (Params.make ~dmin ())
let problem5 ~dmin ~smin ~smax = make_exn 5 (Params.make ~dmin ~smin ~smax ())
let problem6 ~smin ~smax = make_exn 6 (Params.make ~smin ~smax ())

let describe t =
  let obj =
    match t.objective with
    | Maximize_doi -> "maximize doi"
    | Minimize_cost -> "minimize cost"
  in
  Format.asprintf "Problem %d: %s subject to%a" t.number obj
    Params.pp_constraints t.constraints

let better t a b =
  match t.objective with
  | Maximize_doi -> a > b
  | Minimize_cost -> a < b

let objective_value t (p : Params.t) =
  match t.objective with
  | Maximize_doi -> p.Params.doi
  | Minimize_cost -> p.Params.cost

let pp ppf t = Format.pp_print_string ppf (describe t)

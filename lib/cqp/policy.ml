type device = Desktop | Laptop | Tablet | Palmtop | Phone
type network = Broadband | Wifi | Cellular | Offline_sync
type intent = Browse | Quick_answer | Exhaustive_research

type location = {
  loc_rel : string;
  loc_attr : string;
  loc_value : Cqp_relal.Value.t;
  loc_doi : float;
}

type context = {
  device : device;
  network : network;
  intent : intent;
  requested_answers : int option;
  location : location option;
}

let at loc_rel loc_attr loc_value =
  { loc_rel; loc_attr; loc_value; loc_doi = 1.0 }

let localize ctx profile =
  match ctx.location with
  | None -> profile
  | Some l ->
      Cqp_prefs.Profile.add_selection profile
        (Cqp_prefs.Profile.selection l.loc_rel l.loc_attr l.loc_value
           l.loc_doi)

type tuning = {
  network_budget : network -> float;
  device_size_cap : device -> int option;
  quick_answer_dmin : float;
}

let default_tuning =
  {
    network_budget =
      (function
      | Broadband -> 0.8
      | Wifi -> 0.5
      | Cellular -> 0.15
      | Offline_sync -> 1.0);
    device_size_cap =
      (function
      | Desktop | Laptop -> None
      | Tablet -> Some 50
      | Palmtop -> Some 20
      | Phone -> Some 8);
    quick_answer_dmin = 0.6;
  }

let problem_of_context ?(tuning = default_tuning) ctx ~supreme_cost =
  let cost_budget = tuning.network_budget ctx.network *. supreme_cost in
  let size_cap =
    match ctx.requested_answers with
    | Some n -> Some (float_of_int n)
    | None -> Option.map float_of_int (tuning.device_size_cap ctx.device)
  in
  match ctx.intent, size_cap with
  | Exhaustive_research, _ -> Problem.problem2 ~cmax:(0.9 *. supreme_cost)
  | Browse, None -> Problem.problem2 ~cmax:cost_budget
  | Browse, Some cap -> Problem.problem3 ~cmax:cost_budget ~smin:1. ~smax:cap
  | Quick_answer, Some cap ->
      Problem.problem5 ~dmin:tuning.quick_answer_dmin ~smin:1. ~smax:cap
  | Quick_answer, None -> Problem.problem4 ~dmin:tuning.quick_answer_dmin

let device_to_string = function
  | Desktop -> "desktop"
  | Laptop -> "laptop"
  | Tablet -> "tablet"
  | Palmtop -> "palmtop"
  | Phone -> "phone"

let network_to_string = function
  | Broadband -> "broadband"
  | Wifi -> "wifi"
  | Cellular -> "cellular"
  | Offline_sync -> "offline-sync"

let intent_to_string = function
  | Browse -> "browse"
  | Quick_answer -> "quick answer"
  | Exhaustive_research -> "exhaustive research"

let describe ctx =
  Printf.sprintf "%s on %s, %s%s%s" (device_to_string ctx.device)
    (network_to_string ctx.network)
    (intent_to_string ctx.intent)
    (match ctx.requested_answers with
    | Some n -> Printf.sprintf ", up to %d answers" n
    | None -> "")
    (match ctx.location with
    | Some l ->
        Printf.sprintf ", at %s = %s" l.loc_attr
          (Cqp_relal.Value.to_string l.loc_value)
    | None -> "")

let run ?tuning ?algorithm ?max_k catalog profile ~sql ~context () =
  let profile = localize context profile in
  let query = Cqp_sql.Parser.parse sql in
  Cqp_sql.Analyzer.check catalog query;
  let estimate = Estimate.create catalog query in
  let probe = Pref_space.build ?max_k estimate profile in
  let supreme_cost = Pref_space.supreme_cost probe in
  let problem = problem_of_context ?tuning context ~supreme_cost in
  Personalizer.run ?algorithm ?max_k catalog profile ~sql ~problem ()

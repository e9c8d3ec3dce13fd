(* Checks that a serve run's three records of its phases agree.

   usage: phase_check TRACE EVENTS METRICS

   A serve phase is a span, so per phase the summed [dur] of the
   trace's spans tagged with it, the [phases] sums of the JSONL event
   log and the [sum] of the [profile.phase.<p>_us] histogram read the
   same clock readings; they must agree within a relative 1e-9.
   [queue_wait] has no span (it is credited from the enqueue stamp), so
   it is not compared.  The log must hold one event per request counted
   in [profile.requests] and in [serve.requests].  Prints one line per
   phase with its span count; exits 1 at the first disagreement. *)

module J = Cqp_obs.Jsonx

let phases = [ "cache_lookup"; "solve"; "degrade"; "exec"; "render" ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all
let field k j = Option.value (J.member k j) ~default:J.Null
let num = function J.Num x -> x | _ -> 0.
let is_str s = function J.Str s' -> s = s' | _ -> false

let check trace events metrics =
  let spans =
    match field "traceEvents" (J.of_string (read trace)) with
    | J.Arr spans -> List.filter (fun e -> is_str "X" (field "ph" e)) spans
    | _ -> fail "%s: no traceEvents" trace
  and events =
    List.filter_map
      (fun line -> if line = "" then None else Some (J.of_string line))
      (String.split_on_char '\n' (read events))
  and m = J.of_string (read metrics) in
  let counter k =
    match J.member k (field "counters" m) with
    | Some (J.Num x) -> x
    | _ -> fail "%s: no counter %s" metrics k
  in
  let n = List.length events in
  let requests = counter "profile.requests"
  and served = counter "serve.requests" in
  if not (float_of_int n = requests && requests = served) then
    fail "%d events, profile.requests %g, serve.requests %g" n requests served;
  List.iter
    (fun p ->
      let sum f l = List.fold_left (fun s e -> s +. num (f e)) 0. l in
      let tagged =
        List.filter (fun e -> is_str p (field "phase" (field "args" e))) spans
      in
      let traced = sum (field "dur") tagged
      and logged = sum (fun e -> field p (field "phases" e)) events
      and observed =
        num (field "sum" (field ("profile.phase." ^ p ^ "_us") (field "histograms" m)))
      in
      let tol =
        1e-9 *. List.fold_left Float.max 0.
                  (List.map Float.abs [ traced; logged; observed ])
      in
      if Float.abs (traced -. logged) > tol then
        fail "%s: %f us traced, %f us logged" p traced logged;
      if Float.abs (logged -. observed) > tol then
        fail "%s: %f us logged, %f us in the histogram" p logged observed;
      Printf.printf "%s: %d spans; trace, events and histogram agree\n" p
        (List.length tagged))
    phases;
  Printf.printf "%d requests = profile.requests = serve.requests\n" n

let () =
  match Sys.argv with
  | [| _; trace; events; metrics |] -> check trace events metrics
  | _ ->
      prerr_endline "usage: phase_check TRACE EVENTS METRICS";
      exit 2

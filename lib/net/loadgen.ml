module Rng = Cqp_util.Rng
module Clock = Cqp_obs.Clock
module Jsonx = Cqp_obs.Jsonx
module Workload = Cqp_serve.Workload
module Serve = Cqp_serve.Serve

type config = {
  users : int;
  zipf_s : float;
  rate : float;
  requests : int;
  connections : int;
  seed : int;
  deadline_ms : float option;
  execute : bool;
}

let default =
  {
    users = 1000;
    zipf_s = 1.1;
    rate = 200.0;
    requests = 2000;
    connections = 4;
    seed = 7;
    deadline_ms = None;
    execute = false;
  }

type report = {
  sent : int;
  served : int;
  shed : int;
  errors : int;
  protocol_errors : int;
  deadline_expired : int;
  late_sends : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  duration_s : float;
  achieved_rate : float;
}

let user_name i = "u" ^ string_of_int i

(* --- Zipf over a precomputed CDF -------------------------------------- *)

let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* First index whose cumulative weight reaches [u]: rank-1 (index 0)
   is the hottest user. *)
let zipf_draw cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* --- population ------------------------------------------------------- *)

let install_seed config i = config.seed + i

let populate ?shape config sockaddr =
  let conns = max 1 config.connections in
  let workers =
    Array.init conns (fun w ->
        Domain.spawn (fun () ->
            let c = Client.connect sockaddr in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let i = ref w in
                while !i < config.users do
                  Client.install c ~user:(user_name !i) ?shape
                    (install_seed config !i);
                  i := !i + conns
                done)))
  in
  Array.iter Domain.join workers

let populate_store ?shape ?shards ~dir ~users ~seed catalog =
  let store = Store.open_ ?shards ~resident_capacity:0 dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      for i = 0 to users - 1 do
        Store.put store ~user:(user_name i)
          (Workload.seeded_profile ?shape catalog (seed + i))
      done;
      Store.sync store)

(* --- the open loop ---------------------------------------------------- *)

type outcome = Served_ok | Served_blown | Shed_r | Error_r | Proto_r

(* Per-arrival content: user first, then the request draws, all from
   the arrival's own split stream — the same sequence every run. *)
let arrival config ~catalog ~cdf content_base i =
  let rng = Rng.split content_base i in
  let user = user_name (zipf_draw cdf (Rng.float rng 1.0)) in
  let req = Workload.random_request ~execute:config.execute ~rng ~user catalog in
  {
    Wire.user = req.Serve.user;
    sql = req.Serve.sql;
    problem = req.Serve.problem;
    max_k = req.Serve.max_k;
    algorithm = req.Serve.algorithm;
    execute = req.Serve.execute;
    deadline_ms = config.deadline_ms;
  }

let run config ~catalog sockaddr =
  if config.users < 1 then invalid_arg "Loadgen.run: users < 1";
  if config.requests < 0 then invalid_arg "Loadgen.run: requests < 0";
  if config.rate <= 0.0 then invalid_arg "Loadgen.run: rate <= 0";
  let conns = max 1 config.connections in
  let base = Rng.create config.seed in
  let content_base = Rng.split base 1 in
  let sched = Rng.split base 2 in
  let cdf = zipf_cdf ~n:config.users ~s:config.zipf_s in
  (* Poisson arrivals: cumulative exponential gaps, seconds. *)
  let offsets =
    let t = ref 0.0 in
    Array.init config.requests (fun _ ->
        let u = Rng.float sched 1.0 in
        t := !t +. (-.log (1.0 -. u) /. config.rate);
        !t)
  in
  let now_s () = Clock.raw_us () /. 1e6 in
  let start = now_s () +. 0.05 in
  let worker w =
    let served = ref 0
    and blown = ref 0
    and shed = ref 0
    and errors = ref 0
    and proto = ref 0
    and late = ref 0
    and lats = ref [] in
    let record outcome lat_ms =
      (match outcome with
      | Served_ok -> incr served
      | Served_blown ->
          incr served;
          incr blown
      | Shed_r -> incr shed
      | Error_r -> incr errors
      | Proto_r -> incr proto);
      match outcome with
      | Served_ok | Served_blown | Shed_r -> lats := lat_ms :: !lats
      | _ -> ()
    in
    (match Client.connect sockaddr with
    | exception _ ->
        (* Could not even connect: everything assigned here fails. *)
        let i = ref w in
        while !i < config.requests do
          record Proto_r 0.0;
          i := !i + conns
        done
    | client ->
        let dead = ref false in
        let i = ref w in
        while !i < config.requests do
          if !dead then record Proto_r 0.0
          else begin
            let due = start +. offsets.(!i) in
            let now = now_s () in
            if now < due then Unix.sleepf (due -. now) else incr late;
            let q = arrival config ~catalog ~cdf content_base !i in
            let t0 = Clock.now_us () in
            match Client.call client (Wire.Query q) with
            | Wire.Served s ->
                record
                  (if s.Wire.deadline_expired then Served_blown
                   else Served_ok)
                  ((Clock.now_us () -. t0) /. 1000.0)
            | Wire.Shed _ ->
                record Shed_r ((Clock.now_us () -. t0) /. 1000.0)
            | Wire.Error _ -> record Error_r 0.0
            | Wire.Ok_ack | Wire.Pong | Wire.Bye -> record Proto_r 0.0
            | exception (Client.Closed | Client.Protocol _) ->
                record Proto_r 0.0;
                dead := true
            | exception Unix.Unix_error _ ->
                record Proto_r 0.0;
                dead := true
          end;
          i := !i + conns
        done;
        Client.close client);
    (!served, !blown, !shed, !errors, !proto, !late, !lats)
  in
  let workers = Array.init conns (fun w -> Domain.spawn (fun () -> worker w)) in
  let results = Array.map Domain.join workers in
  let finish = now_s () in
  let served = ref 0
  and blown = ref 0
  and shed = ref 0
  and errors = ref 0
  and proto = ref 0
  and late = ref 0
  and lats = ref [] in
  Array.iter
    (fun (s, b, sh, e, p, l, ls) ->
      served := !served + s;
      blown := !blown + b;
      shed := !shed + sh;
      errors := !errors + e;
      proto := !proto + p;
      late := !late + l;
      lats := List.rev_append ls !lats)
    results;
  let lat = Array.of_list !lats in
  Array.sort compare lat;
  let percentile p =
    let n = Array.length lat in
    if n = 0 then nan
    else lat.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let duration_s = Float.max 1e-9 (finish -. start) in
  let completed = !served + !shed + !errors in
  {
    sent = config.requests;
    served = !served;
    shed = !shed;
    errors = !errors;
    protocol_errors = !proto;
    deadline_expired = !blown;
    late_sends = !late;
    p50_ms = percentile 0.5;
    p99_ms = percentile 0.99;
    p999_ms = percentile 0.999;
    duration_s;
    achieved_rate = float_of_int completed /. duration_s;
  }

(* --- reporting -------------------------------------------------------- *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>sent %d: served %d (deadline blown %d), shed %d, errors %d, \
     protocol errors %d@,\
     latency ms: p50 %.2f  p99 %.2f  p999 %.2f@,\
     %.2fs at %.1f req/s achieved (%d late sends)@]"
    r.sent r.served r.deadline_expired r.shed r.errors r.protocol_errors
    r.p50_ms r.p99_ms r.p999_ms r.duration_s r.achieved_rate r.late_sends

let report_to_json r =
  let int n = Jsonx.Num (float_of_int n) in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("sent", int r.sent);
         ("served", int r.served);
         ("shed", int r.shed);
         ("errors", int r.errors);
         ("protocol_errors", int r.protocol_errors);
         ("deadline_expired", int r.deadline_expired);
         ("late_sends", int r.late_sends);
         ("p50_ms", Jsonx.Num r.p50_ms);
         ("p99_ms", Jsonx.Num r.p99_ms);
         ("p999_ms", Jsonx.Num r.p999_ms);
         ("duration_s", Jsonx.Num r.duration_s);
         ("achieved_rate", Jsonx.Num r.achieved_rate);
       ])

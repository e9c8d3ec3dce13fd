(* perfbench: run one workload of the CQP benchmark from a seed.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH
     main.exe ... --setup-probe

   [--cli] is the built [cqp] binary (net_zipf serves through a
   [cqp netserve] child).  [perfbench/run.py] builds both and passes it.
   [--setup-probe] only sets the workload up, prints its set-up time and
   exits; an untraced run starts two such probes after its own set-up
   and reports the median of the three set-up times.

   A run sets the workload up, times its ops with tracing and the
   metrics registry off, then checks every answer against an uncached
   in-process reference.  With [--trace 1] it also replays the same ops
   through the traced layer pipeline ([Layers]) and reports the
   client-side and per-layer metrics instead of the gated end-to-end
   ones.  The human-readable report goes to stdout first; the last line
   is the JSON result. *)

module Serve = Cqp_serve.Serve
module Wire = Cqp_net.Wire
module Clock = Cqp_obs.Clock
module Config = Cqp_resilience.Config

type args = {
  workload : Plan.kind;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  setup_probe : bool;
}

let usage =
  "main.exe --workload (net_zipf|serve_exec|serve_pareto) --seed N \
   --seconds S --trace 0|1 --cli PATH [--setup-probe]"

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and cli = ref None and probe = ref false in
  let set r conv v = r := Some (conv v) in
  Arg.parse_argv Sys.argv
    [
      ( "--workload",
        Arg.String
          (set workload (fun v ->
               match List.assoc_opt v Plan.kinds with
               | Some k -> k
               | None -> raise (Arg.Bad ("unknown workload " ^ v)))),
        "NAME" );
      ("--seed", Arg.String (set seed int_of_string), "N");
      ("--seconds", Arg.String (set seconds float_of_string), "S");
      ( "--trace",
        Arg.String
          (set trace (function
            | "0" -> false
            | "1" -> true
            | v -> raise (Arg.Bad ("--trace takes 0 or 1, not " ^ v)))),
        "0|1" );
      ("--cli", Arg.String (set cli Fun.id), "PATH");
      ("--setup-probe", Arg.Set probe, " set up, report set-up time, exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let need name = function
    | Some v -> v
    | None -> raise (Arg.Bad ("missing " ^ name))
  in
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds = need "--seconds" !seconds;
    trace = need "--trace" !trace;
    cli = need "--cli" !cli;
    setup_probe = !probe;
  }

let percentile = Layers.percentile

(* --- files ------------------------------------------------------------ *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let copy_tree src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let ic = open_in_bin (Filename.concat src e) in
      let oc = open_out_bin (Filename.concat dst e) in
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          close_out oc)
        (fun () -> output_string oc (In_channel.input_all ic)))
    (Sys.readdir src)

(* Run state lives under [.perfbench/] in the working directory. *)
let state_root = ".perfbench"

(* Time spent on each unrecorded replay that prices the tracing. *)
let overhead_budget_s = 3.0

(* --- the timed run ---------------------------------------------------- *)

type timed = {
  setup_s : float;
  rss_mb : float;
  ops : Plan.op array;  (** the ops that ran, in op-id order *)
  answers : (Plan.answer option, string) result array;
      (** per op: [Some] answer of a query, [None] for an acknowledged
          write, [Error] for anything else *)
  latency_ms : float array;
  lag_ms : float array;
  wall_s : float;
}

let served_answer = function
  | Wire.Served s when s.Wire.deadline_expired -> Error "deadline expired"
  | Wire.Served s -> Ok (Some (Plan.of_wire s))
  | Wire.Ok_ack -> Ok None
  | Wire.Shed _ -> Error "shed"
  | Wire.Error { message; _ } -> Error ("error reply: " ^ message)
  | Wire.Pong | Wire.Bye -> Error "unexpected reply"

(* net_zipf set-up: populate the store offline, start the server,
   connect and ping, warm.  Returns once the first timed op may go. *)
let net_setup args (plan : Plan.t) dir =
  let store = Filename.concat dir "store" in
  Cqp_net.Loadgen.populate_store ~dir:store ~users:plan.Plan.users
    ~seed:plan.Plan.pop_seed plan.Plan.catalog;
  if args.trace then copy_tree store (Filename.concat dir "pristine");
  let srv =
    Netrun.spawn ~cli:args.cli ~seed:Plan.dataset_seed ~store
      ~socket:(Filename.concat dir "sock")
  in
  let clients = ref [] in
  let stop () = Netrun.stop srv !clients in
  match
    clients := List.init Plan.net_connections (fun _ -> Netrun.connect srv);
    Netrun.warm (Array.of_list !clients) plan.Plan.warm
  with
  | () -> (srv, Array.of_list !clients, stop)
  | exception e ->
      stop ();
      raise e

let run_net args plan dir =
  let ops, due_us =
    match plan.Plan.traffic with
    | Plan.Open { ops; due_us } -> (ops, due_us)
    | Plan.Closed _ -> assert false
  in
  let srv, clients, stop = net_setup args plan dir in
  let setup_s = Clock.now_us () /. 1e6 in
  Fun.protect ~finally:stop (fun () ->
      let r = Netrun.open_loop clients ops due_us in
      let rss_mb = Netrun.vm_hwm_mb (string_of_int srv.Netrun.pid) in
      {
        setup_s;
        rss_mb;
        ops;
        answers =
          Array.map (function Ok w -> served_answer w | Error e -> Error e)
            r.Netrun.replies;
        latency_ms = r.Netrun.latency_ms;
        lag_ms = r.Netrun.lag_ms;
        wall_s = r.Netrun.wall_s;
      })

let serve_setup (plan : Plan.t) =
  let resilience =
    { Config.default with Config.pareto = plan.Plan.kind = Plan.Serve_pareto }
  in
  let srv = Serve.create ~resilience plan.Plan.catalog in
  for i = 0 to plan.Plan.users - 1 do
    Cqp_serve.Workload.install srv ~user:(Plan.user_name i)
      (plan.Plan.pop_seed + i)
  done;
  Array.iter (fun r -> ignore (Serve.handle srv r)) plan.Plan.warm;
  srv

(* Closed loop: one in-process client calls [Serve.handle] back to
   back until the run's time is up.  An op is due when the previous
   one is done with, so its send lag is the client's own overhead.

   Nothing the client keeps grows with the ops served: right after the
   reply each answer is projected (SQL text, rows digest) and the rows
   dropped.  The serve workloads have no writes, so an answer depends
   only on its pool entry; the first answer to each entry is kept and
   every later one is compared against it on the spot.  The projection
   runs outside the latency window and its time is taken out of the
   run's wall time. *)
type served = {
  entry : int;  (** the pool entry served *)
  differs : string option;  (** set when the answer is not the entry's first *)
  latency : float;
  lag : float;
}

let run_serve args (plan : Plan.t) =
  let pool, pick =
    match plan.Plan.traffic with
    | Plan.Closed { pool; pick } -> (pool, pick)
    | Plan.Open _ -> assert false
  in
  let srv = serve_setup plan in
  let first = Clock.now_us () in
  let stop_at = first +. (args.seconds *. 1e6) in
  let seen = Array.make (Array.length pool) None in
  let rec loop i prev projecting acc =
    if prev >= stop_at then (prev, projecting, List.rev acc)
    else begin
      let entry = pick i in
      let t0 = Clock.now_us () in
      let o = Serve.outcome_exn (Serve.handle srv pool.(entry)) in
      let t1 = Clock.now_us () in
      let a = Plan.of_outcome o in
      let differs =
        match seen.(entry) with
        | None ->
            seen.(entry) <- Some a;
            None
        | Some b when Plan.same_answer a b -> None
        | Some b ->
            Some
              (Printf.sprintf
                 "answer differs from the first to the same request\n\
                 \  got   %s\n\
                 \  first %s"
                 (Plan.describe_answer a) (Plan.describe_answer b))
      in
      let t2 = Clock.now_us () in
      loop (i + 1) t2
        (projecting +. (t2 -. t1))
        ({
           entry;
           differs;
           latency = (t1 -. t0) /. 1000.;
           lag = (t0 -. prev) /. 1000.;
         }
        :: acc)
    end
  in
  let last, projecting, served = loop 0 first 0. [] in
  let rss_mb = Netrun.vm_hwm_mb "self" in
  let served = Array.of_list served in
  {
    setup_s = first /. 1e6;
    rss_mb;
    ops = Array.map (fun s -> Plan.Query pool.(s.entry)) served;
    answers =
      Array.map
        (fun s ->
          match s.differs with
          | Some msg -> Error msg
          | None -> Ok seen.(s.entry))
        served;
    latency_ms = Array.map (fun s -> s.latency) served;
    lag_ms = Array.map (fun s -> s.lag) served;
    wall_s = (last -. first -. projecting) /. 1e6;
  }

(* --- the output check ------------------------------------------------- *)

(* The same ops on an uncached, non-Pareto server, in op order.  The
   serve workloads have no writes, so there an answer is a function of
   the request alone and each distinct pool entry is served once. *)
let reference (plan : Plan.t) (ops : Plan.op array) =
  let srv = Serve.create ~caching:false plan.Plan.catalog in
  let known = Hashtbl.create 1024 in
  let ensure user =
    if not (Hashtbl.mem known user) then begin
      Hashtbl.add known user ();
      Serve.set_profile srv ~user
        (Plan.population_profile plan (Plan.user_index user))
    end
  in
  let memo = Hashtbl.create 256 in
  Array.map
    (function
      | Plan.Write { user; profile } ->
          Hashtbl.replace known user ();
          Serve.set_profile srv ~user profile;
          None
      | Plan.Query req -> (
          match Hashtbl.find_opt memo req with
          | Some a -> Some a
          | None ->
              ensure req.Serve.user;
              let a =
                Plan.of_outcome (Serve.outcome_exn (Serve.handle srv req))
              in
              (match plan.Plan.traffic with
              | Plan.Closed _ -> Hashtbl.replace memo req a
              | Plan.Open _ -> ());
              Some a))
    ops

(* Compares [got] against [want] op by op and flags every op that
   fails: an error, a wrong answer, a personalization outside its
   constraints.  The first few are printed. *)
let check ~what (ops : Plan.op array) got want =
  let failed = Array.make (Array.length ops) false in
  let reported = ref 0 in
  let report i msg =
    failed.(i) <- true;
    incr reported;
    if !reported <= 5 then Printf.eprintf "%s: op %d: %s\n%!" what i msg
  in
  Array.iteri
    (fun i g ->
      match (g, want.(i), ops.(i)) with
      | Error e, _, _ -> report i e
      | Ok (Some a), Some b, Plan.Query req ->
          if not (Plan.same_answer a b) then
            report i
              (Printf.sprintf "answer differs\n  got  %s\n  want %s"
                 (Plan.describe_answer a) (Plan.describe_answer b))
          else if not (Plan.within_constraints req a) then
            report i ("violates constraints: " ^ Plan.describe_answer a)
      | Ok None, None, Plan.Write _ -> ()
      | Ok _, _, _ -> report i "reply of the wrong kind")
    got;
  failed

(* --- set-up probes ---------------------------------------------------- *)

(* Every set-up sample, the timed run's own included, is read at the
   same point: when set-up returns, before the first op is scheduled. *)
let setup_only args plan dir =
  match plan.Plan.kind with
  | Plan.Net_zipf ->
      let _, _, stop = net_setup args plan dir in
      let s = Clock.now_us () /. 1e6 in
      stop ();
      s
  | Plan.Serve_exec | Plan.Serve_pareto ->
      ignore (serve_setup plan);
      Clock.now_us () /. 1e6

(* Set-up time of a fresh process of this benchmark, read from its
   last stdout line. *)
let probe_setup args =
  let argv =
    [| Sys.executable_name; "--workload"; Plan.name args.workload;
       "--seed"; string_of_int args.seed;
       "--seconds"; Printf.sprintf "%h" args.seconds;
       "--trace"; "0"; "--cli"; args.cli; "--setup-probe" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> float_of_string last
  | _ -> failwith "set-up probe failed"

(* --- reporting -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

let print_section title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-26s %14.6f %-8s %s\n" x.name x.value x.unit_ x.note)
    metrics

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* --- metrics ----------------------------------------------------------- *)

let latencies (timed : timed) keep =
  Array.of_list
    (List.filteri
       (fun i _ -> keep timed.ops.(i))
       (Array.to_list timed.latency_ms))

let is_query = function Plan.Query _ -> true | Plan.Write _ -> false
let queries timed = latencies timed is_query
let writes timed = latencies timed (fun op -> not (is_query op))

(* The gated end-to-end metrics, from the untraced timed run. *)
let end_to_end args (timed : timed) ~setups =
  let q = queries timed in
  let dois =
    Array.of_list
      (List.filter_map
         (function
           | Ok (Some a) -> Some a.Plan.params.Cqp_core.Params.doi | _ -> None)
         (Array.to_list timed.answers))
  in
  let completed =
    Array.fold_left
      (fun k -> function Ok _ -> k + 1 | Error _ -> k)
      0 timed.answers
  in
  [
    m "setup_s" "s" (percentile setups 0.5)
      ~note:
        (Printf.sprintf "median of %s"
           (String.concat ", "
              (Array.to_list (Array.map (Printf.sprintf "%.3f") setups))));
    m "rss_peak_mb" "MB" timed.rss_mb
      ~note:
        (if args.workload = Plan.Net_zipf then "VmHWM of the netserve child"
         else "VmHWM of this process");
    m "query_latency_p50_ms" "ms" (percentile q 0.5)
      ~note:(Printf.sprintf "n=%d" (Array.length q));
    m "throughput_rps" "ops/s" (float_of_int completed /. timed.wall_s)
      ~note:(Printf.sprintf "%d ops in %.3f s" completed timed.wall_s);
    m "doi_mean" "doi" (Cqp_util.Stats.mean dois)
      ~note:(Printf.sprintf "n=%d" (Array.length dois));
  ]

(* What the load generator saw beyond the gated metrics.  The tails swing with
   the machine's load far more than the medians, so they are reported
   with the traced run's metrics rather than gated. *)
let client_side (timed : timed) =
  let q = queries timed and w = writes timed in
  let nq = Array.length q and nw = Array.length w in
  [
    m "driver.query_latency_p99_ms" "ms" (percentile q 0.99)
      ~note:(Printf.sprintf "n=%d, %d beyond" nq (nq / 100));
    m "driver.write_latency_p50_ms" "ms" (percentile w 0.5)
      ~note:(Printf.sprintf "n=%d" nw);
    m "driver.write_latency_p95_ms" "ms" (percentile w 0.95)
      ~note:(Printf.sprintf "n=%d, %d beyond" nw (nw / 20));
    m "driver.send_lag_p99_ms" "ms" (percentile timed.lag_ms 0.99);
  ]

(* Every traced run reports every per-layer metric, so a layer a
   workload never calls reads 0 there; the text report says so. *)
let absent kind name =
  let layer = List.hd (String.split_on_char '.' name) in
  let net_only =
    List.mem layer [ "net"; "wire"; "store" ]
    || String.starts_with ~prefix:"driver.write" name
  in
  match kind with
  | Plan.Net_zipf -> layer = "nsga2" || layer = "exec"
  | Plan.Serve_exec -> net_only || layer = "nsga2"
  | Plan.Serve_pareto -> net_only || layer = "exec"

let mark_absent kind =
  List.map (fun x ->
      if not (absent kind x.name) then x
      else { x with note = "absent on " ^ Plan.name kind ^ ", reads 0" })

(* The traced run: the timed ops replayed through [Layers], checked
   against the timed answers.  Returns the per-layer metrics and which
   ops' traced answers differ. *)
let traced args plan dir (timed : timed) =
  let n = Array.length timed.ops in
  let fresh name =
    let env = Layers.create ~record:(name = "traced") plan in
    (match args.workload with
    | Plan.Net_zipf ->
        let copy = Filename.concat dir name in
        copy_tree (Filename.concat dir "pristine") copy;
        Layers.attach_store env copy
    | Plan.Serve_exec | Plan.Serve_pareto -> Layers.install_population env);
    env
  in
  let op_at i = timed.ops.(i) in
  (* Overhead: an unrecorded replay of a prefix against the traced
     replay of the same ops.  A first unrecorded replay warms the
     process (heap, page cache) and is discarded. *)
  let unrecorded name =
    let e = fresh name in
    let o = Layers.replay ~budget_s:overhead_budget_s e ~n op_at in
    Layers.close e;
    o
  in
  ignore (unrecorded "warmup");
  let untraced = unrecorded "untraced" in
  let env = fresh "traced" in
  let run = Layers.replay env ~n op_at in
  Layers.close env;
  let failed =
    check ~what:"traced run" timed.ops run.Layers.answers
      (Array.map (function Ok a -> a | Error _ -> None) timed.answers)
  in
  let file =
    Filename.concat state_root
      (Printf.sprintf "%s-%d.trace.json" (Plan.name args.workload) args.seed)
  in
  Spans.write env.Layers.spans file;
  Printf.printf "spans written to %s\n" file;
  Layers.print_shares env;
  let metrics =
    Layers.metrics env run ~untraced
      ~client_p50_ms:(percentile (queries timed) 0.5)
  in
  (List.map (fun (name, unit_, value) -> m name unit_ value) metrics, failed)

(* --- main ------------------------------------------------------------- *)

let main args =
  let plan = Plan.make args.workload ~seed:args.seed ~seconds:args.seconds in
  let dir =
    Filename.concat state_root
      (Printf.sprintf "%s-%d-%d" (Plan.name args.workload) args.seed
         (Unix.getpid ()))
  in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  if args.setup_probe then Printf.printf "%.17g\n" (setup_only args plan dir)
  else begin
    let timed =
      match args.workload with
      | Plan.Net_zipf -> run_net args plan dir
      | Plan.Serve_exec | Plan.Serve_pareto -> run_serve args plan
    in
    let n = Array.length timed.ops in
    let wrong =
      check ~what:"reference" timed.ops timed.answers (reference plan timed.ops)
    in
    let layers, traced_wrong =
      if args.trace then traced args plan dir timed
      else ([], Array.make n false)
    in
    let failed = ref 0 in
    Array.iteri (fun i w -> if w || traced_wrong.(i) then incr failed) wrong;
    let failed = !failed in
    (* Set-up time is gated only from untraced runs; those also set up
       twice more in fresh processes and report the median of three. *)
    let setups =
      if args.trace then [| timed.setup_s |]
      else
        Array.append [| timed.setup_s |]
          (Array.init 2 (fun _ -> probe_setup args))
    in
    let e2e = end_to_end args timed ~setups in
    let client = mark_absent args.workload (client_side timed) in
    let layers = mark_absent args.workload layers in
    Printf.printf
      "perfbench %s seed %d: %d ops (%d queries, %d writes), %d failed\n"
      (Plan.name args.workload) args.seed n
      (Array.length (queries timed))
      (Array.length (writes timed))
      failed;
    print_section "end to end" e2e;
    print_section "client side"
      (client
      @ [
          m "failed_frac" "fraction"
            (if n = 0 then 0. else float_of_int failed /. float_of_int n);
        ]);
    if args.trace then print_section "per layer (traced run)" layers;
    print_json ~correct:(failed = 0) ~attempted:n ~failed
      (if args.trace then client @ layers else e2e)
  end

let () =
  match parse_args () with
  | exception Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  | exception Arg.Help msg ->
      print_string msg;
      exit 0
  | args -> (
      try main args
      with e ->
        Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
        exit 1)

module Rng = Cqp_util.Rng
module Problem = Cqp_core.Problem
module Params = Cqp_core.Params
module Algorithm = Cqp_core.Algorithm
module Profile_gen = Cqp_workload.Profile_gen
module Query_gen = Cqp_workload.Query_gen

type entry =
  | Set_profile of {
      user : string;
      seed : int;
      shape : Profile_gen.config option;
    }
  | Request of Serve.request

let algorithms =
  [| Algorithm.C_boundaries; Algorithm.C_maxbounds; Algorithm.D_maxdoi |]

let gen_problem rng =
  match Rng.int rng 4 with
  | 0 | 1 -> Problem.problem2 ~cmax:(float_of_int (Rng.int_in rng 300 3000))
  | 2 ->
      Problem.problem3
        ~cmax:(float_of_int (Rng.int_in rng 300 3000))
        ~smin:1.
        ~smax:(float_of_int (Rng.int_in rng 200 5000))
  | _ -> Problem.problem4 ~dmin:(0.2 +. Rng.float rng 0.6)

let user_name u = Printf.sprintf "u%02d" u

(* One serve-shaped request off an already-positioned stream.  The
   draw order (sql, problem, max_k, algorithm) is part of the on-disk
   determinism contract: [generate] below and the frozen curriculum
   corpus both depend on it, so extend it only at the end. *)
let random_request ?(execute = false) ~rng ~user catalog =
  let sql =
    Cqp_sql.Printer.to_string (Query_gen.generate_serve ~rng catalog)
  in
  let problem = gen_problem rng in
  (* Always bounded: an unbounded K over a 50-selection profile sends
     the exact searches into their node-budget worst case, which is no
     workload for a server. *)
  let max_k = Some (Rng.int_in rng 8 16) in
  let algorithm = algorithms.(Rng.int rng (Array.length algorithms)) in
  { Serve.user; sql; problem; max_k; algorithm; execute }

let generate ?(users = 3) ?(requests = 20) ?(updates = 0) ?(execute = false)
    ~rng catalog =
  if users <= 0 then invalid_arg "Workload.generate: users must be positive";
  (* Key spaces: [1, users] for the initial profiles, [1000, ...) for
     requests, [500_000, ...) for interleaved updates.  Each entry
     derives everything from its own split, so the entry at index [i]
     is independent of the rest of the batch. *)
  let installs =
    List.init users (fun u ->
        Set_profile
          {
            user = user_name u;
            seed = Rng.int (Rng.split rng (u + 1)) 1_000_000;
            shape = None;
          })
  in
  let reqs =
    List.init requests (fun i ->
        let r = Rng.split rng (1000 + i) in
        let user = user_name (Rng.int r users) in
        (float_of_int i, Request (random_request ~execute ~rng:r ~user catalog)))
  in
  let upds =
    List.init updates (fun j ->
        let r = Rng.split rng (500_000 + j) in
        (* +0.5: lands between two requests, after the one it follows. *)
        ( float_of_int (Rng.int r (max 1 requests)) +. 0.5,
          Set_profile
            {
              user = user_name (Rng.int r users);
              seed = Rng.int r 1_000_000;
              shape = None;
            } ))
  in
  let interleaved =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (reqs @ upds)
    |> List.map snd
  in
  installs @ interleaved

let seeded_profile ?shape catalog seed =
  Profile_gen.generate ?config:shape ~rng:(Rng.create seed) catalog

let install server ~user ?shape seed =
  Serve.set_profile server ~user
    (seeded_profile ?shape (Serve.catalog server) seed)

(* Admission is by arrival order: a request's queue position is its
   0-based index among the workload's requests, whatever the lane
   count, so the shed pattern is a pure function of the workload and
   lanes only execute.  Under profiling, a replay models burst arrival:
   every request is considered enqueued when the replay starts, so
   request i's queue_wait phase is the handling time of the requests
   ahead of it in its lane.  The stamp is only taken (and the clock
   only read) while profiling is on. *)
let enqueue_stamp () =
  if Cqp_obs.Request.is_enabled () then Some (Cqp_obs.Clock.now_us ())
  else None

(* Replay partitions entries by the lane that holds their user
   ({!Serve.lane_of}), one job per lane: per-user entry order (profile
   installs vs. requests) is preserved inside a lane, and each response
   is written into the slot of its original position, so the response
   list is the same for every lane count and pool width bit for bit —
   only latencies and cache hit/miss splits (lane-local caches) may
   differ, and caches cannot change results. *)
let replay ?pool server entries =
  let per_lane = Array.make (Serve.lanes server) [] in
  let slots = ref 0 in
  List.iter
    (fun entry ->
      let user, tagged =
        match entry with
        | Set_profile { user; seed; shape } ->
            (user, `Install (user, seed, shape))
        | Request req ->
            let slot = !slots in
            incr slots;
            (req.Serve.user, `Serve (slot, req))
      in
      let l = Serve.lane_of server user in
      per_lane.(l) <- tagged :: per_lane.(l))
    entries;
  let responses = Array.make !slots None in
  let enqueued_us = enqueue_stamp () in
  let job tagged =
    List.iter
      (function
        | `Install (user, seed, shape) -> install server ~user ?shape seed
        | `Serve (slot, req) ->
            responses.(slot) <-
              Some (Serve.handle ~queue_position:slot ?enqueued_us server req))
      (List.rev tagged)
  in
  (match pool with
  | None -> Array.iter job per_lane
  | Some pool ->
      (* An exception in any lane (e.g. [Serve.Unknown_user]) aborts
         the replay after the batch drains, like a sequential replay
         aborts its remainder — the pool re-raises the lowest-lane
         failure. *)
      Cqp_par.Pool.run_all pool
        (Array.map (fun tagged _index -> job tagged) per_lane));
  (* Each request publishes its own lane's cache gauges; once the lanes
     are done, publish their sums. *)
  Cqp_core.Cache.publish_gauge_totals (Serve.caches server);
  List.filter_map Fun.id (Array.to_list responses)

(* --- on-disk format --- *)

(* [float_of_string] also reads "nan", "inf" and out-of-range values;
   each field states what it accepts (a problem, through
   [Problem.make]), so a bad number or problem fails at load, naming
   its line, instead of serving unpersonalized or raising mid-replay. *)
let checked_float ~what ok s =
  let v = float_of_string s in
  if ok v then v else failwith (Printf.sprintf "Workload: bad %s: %s" what s)

let doi_bound = checked_float ~what:"doi bound" (fun v -> v >= 0. && v <= 1.)
let finite = checked_float ~what:"normal parameter" Float.is_finite

let problem_to_field (p : Problem.t) =
  let c = p.Problem.constraints in
  let parts =
    List.filter_map
      (fun (name, v) ->
        Option.map (fun v -> Printf.sprintf "%s=%h" name v) v)
      [
        ("cmax", c.Params.cmax);
        ("dmin", c.Params.dmin);
        ("smin", c.Params.smin);
        ("smax", c.Params.smax);
      ]
  in
  Printf.sprintf "%d:%s" p.Problem.number (String.concat "," parts)

let problem_of_field s =
  match String.index_opt s ':' with
  | None -> failwith ("Workload: bad problem field: " ^ s)
  | Some i -> (
      let number = int_of_string (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let fields =
        if rest = "" then []
        else
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | None -> failwith ("Workload: bad constraint: " ^ kv)
              | Some j ->
                  ( String.sub kv 0 j,
                    float_of_string
                      (String.sub kv (j + 1) (String.length kv - j - 1)) ))
            (String.split_on_char ',' rest)
      in
      let get name = List.assoc_opt name fields in
      match
        Problem.make number
          {
            Params.cmax = get "cmax";
            dmin = get "dmin";
            smin = get "smin";
            smax = get "smax";
          }
      with
      | Ok p -> p
      | Error msg -> failwith (Printf.sprintf "Workload: %s: %s" msg s))

(* Profile shape field (curriculum workloads): semicolon-separated so
   it nests inside one tab-separated column, floats in hex so the
   configuration round-trips exactly. *)
let shape_to_field (c : Profile_gen.config) =
  let doi =
    match c.Profile_gen.doi_dist with
    | Profile_gen.Uniform (lo, hi) -> Printf.sprintf "u:%h:%h" lo hi
    | Profile_gen.Normal { mean; stddev } ->
        Printf.sprintf "n:%h:%h" mean stddev
  in
  let jlo, jhi = c.Profile_gen.join_doi_range in
  Printf.sprintf "sel=%d;doi=%s;join=%h:%h" c.Profile_gen.n_selections doi jlo
    jhi

let shape_of_field s =
  let assoc =
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | None -> failwith ("Workload: bad shape part: " ^ kv)
        | Some i ->
            ( String.sub kv 0 i,
              String.sub kv (i + 1) (String.length kv - i - 1) ))
      (String.split_on_char ';' s)
  in
  let get k =
    match List.assoc_opt k assoc with
    | Some v -> v
    | None -> failwith ("Workload: shape field missing " ^ k)
  in
  let doi_dist =
    match String.split_on_char ':' (get "doi") with
    | [ "u"; lo; hi ] -> Profile_gen.Uniform (doi_bound lo, doi_bound hi)
    | [ "n"; mean; stddev ] ->
        Profile_gen.Normal { mean = finite mean; stddev = finite stddev }
    | _ -> failwith ("Workload: bad doi distribution: " ^ get "doi")
  in
  let join_doi_range =
    match String.split_on_char ':' (get "join") with
    | [ lo; hi ] -> (doi_bound lo, doi_bound hi)
    | _ -> failwith ("Workload: bad join range: " ^ get "join")
  in
  let n_selections = int_of_string (get "sel") in
  if n_selections < 0 then failwith ("Workload: negative sel: " ^ get "sel");
  { Profile_gen.n_selections; doi_dist; join_doi_range }

let entry_to_line = function
  | Set_profile { user; seed; shape = None } ->
      Printf.sprintf "user\t%s\t%d" user seed
  | Set_profile { user; seed; shape = Some c } ->
      Printf.sprintf "user\t%s\t%d\t%s" user seed (shape_to_field c)
  | Request r ->
      Printf.sprintf "req\t%s\t%s\t%s\t%s\t%s\t%s" r.Serve.user
        (problem_to_field r.Serve.problem)
        (match r.Serve.max_k with None -> "-" | Some k -> string_of_int k)
        (Algorithm.name r.Serve.algorithm)
        (if r.Serve.execute then "x" else "-")
        r.Serve.sql

let entry_of_line line =
  match String.split_on_char '\t' line with
  | [ "user"; user; seed ] ->
      Set_profile { user; seed = int_of_string seed; shape = None }
  | [ "user"; user; seed; shape ] ->
      Set_profile
        {
          user;
          seed = int_of_string seed;
          shape = Some (shape_of_field shape);
        }
  | "req" :: user :: problem :: max_k :: algorithm :: execute :: sql_parts
    when sql_parts <> [] ->
      let sql = String.concat "\t" sql_parts in
      Request
        {
          Serve.user;
          sql;
          problem = problem_of_field problem;
          max_k =
            (match max_k with "-" -> None | k -> Some (int_of_string k));
          algorithm =
            (match Algorithm.of_name algorithm with
            | Some a -> a
            | None -> failwith ("Workload: unknown algorithm: " ^ algorithm));
          execute = (execute = "x");
        }
  | _ -> failwith ("Workload: malformed line: " ^ line)

let save file entries =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (entry_to_line e);
          output_char oc '\n')
        entries)

let load file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* A malformed line names the file and 1-based line number — a
         bare [Failure "Workload: malformed line: ..."] is useless once
         workloads arrive from saved runs or over the wire. *)
      let rec go n acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go (n + 1) acc
        | line ->
            let entry =
              try entry_of_line line with
              | Failure msg ->
                  failwith (Printf.sprintf "%s, line %d: %s" file n msg)
              | Invalid_argument msg ->
                  failwith
                    (Printf.sprintf "%s, line %d: invalid entry: %s" file n msg)
            in
            go (n + 1) (entry :: acc)
      in
      go 1 [])

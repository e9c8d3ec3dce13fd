(* Workload definitions: sizes, the inputs each seed generates, and the
   canonical answer record every run is checked against.

   The dataset — the catalog, the user population, the serve pools and
   the warm pass that set-up replays — is generated from one fixed seed,
   like a benchmark database, so set-up does the same work on every
   seed.  The run's seed draws the traffic over it: which users and
   requests each op carries, the arrival times and the profiles writes
   install.  A run thus averages over many seeded requests instead of
   one seed's handful of hot users.  Per-op randomness is drawn with [Rng.split]
   keyed by op index, so op [i] is the same whatever ran before it. *)

module Rng = Cqp_util.Rng
module Serve = Cqp_serve.Serve
module Workload = Cqp_serve.Workload
module Profile = Cqp_prefs.Profile
module Profile_gen = Cqp_workload.Profile_gen
module Wire = Cqp_net.Wire

type kind = Net_zipf | Serve_exec | Serve_pareto

let kinds =
  [ ("net_zipf", Net_zipf); ("serve_exec", Serve_exec);
    ("serve_pareto", Serve_pareto) ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

(* --- sizes ------------------------------------------------------------ *)

let dataset_seed = 1
let movies = 2000
let zipf_s = 1.1

(* net_zipf: the working set (users on disk) is far past both the
   store's residency and the per-lane 128-entry extraction LRU. *)
let net_users = 20_000
let net_resident = 1_000
let net_rate = 100.0
let net_write_share = 0.1
let net_connections = 2
let net_warm = 400

(* One pool domain, hence one lane.  With two, every request hops
   between domains inside the server, and on a two-core machine that
   hand-off made the tail swing with the load of the machine: p99 over
   ten seeds spread 0.6 to 0.9 of its median, against 0.3 with one. *)
let net_domains = 1

(* serve_exec: the pool fits the extraction LRU and the estimate memo.
   serve_pareto: the pool is five times the 128-entry front LRU. *)
let exec_pool = 100
let exec_users = 25
let exec_warm = 100
let pareto_pool = 640
let pareto_users = 80
let pareto_warm = 256

(* --- inputs ----------------------------------------------------------- *)

type op =
  | Query of Serve.request
  | Write of { user : string; profile : Profile.t }

type traffic =
  | Open of { ops : op array; due_us : float array }
      (** net_zipf: every op with its offset from the schedule start *)
  | Closed of { pool : Serve.request array; pick : int -> int }
      (** serve_*: op [i] is [pool.(pick i)] *)

type t = {
  kind : kind;
  catalog : Cqp_relal.Catalog.t;
  users : int;  (** population size; user [i] is [user_name i] *)
  pop_seed : int;  (** user [i]'s profile has generator seed [pop_seed + i] *)
  traffic : traffic;
  warm : Serve.request array;  (** untimed warm pass, queries only *)
}

let user_name i = "u" ^ string_of_int i

(* The same construction as [cqp netserve --movies --seed]. *)
let catalog_of seed =
  Cqp_workload.Imdb.build
    ~config:{ Cqp_workload.Imdb.default_config with n_movies = movies }
    ~seed ()

let population_profile t i =
  Profile_gen.generate ~rng:(Rng.create (t.pop_seed + i)) t.catalog

let user_index user = int_of_string (String.sub user 1 (String.length user - 1))

(* Zipf over ranks [0, n) by binary search on a precomputed CDF;
   rank 0 is the hottest. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* Poisson arrivals at [rate], conditioned on [n] arrivals in
   [seconds]: exponential gaps rescaled so the last one lands exactly
   at the end of the run.  Throughput then does not move with the
   seed's draw of the arrival count. *)
let poisson_offsets rng ~n ~seconds =
  let acc = ref 0.0 in
  let raw =
    Array.init n (fun _ ->
        acc := !acc -. log (1.0 -. Rng.float rng 1.0);
        !acc)
  in
  let scale = seconds *. 1e6 /. !acc in
  Array.map (fun x -> x *. scale) raw

let net_op catalog cdf content i =
  (* User and request draws follow [Loadgen]'s per-arrival order; the
     write decision and the regenerated profile come from side splits
     so they do not shift those draws. *)
  let r = Rng.split content i in
  let user = user_name (zipf_draw cdf (Rng.float r 1.0)) in
  if Rng.float (Rng.split r 1) 1.0 < net_write_share then
    Write { user; profile = Profile_gen.generate ~rng:(Rng.split r 2) catalog }
  else Query (Workload.random_request ~execute:false ~rng:r ~user catalog)

let make kind ~seed ~seconds =
  let data = Rng.create dataset_seed and draws = Rng.create seed in
  let catalog = catalog_of dataset_seed in
  let pop_seed = Rng.int (Rng.split data 1) 1_000_000_000 in
  let pool_base = Rng.split data 2 and warm_base = Rng.split data 3 in
  let content = Rng.split draws 1 and sched = Rng.split draws 2 in
  let users, traffic, warm =
    match kind with
    | Net_zipf ->
        let cdf = zipf_cdf net_users in
        let n = int_of_float (Float.round (net_rate *. seconds)) in
        let ops = Array.init n (net_op catalog cdf content) in
        let due_us = poisson_offsets sched ~n ~seconds in
        let warm =
          Array.init net_warm (fun i ->
              let r = Rng.split warm_base i in
              let user = user_name (zipf_draw cdf (Rng.float r 1.0)) in
              Workload.random_request ~execute:false ~rng:r ~user catalog)
        in
        (net_users, Open { ops; due_us }, warm)
    | Serve_exec | Serve_pareto ->
        let pool_n, users, warm_n =
          if kind = Serve_exec then (exec_pool, exec_users, exec_warm)
          else (pareto_pool, pareto_users, pareto_warm)
        in
        let pool =
          Array.init pool_n (fun j ->
              let r = Rng.split pool_base j in
              let user = user_name (Rng.int r users) in
              Workload.random_request ~execute:(kind = Serve_exec) ~rng:r
                ~user catalog)
        in
        let cdf = zipf_cdf pool_n in
        let pick_from b i = zipf_draw cdf (Rng.float (Rng.split b i) 1.0) in
        ( users,
          Closed { pool; pick = pick_from sched },
          Array.init warm_n (fun i -> pool.(pick_from warm_base i)) )
  in
  { kind; catalog; users; pop_seed; traffic; warm }

(* An op as a wire frame. *)
let frame = function
  | Query r ->
      Wire.Query
        {
          Wire.user = r.Serve.user;
          sql = r.sql;
          problem = r.problem;
          max_k = r.max_k;
          algorithm = r.algorithm;
          execute = r.execute;
          deadline_ms = None;
        }
  | Write { user; profile } -> Wire.Put_profile { user; profile }

let user_of = function Query r -> r.Serve.user | Write { user; _ } -> user

(* --- answers ---------------------------------------------------------- *)

(* What a client sees of one served query: the chosen preferences,
   the estimated parameters (compared bit for bit), the personalized
   SQL and the digest of the rows. *)
type answer = {
  pref_ids : int list;
  params : Cqp_core.Params.t;
  sql : string;
  rows : int;
  digest : string;
}

let of_wire (s : Wire.served) =
  {
    pref_ids = s.Wire.pref_ids;
    params = s.Wire.params;
    sql = s.Wire.personalized_sql;
    rows = s.Wire.row_count;
    digest = s.Wire.rows_digest;
  }

let answer ~(solution : Cqp_core.Solution.t) ~personalized ~rows =
  {
    pref_ids = solution.Cqp_core.Solution.pref_ids;
    params = solution.Cqp_core.Solution.params;
    sql = Cqp_sql.Printer.to_string personalized;
    rows = List.length rows;
    digest = Wire.rows_digest rows;
  }

let of_outcome (o : Cqp_core.Personalizer.outcome) =
  answer ~solution:o.Cqp_core.Personalizer.solution
    ~personalized:o.Cqp_core.Personalizer.personalized
    ~rows:o.Cqp_core.Personalizer.rows

let same_answer a b =
  let bits f = Int64.bits_of_float f in
  let open Cqp_core.Params in
  a.pref_ids = b.pref_ids
  && bits a.params.doi = bits b.params.doi
  && bits a.params.cost = bits b.params.cost
  && bits a.params.size = bits b.params.size
  && String.equal a.sql b.sql
  && String.equal a.digest b.digest

let describe_answer a =
  Printf.sprintf "prefs [%s] doi %h cost %h size %h rows %d sql %S"
    (String.concat "," (List.map string_of_int a.pref_ids))
    a.params.Cqp_core.Params.doi a.params.Cqp_core.Params.cost
    a.params.Cqp_core.Params.size a.rows a.sql

(* A non-empty personalization must satisfy the request's constraints;
   an empty one is the unpersonalized fallback of an infeasible
   problem. *)
let within_constraints (req : Serve.request) a =
  a.pref_ids = []
  || Cqp_core.Params.satisfies
       req.Serve.problem.Cqp_core.Problem.constraints a.params

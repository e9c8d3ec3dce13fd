module Rng = Cqp_util.Rng
module Problem = Cqp_core.Problem
module Algorithm = Cqp_core.Algorithm
module Profile_gen = Cqp_workload.Profile_gen
module Query_gen = Cqp_workload.Query_gen
module Workload = Cqp_serve.Workload
module Serve = Cqp_serve.Serve
module Fault = Cqp_resilience.Fault
module Config = Cqp_resilience.Config

type arrival = As_drawn | By_user | Shuffled
type deadline = No_deadline | Immediate

type t = {
  seed : int;
  users : int;
  requests : int;
  updates : int;
  zipf_s : float;
  k_min : int;
  k_span : int;
  tightness : float;
  shape : int;
  diversity : int;
  query_pool : int;
  arrival : arrival;
  deadline : deadline;
  shed_depth : int;
  capacity : int;
  max_retries : int;
  fault_seed : int;
  io_spike : float;
  spike_ms : float;
  cache_miss : float;
  evict : float;
  fail : float;
}

let shapes =
  [|
    Profile_gen.default_config;
    { Profile_gen.default_config with Profile_gen.n_selections = 12 };
    {
      Profile_gen.default_config with
      Profile_gen.doi_dist = Profile_gen.Normal { mean = 0.9; stddev = 0.05 };
    };
    {
      Profile_gen.default_config with
      Profile_gen.doi_dist = Profile_gen.Normal { mean = 0.2; stddev = 0.1 };
    };
  |]

(* --- field ranges ------------------------------------------------- *)

let seed_max = 999_999

let is_valid t =
  let i v lo hi = v >= lo && v <= hi in
  let f v lo hi = Float.is_finite v && v >= lo && v <= hi in
  i t.seed 0 seed_max && i t.users 1 10 && i t.requests 6 40
  && i t.updates 0 6
  && f t.zipf_s 0. 2.5
  && i t.k_min 4 16 && i t.k_span 0 8
  && f t.tightness 0. 1.
  && i t.shape 0 (Array.length shapes - 1)
  && i t.diversity 1 8 && i t.query_pool 1 12 && i t.shed_depth 0 32
  && i t.capacity 2 128 && i t.max_retries 0 3 && i t.fault_seed 0 seed_max
  && f t.io_spike 0. 0.9
  && f t.spike_ms 0. 2.
  && f t.cache_miss 0. 0.9
  && f t.evict 0. 0.5
  && f t.fail 0. 0.6

let baseline ~seed =
  {
    seed = max 0 (min seed_max seed);
    users = 3;
    requests = 20;
    updates = 0;
    zipf_s = 0.;
    k_min = 8;
    k_span = 8;
    tightness = 0.;
    shape = 0;
    diversity = 8;
    query_pool = 12;
    arrival = As_drawn;
    deadline = No_deadline;
    shed_depth = 0;
    capacity = 128;
    max_retries = 2;
    fault_seed = 0;
    io_spike = 0.4;
    spike_ms = 1.;
    cache_miss = 0.2;
    evict = 0.05;
    fail = 0.25;
  }

(* --- gene-vector view --------------------------------------------- *)

(* Every field maps to one float in [0, 1].  Integers use bucket
   centers so [genes] then [of_genes] is the identity on valid
   genomes; floats are affine, so one round trip canonicalizes and a
   second is exact — of_genes is idempotent either way, which is the
   closure property the GA needs. *)

let gene_of_int v lo hi =
  (float_of_int (v - lo) +. 0.5) /. float_of_int (hi - lo + 1)

let int_of_gene g lo hi =
  let n = hi - lo + 1 in
  let i = int_of_float (g *. float_of_int n) in
  lo + max 0 (min (n - 1) i)

let gene_of_float v lo hi = if hi = lo then 0. else (v -. lo) /. (hi -. lo)

let float_of_gene g lo hi =
  let g = if Float.is_finite g then g else 0. in
  Float.max lo (Float.min hi (lo +. (g *. (hi -. lo))))

let arrival_all = [| As_drawn; By_user; Shuffled |]
let deadline_all = [| No_deadline; Immediate |]

let index_of arr v =
  let rec go i = if arr.(i) = v then i else go (i + 1) in
  go 0

let n_genes = 22

let genes t =
  [|
    gene_of_int t.seed 0 seed_max;
    gene_of_int t.users 1 10;
    gene_of_int t.requests 6 40;
    gene_of_int t.updates 0 6;
    gene_of_float t.zipf_s 0. 2.5;
    gene_of_int t.k_min 4 16;
    gene_of_int t.k_span 0 8;
    gene_of_float t.tightness 0. 1.;
    gene_of_int t.shape 0 (Array.length shapes - 1);
    gene_of_int t.diversity 1 8;
    gene_of_int t.query_pool 1 12;
    gene_of_int (index_of arrival_all t.arrival) 0 2;
    gene_of_int (index_of deadline_all t.deadline) 0 1;
    gene_of_int t.shed_depth 0 32;
    gene_of_int t.capacity 2 128;
    gene_of_int t.max_retries 0 3;
    gene_of_int t.fault_seed 0 seed_max;
    gene_of_float t.io_spike 0. 0.9;
    gene_of_float t.spike_ms 0. 2.;
    gene_of_float t.cache_miss 0. 0.9;
    gene_of_float t.evict 0. 0.5;
    gene_of_float t.fail 0. 0.6;
  |]

let of_genes g =
  if Array.length g <> n_genes then
    invalid_arg "Genome.of_genes: wrong gene count";
  {
    seed = int_of_gene g.(0) 0 seed_max;
    users = int_of_gene g.(1) 1 10;
    requests = int_of_gene g.(2) 6 40;
    updates = int_of_gene g.(3) 0 6;
    zipf_s = float_of_gene g.(4) 0. 2.5;
    k_min = int_of_gene g.(5) 4 16;
    k_span = int_of_gene g.(6) 0 8;
    tightness = float_of_gene g.(7) 0. 1.;
    shape = int_of_gene g.(8) 0 (Array.length shapes - 1);
    diversity = int_of_gene g.(9) 1 8;
    query_pool = int_of_gene g.(10) 1 12;
    arrival = arrival_all.(int_of_gene g.(11) 0 2);
    deadline = deadline_all.(int_of_gene g.(12) 0 1);
    shed_depth = int_of_gene g.(13) 0 32;
    capacity = int_of_gene g.(14) 2 128;
    max_retries = int_of_gene g.(15) 0 3;
    fault_seed = int_of_gene g.(16) 0 seed_max;
    io_spike = float_of_gene g.(17) 0. 0.9;
    spike_ms = float_of_gene g.(18) 0. 2.;
    cache_miss = float_of_gene g.(19) 0. 0.9;
    evict = float_of_gene g.(20) 0. 0.5;
    fail = float_of_gene g.(21) 0. 0.6;
  }

let mutate_gene rng g =
  let m = g +. Rng.normal rng ~mean:0. ~stddev:0.2 in
  Float.max 0. (Float.min 1. m)

let random rng = of_genes (Array.init n_genes (fun _ -> Rng.float rng 1.0))

(* --- text encoding ------------------------------------------------ *)

let arrival_name = function
  | As_drawn -> "drawn"
  | By_user -> "user"
  | Shuffled -> "shuffled"

let arrival_of_name = function
  | "drawn" -> As_drawn
  | "user" -> By_user
  | "shuffled" -> Shuffled
  | s -> failwith ("Genome: unknown arrival: " ^ s)

let deadline_name = function No_deadline -> "none" | Immediate -> "immediate"

let deadline_of_name = function
  | "none" -> No_deadline
  | "immediate" -> Immediate
  | s -> failwith ("Genome: unknown deadline: " ^ s)

let to_string t =
  (* Keys in alphabetical order: the encoding doubles as a stable
     fingerprint of the genome in scenario files and test output. *)
  String.concat ","
    [
      Printf.sprintf "arrival=%s" (arrival_name t.arrival);
      Printf.sprintf "cache_miss=%h" t.cache_miss;
      Printf.sprintf "capacity=%d" t.capacity;
      Printf.sprintf "deadline=%s" (deadline_name t.deadline);
      Printf.sprintf "diversity=%d" t.diversity;
      Printf.sprintf "evict=%h" t.evict;
      Printf.sprintf "fail=%h" t.fail;
      Printf.sprintf "fault_seed=%d" t.fault_seed;
      Printf.sprintf "io_spike=%h" t.io_spike;
      Printf.sprintf "k_min=%d" t.k_min;
      Printf.sprintf "k_span=%d" t.k_span;
      Printf.sprintf "max_retries=%d" t.max_retries;
      Printf.sprintf "query_pool=%d" t.query_pool;
      Printf.sprintf "requests=%d" t.requests;
      Printf.sprintf "seed=%d" t.seed;
      Printf.sprintf "shape=%d" t.shape;
      Printf.sprintf "shed_depth=%d" t.shed_depth;
      Printf.sprintf "spike_ms=%h" t.spike_ms;
      Printf.sprintf "tightness=%h" t.tightness;
      Printf.sprintf "updates=%d" t.updates;
      Printf.sprintf "users=%d" t.users;
      Printf.sprintf "zipf_s=%h" t.zipf_s;
    ]

let of_string s =
  let assoc =
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | None -> failwith ("Genome: bad pair: " ^ kv)
        | Some i ->
            ( String.sub kv 0 i,
              String.sub kv (i + 1) (String.length kv - i - 1) ))
      (String.split_on_char ',' s)
  in
  let seen = ref [] in
  let get k =
    match List.assoc_opt k assoc with
    | Some v ->
        seen := k :: !seen;
        v
    | None -> failwith ("Genome: missing field: " ^ k)
  in
  let gi k = int_of_string (get k) in
  let gf k = float_of_string (get k) in
  let t =
    {
      arrival = arrival_of_name (get "arrival");
      cache_miss = gf "cache_miss";
      capacity = gi "capacity";
      deadline = deadline_of_name (get "deadline");
      diversity = gi "diversity";
      evict = gf "evict";
      fail = gf "fail";
      fault_seed = gi "fault_seed";
      io_spike = gf "io_spike";
      k_min = gi "k_min";
      k_span = gi "k_span";
      max_retries = gi "max_retries";
      query_pool = gi "query_pool";
      requests = gi "requests";
      seed = gi "seed";
      shape = gi "shape";
      shed_depth = gi "shed_depth";
      spike_ms = gf "spike_ms";
      tightness = gf "tightness";
      updates = gi "updates";
      users = gi "users";
      zipf_s = gf "zipf_s";
    }
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k !seen) then failwith ("Genome: unknown field: " ^ k))
    assoc;
  if not (is_valid t) then failwith ("Genome: out-of-range field in: " ^ s);
  t

(* --- decoding ----------------------------------------------------- *)

let user_name u = Printf.sprintf "u%02d" u

let algorithms =
  [| Algorithm.C_boundaries; Algorithm.C_maxbounds; Algorithm.D_maxdoi |]

(* Tightness scales the drawn cost/size budgets down (to 10% at
   tightness 1) and pushes the doi floor up — the axis that turns an
   easy instance into a deep branch-and-bound near infeasibility. *)
let gen_problem r ~tightness =
  let scale = 1. -. (0.9 *. tightness) in
  match Rng.int r 4 with
  | 0 | 1 ->
      Problem.problem2 ~cmax:(float_of_int (Rng.int_in r 300 3000) *. scale)
  | 2 ->
      Problem.problem3
        ~cmax:(float_of_int (Rng.int_in r 300 3000) *. scale)
        ~smin:1.
        ~smax:(Float.max 2. (float_of_int (Rng.int_in r 200 5000) *. scale))
  | _ ->
      Problem.problem4
        ~dmin:(Float.min 0.98 (0.2 +. Rng.float r 0.6 +. (0.3 *. tightness)))

let shape_config t = if t.shape = 0 then None else Some shapes.(t.shape)

(* Key spaces (all disjoint): [70_000, ...) profile seed pool,
   [80_000, ...) query pool, 90_000 arrival shuffle, [1_000, ...)
   requests, [500_000, ...) updates — the same per-entry independence
   discipline as [Workload.generate]. *)
let decode t catalog =
  let rng = Rng.create t.seed in
  let shape = shape_config t in
  let seed_pool =
    Array.init t.diversity (fun i ->
        Rng.int (Rng.split rng (70_000 + i)) 1_000_000)
  in
  let installs =
    List.init t.users (fun u ->
        Workload.Set_profile
          { user = user_name u; seed = seed_pool.(u mod t.diversity); shape })
  in
  let queries =
    Array.init t.query_pool (fun i ->
        Cqp_sql.Printer.to_string
          (Query_gen.generate_serve ~rng:(Rng.split rng (80_000 + i)) catalog))
  in
  let reqs =
    Array.init t.requests (fun i ->
        let r = Rng.split rng (1_000 + i) in
        let u =
          if t.users = 1 then 0
          else if t.zipf_s < 0.05 then Rng.int r t.users
          else Rng.zipf r ~n:t.users ~s:t.zipf_s - 1
        in
        let sql = queries.(Rng.int r t.query_pool) in
        let problem = gen_problem r ~tightness:t.tightness in
        let max_k = Some (t.k_min + Rng.int r (t.k_span + 1)) in
        let algorithm = algorithms.(Rng.int r (Array.length algorithms)) in
        ( u,
          Workload.Request
            {
              Serve.user = user_name u;
              sql;
              problem;
              max_k;
              algorithm;
              execute = false;
            } ))
  in
  let ordered =
    match t.arrival with
    | As_drawn -> Array.to_list reqs
    | By_user ->
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (Array.to_list reqs)
    | Shuffled ->
        let a = Array.copy reqs in
        Rng.shuffle (Rng.split rng 90_000) a;
        Array.to_list a
  in
  let positioned = List.mapi (fun i (_, e) -> (float_of_int i, e)) ordered in
  let upds =
    List.init t.updates (fun j ->
        let r = Rng.split rng (500_000 + j) in
        ( float_of_int (Rng.int r t.requests) +. 0.5,
          Workload.Set_profile
            {
              user = user_name (Rng.int r t.users);
              seed = Rng.int r 1_000_000;
              shape;
            } ))
  in
  let body =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (positioned @ upds)
    |> List.map snd
  in
  installs @ body

let resilience t =
  let fault =
    if t.fault_seed = 0 then None
    else
      Some
        (Fault.plan
           ~spec:
             {
               Fault.default_spec with
               Fault.io_spike = t.io_spike;
               io_spike_ms = t.spike_ms;
               cache_miss = t.cache_miss;
               evict = t.evict;
               fail = t.fail;
             }
           ~rng:(Rng.create t.fault_seed) ())
  in
  {
    Config.default with
    Config.deadline_ms =
      (match t.deadline with No_deadline -> None | Immediate -> Some 0.);
    max_retries = t.max_retries;
    backoff_ms = 0.05;
    max_backoff_ms = 0.2;
    shed_queue_depth = (if t.shed_depth = 0 then None else Some t.shed_depth);
    fault;
  }

let server ?lanes t catalog =
  Serve.create ~caching:true ~pref_space_capacity:t.capacity
    ~resilience:(resilience t) ?lanes catalog

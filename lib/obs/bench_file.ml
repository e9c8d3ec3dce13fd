type workload = {
  name : string;
  requests : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  states_visited : int;
  cache_hit_rate : float;
  gc_minor_words : float;
  gc_major_words : float;
}

type t = { label : string; workloads : workload list }

(* --- codec ------------------------------------------------------------ *)

let workload_to_json w =
  Jsonx.Obj
    [
      ("name", Jsonx.Str w.name);
      ("requests", Jsonx.Num (float_of_int w.requests));
      ("p50_us", Jsonx.Num w.p50_us);
      ("p99_us", Jsonx.Num w.p99_us);
      ("p999_us", Jsonx.Num w.p999_us);
      ("states_visited", Jsonx.Num (float_of_int w.states_visited));
      ("cache_hit_rate", Jsonx.Num w.cache_hit_rate);
      ("gc_minor_words", Jsonx.Num w.gc_minor_words);
      ("gc_major_words", Jsonx.Num w.gc_major_words);
    ]

let to_json t =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "cqp-bench/1");
      ("label", Jsonx.Str t.label);
      ("workloads", Jsonx.Arr (List.map workload_to_json t.workloads));
    ]

let workload_of_json j =
  let num key =
    match Jsonx.member key j with
    | Some (Jsonx.Num n) -> n
    | _ -> failwith ("Bench_file: missing numeric field " ^ key)
  in
  let str key =
    match Jsonx.member key j with
    | Some (Jsonx.Str s) -> s
    | _ -> failwith ("Bench_file: missing string field " ^ key)
  in
  {
    name = str "name";
    requests = int_of_float (num "requests");
    p50_us = num "p50_us";
    p99_us = num "p99_us";
    p999_us = num "p999_us";
    states_visited = int_of_float (num "states_visited");
    cache_hit_rate = num "cache_hit_rate";
    gc_minor_words = num "gc_minor_words";
    gc_major_words = num "gc_major_words";
  }

let of_json j =
  let label =
    match Jsonx.member "label" j with
    | Some (Jsonx.Str s) -> s
    | _ -> failwith "Bench_file: missing label"
  in
  let workloads =
    match Jsonx.member "workloads" j with
    | Some (Jsonx.Arr ws) -> List.map workload_of_json ws
    | _ -> failwith "Bench_file: missing workloads array"
  in
  { label; workloads }

let write ~file t =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Jsonx.to_string (to_json t));
      output_char oc '\n')

let read file =
  let ic = open_in file in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Jsonx.of_string content)

(* --- comparison ------------------------------------------------------- *)

type direction = Lower_better | Higher_better

type finding = {
  workload : string;
  metric : string;
  timing : bool;
  base : float;
  current : float;
  ratio : float;
  regression : bool;
}

(* Timing metrics carry scheduler noise, so the comparator separates
   them (CI compares with [~ignore_timing:true] against a baseline
   recorded on different hardware) and gives them an absolute epsilon
   floor: a 30µs p50 moving to 40µs is 33% "worse" but is pure jitter,
   not a regression worth failing a build over. *)
let timing_epsilon_us = 50.

let metrics_of (w : workload) =
  [
    ("p50_us", true, Lower_better, w.p50_us);
    ("p99_us", true, Lower_better, w.p99_us);
    ("p999_us", true, Lower_better, w.p999_us);
    ("states_visited", false, Lower_better, float_of_int w.states_visited);
    ("cache_hit_rate", false, Higher_better, w.cache_hit_rate);
    ("gc_minor_words", false, Lower_better, w.gc_minor_words);
    ("gc_major_words", false, Lower_better, w.gc_major_words);
  ]

let compare_metric ~tolerance ~dir ~base ~current ~timing =
  let ratio = if base = 0. then (if current = 0. then 1. else infinity) else current /. base in
  let worse =
    match dir with
    | Lower_better ->
        current > (base *. (1. +. tolerance))
        && (not timing || current -. base > timing_epsilon_us)
    | Higher_better -> current < base *. (1. -. tolerance)
  in
  (ratio, worse)

let diff ?(tolerance = 0.20) ?(ignore_timing = false) ~base ~current () =
  List.concat_map
    (fun (bw : workload) ->
      match
        List.find_opt (fun (cw : workload) -> cw.name = bw.name)
          current.workloads
      with
      | None ->
          (* A workload dropped from the suite is itself a regression:
             coverage silently shrank. *)
          [
            {
              workload = bw.name;
              metric = "present";
              timing = false;
              base = 1.;
              current = 0.;
              ratio = 0.;
              regression = true;
            };
          ]
      | Some cw ->
          List.filter_map
            (fun ((metric, timing, dir, b), (_, _, _, c)) ->
              if timing && ignore_timing then None
              else
                let ratio, regression =
                  compare_metric ~tolerance ~dir ~base:b ~current:c ~timing
                in
                Some
                  {
                    workload = bw.name;
                    metric;
                    timing;
                    base = b;
                    current = c;
                    ratio;
                    regression;
                  })
            (List.combine (metrics_of bw) (metrics_of cw)))
    base.workloads

let has_regression findings = List.exists (fun f -> f.regression) findings

let pp_finding ppf f =
  if f.metric = "present" then
    Format.fprintf ppf "%-12s %-16s MISSING from current file" f.workload
      f.metric
  else
    Format.fprintf ppf "%-12s %-16s %12.1f -> %12.1f  (x%.3f)%s%s" f.workload
      f.metric f.base f.current f.ratio
      (if f.timing then "  [timing]" else "")
      (if f.regression then "  REGRESSION" else "")

let n_buckets = 64

type instrument =
  | Counter of { mutable n : int }
  | Gauge of { mutable v : float }
  | Histogram of {
      mutable count : int;
      mutable sum : float;
      buckets : int array;
    }

let enabled = ref false
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

(* One mutex guards the registry and every instrument mutation, so
   concurrent publishes from pool domains lose no updates.  The guards
   below ([if !enabled then ...]) stay outside it: while the registry
   is disabled no lock is ever taken, preserving the zero-cost
   contract (test_par_stress asserts [lock_acquisitions] stays flat
   while disabled). *)
let lock = Mutex.create ()
let acquisitions = Atomic.make 0

let locked f =
  Mutex.lock lock;
  Atomic.incr acquisitions;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let lock_acquisitions () = Atomic.get acquisitions

let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled
let reset () = locked (fun () -> Hashtbl.reset registry)

let find_or_create name make =
  match Hashtbl.find_opt registry name with
  | Some i -> i
  | None ->
      let i = make () in
      Hashtbl.add registry name i;
      i

(* The recorders are split into a tiny guard (small enough for the
   compiler to inline at call sites, leaving a load + branch on the hot
   path while disabled) and an out-of-line slow path. *)

let record_add name by =
  locked @@ fun () ->
  match find_or_create name (fun () -> Counter { n = 0 }) with
  | Counter c -> c.n <- c.n + by
  | _ -> invalid_arg ("Metrics.add: " ^ name ^ " is not a counter")

let[@inline] add name by = if !enabled then record_add name by
let[@inline] incr name = if !enabled then record_add name 1

let record_gauge name v =
  locked @@ fun () ->
  match find_or_create name (fun () -> Gauge { v }) with
  | Gauge g -> g.v <- v
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

let[@inline] gauge name v = if !enabled then record_gauge name v

(* NaN must be rejected before this point ([int_of_float nan] is
   undefined behaviour); negative and sub-unit observations land in
   bucket 0 by explicit decision, not by fallthrough. *)
let bucket_index v =
  if Float.is_nan v then invalid_arg "Metrics.bucket_index: nan"
  else if v < 0. then 0
  else if v < 1. then 0
  else min (n_buckets - 1) (1 + int_of_float (Float.floor (Float.log2 v)))

let bucket_upper_bound i =
  if i >= n_buckets - 1 then infinity else Float.pow 2. (float_of_int i)

let record_observe name v =
  locked @@ fun () ->
  if Float.is_nan v then begin
    (* A NaN observation would poison [sum] forever and has no bucket;
       drop it but leave a trace.  The counter is bumped inline — the
       registry mutex is not reentrant, so [record_add] cannot be
       called from here. *)
    match find_or_create "metrics.observe_nan" (fun () -> Counter { n = 0 }) with
    | Counter c -> c.n <- c.n + 1
    | _ -> ()
  end
  else
    match
      find_or_create name (fun () ->
          Histogram { count = 0; sum = 0.; buckets = Array.make n_buckets 0 })
    with
    | Histogram h ->
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        let i = bucket_index v in
        h.buckets.(i) <- h.buckets.(i) + 1
    | _ -> invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")

let[@inline] observe name v = if !enabled then record_observe name v

let counter_value name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c.n
  | _ -> 0

let gauge_value name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> Some g.v
  | _ -> None

let histogram_count name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h.count
  | _ -> 0

let histogram_sum name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> Some h.sum
  | _ -> None

(* Nearest-rank quantile over the log-scale buckets: the exclusive
   upper bound of the bucket holding the q-th observation, i.e. an
   upper estimate within the 2x bucket resolution.  Exact percentiles
   need the raw sample (the bench trend harness keeps one); this is
   for summaries and scrapers working off the registry alone. *)
let histogram_quantile name q =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) when h.count > 0 ->
      let q = Float.max 0. (Float.min 1. q) in
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
      in
      let rec go i cum =
        if i >= n_buckets then Some infinity
        else
          let cum = cum + h.buckets.(i) in
          if cum >= rank then Some (bucket_upper_bound i) else go (i + 1) cum
      in
      go 0 0
  | _ -> None

(* --- export ---------------------------------------------------------- *)

let sorted_instruments () =
  locked @@ fun () ->
  Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json () =
  let all = sorted_instruments () in
  let counters =
    List.filter_map
      (function
        | name, Counter c -> Some (name, Jsonx.Num (float_of_int c.n))
        | _ -> None)
      all
  in
  let gauges =
    List.filter_map
      (function name, Gauge g -> Some (name, Jsonx.Num g.v) | _ -> None)
      all
  in
  let histograms =
    List.filter_map
      (function
        | name, Histogram h ->
            let buckets =
              List.filter_map
                (fun i ->
                  if h.buckets.(i) = 0 then None
                  else
                    Some
                      (Jsonx.Obj
                         [
                           ("le", Jsonx.Num (bucket_upper_bound i));
                           ("count", Jsonx.Num (float_of_int h.buckets.(i)));
                         ]))
                (List.init n_buckets Fun.id)
            in
            Some
              ( name,
                Jsonx.Obj
                  [
                    ("count", Jsonx.Num (float_of_int h.count));
                    ("sum", Jsonx.Num h.sum);
                    ("buckets", Jsonx.Arr buckets);
                  ] )
        | _ -> None)
      all
  in
  Jsonx.Obj
    [
      ("counters", Jsonx.Obj counters);
      ("gauges", Jsonx.Obj gauges);
      ("histograms", Jsonx.Obj histograms);
    ]

let to_json_string () = Jsonx.to_string (to_json ())

let write_json ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json_string ()))

let dump_json ~file =
  write_json ~file;
  let counters, gauges, histograms =
    List.fold_left
      (fun (c, g, h) (_, i) ->
        match i with
        | Counter _ -> (c + 1, g, h)
        | Gauge _ -> (c, g + 1, h)
        | Histogram _ -> (c, g, h + 1))
      (0, 0, 0) (sorted_instruments ())
  in
  Format.eprintf "metrics -> %s (%d counters, %d gauges, %d histograms)@."
    file counters gauges histograms

(* --- Prometheus text exposition -------------------------------------- *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; our dotted convention
   maps 1:1 by replacing the dots. *)
let prometheus_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prometheus_number f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, i) ->
      let pname = prometheus_name name in
      match i with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname c.n)
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s gauge\n%s %s\n" pname pname
               (prometheus_number g.v))
      | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s histogram\n" pname);
          (* Non-empty finite buckets, cumulative; the overflow bucket
             is folded into the mandatory "+Inf" line. *)
          let cum = ref 0 in
          for i = 0 to n_buckets - 2 do
            if h.buckets.(i) > 0 then begin
              cum := !cum + h.buckets.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname
                   (prometheus_number (bucket_upper_bound i))
                   !cum)
            end
          done;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname h.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" pname (prometheus_number h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" pname h.count))
    (sorted_instruments ());
  Buffer.contents buf

let write_prometheus ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_prometheus ()))

let pp ppf () =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun (name, i) ->
      match i with
      | Counter c -> Format.fprintf ppf "%-32s %d@ " name c.n
      | Gauge g -> Format.fprintf ppf "%-32s %g@ " name g.v
      | Histogram h ->
          Format.fprintf ppf "%-32s count=%d sum=%g@ " name h.count h.sum)
    (sorted_instruments ());
  Format.pp_close_box ppf ()

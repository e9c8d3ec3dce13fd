(* In-memory span recorder for the traced run.

   A span is one call into a layer: its name, monotonic start and end,
   the span that caused it (the op's [Request] root), the op id and
   the minor words the call allocated.  Spans are appended to flat
   arrays while the run goes and written out only when it ends; with
   recording off, [with_span] is a plain call. *)

module Clock = Cqp_obs.Clock

type name =
  | Request
  | Wire_encode
  | Wire_decode
  | Store_find
  | Store_put
  | Sql_parse
  | Sql_analyze
  | Estimate
  | Pref_space
  | Nsga2
  | Solver
  | Rewrite
  | Exec

let all =
  [| Request; Wire_encode; Wire_decode; Store_find; Store_put; Sql_parse;
     Sql_analyze; Estimate; Pref_space; Nsga2; Solver; Rewrite; Exec |]

let index = function
  | Request -> 0
  | Wire_encode -> 1
  | Wire_decode -> 2
  | Store_find -> 3
  | Store_put -> 4
  | Sql_parse -> 5
  | Sql_analyze -> 6
  | Estimate -> 7
  | Pref_space -> 8
  | Nsga2 -> 9
  | Solver -> 10
  | Rewrite -> 11
  | Exec -> 12

let label = function
  | Request -> "request"
  | Wire_encode -> "wire.encode"
  | Wire_decode -> "wire.decode"
  | Store_find -> "store.find"
  | Store_put -> "store.put"
  | Sql_parse -> "sql.parse"
  | Sql_analyze -> "sql.analyze"
  | Estimate -> "estimate"
  | Pref_space -> "pref_space"
  | Nsga2 -> "nsga2"
  | Solver -> "solver"
  | Rewrite -> "rewrite"
  | Exec -> "exec"

(* The layer a span belongs to: its label up to the first dot. *)
let layer name =
  let l = label name in
  match String.index_opt l '.' with Some i -> String.sub l 0 i | None -> l

type t = {
  on : bool;
  mutable n : int;
  mutable name : int array;
  mutable op : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable words : float array;
  mutable current : int;  (** innermost open span, [-1] outside any *)
}

let create ~on =
  let cap = if on then 1 lsl 14 else 0 in
  {
    on;
    n = 0;
    name = Array.make cap 0;
    op = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    words = Array.make cap 0.;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name 0;
  t.op <- extend t.op 0;
  t.parent <- extend t.parent 0;
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.words <- extend t.words 0.

let with_span t ~op name f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- index name;
    t.op.(i) <- op;
    t.parent.(i) <- t.current;
    let outer = t.current in
    t.current <- i;
    let w0 = Gc.minor_words () in
    t.start.(i) <- Clock.now_us ();
    let finish () =
      t.stop.(i) <- Clock.now_us ();
      t.words.(i) <- Gc.minor_words () -. w0;
      t.current <- outer
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let duration t i = t.stop.(i) -. t.start.(i)

(* Self time: a span's duration minus the durations of its children. *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

(* Per-name summaries over every recorded span. *)
type summary = {
  calls : int;
  self_us : float;  (** summed self time *)
  durations : float array;  (** per-call durations, µs *)
  minor_words : float;  (** summed minor words *)
}

let summarize t =
  let self = self_times t in
  Array.map
    (fun name ->
      let k = index name in
      let calls = ref 0 and s = ref 0. and w = ref 0. and ds = ref [] in
      for i = 0 to t.n - 1 do
        if t.name.(i) = k then begin
          incr calls;
          s := !s +. self.(i);
          w := !w +. t.words.(i);
          ds := duration t i :: !ds
        end
      done;
      {
        calls = !calls;
        self_us = !s;
        durations = Array.of_list !ds;
        minor_words = !w;
      })
    all

(* Each root's duration and the share of it its children cover. *)
let roots t =
  let self = self_times t in
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.parent.(i) < 0 then begin
      let d = duration t i in
      let covered = if d > 0. then (d -. self.(i)) /. d else 1. in
      acc := (t.op.(i), d, covered) :: !acc
    end
  done;
  Array.of_list !acc

(* Chrome trace_event JSON (complete events), loadable in about:tracing
   or Perfetto. *)
let write t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      for i = 0 to t.n - 1 do
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d,\"minor_words\":%.0f}}"
          (label all.(t.name.(i)))
          t.start.(i) (duration t i) t.op.(i) t.parent.(i) t.words.(i)
      done;
      output_string oc "\n]}\n")

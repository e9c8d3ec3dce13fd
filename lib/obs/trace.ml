let enabled = ref false

(* Completed and in-flight spans in start order (cons-reversed) and a
   capacity guard for long runs.  The buffer and its counters are
   shared across domains and guarded by [lock]; nothing here runs
   unless tracing is enabled, so the disabled path stays lock-free.
   The stack of open spans is per-domain (DLS): a span's parent is the
   innermost span opened by the *same* domain, which keeps parent
   links meaningful when pool workers trace concurrently.  The same
   domain-local record marks which phases have an open span, so only
   the outermost span of a phase carries it. *)
let lock = Mutex.create ()
let buffer : Span.t list ref = ref []

type local = { mutable stack : Span.t list; open_phase : bool array }

let local_key =
  Domain.DLS.new_key (fun () ->
      { stack = []; open_phase = Array.make Phase.count false })

let count = ref 0
let next_id = ref 0
let capacity = ref 1_000_000
let dropped_count = ref 0

(* Human-readable names for the domains that emit spans, exported as
   Chrome [thread_name] metadata so pool workers get labeled tracks.
   Registered unconditionally (creation-time, off the hot path) so a
   pool built before tracing is enabled still exports its names. *)
let thread_names : (int, string) Hashtbl.t = Hashtbl.create 8

let name_thread name =
  let tid = (Domain.self () :> int) in
  Mutex.lock lock;
  Hashtbl.replace thread_names tid name;
  Mutex.unlock lock

let () = name_thread "main"

let is_enabled () = !enabled

let reset () =
  Mutex.lock lock;
  buffer := [];
  count := 0;
  next_id := 0;
  dropped_count := 0;
  Mutex.unlock lock;
  (* Only the calling domain's stack can be cleared; worker domains
     are expected to be quiescent (no open spans) across a reset. *)
  (Domain.DLS.get local_key).stack <- []

let enable () =
  enabled := true;
  Request.set_tracing true;
  Clock.reset_origin ()

let disable () =
  enabled := false;
  Request.set_tracing false

let set_capacity n = capacity := max 1 n
let under_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let span_count () = under_lock (fun () -> !count)
let dropped () = under_lock (fun () -> !dropped_count)
let spans () = List.rev (under_lock (fun () -> !buffer))

let open_span local ~name ~phase attrs =
  let parent, depth =
    match local.stack with
    | [] -> (-1, 0)
    | s :: _ -> (s.Span.id, s.Span.depth + 1)
  in
  let attrs = match attrs with None -> [] | Some thunk -> thunk () in
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  let sp =
    {
      Span.id;
      parent;
      depth;
      name;
      phase;
      tid = (Domain.self () :> int);
      start_us = Clock.now_us ();
      dur_us = -1.;
      attrs;
    }
  in
  if !count < !capacity then begin
    buffer := sp :: !buffer;
    incr count
  end
  else incr dropped_count;
  Mutex.unlock lock;
  sp

let close_span local sp =
  match local.stack with
  | s :: rest when s == sp -> local.stack <- rest
  | _ ->
      (* Unbalanced exit (an exception skipped inner closes): pop past
         the span so the stack stays consistent. *)
      let rec pop = function
        | s :: rest when s == sp -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      local.stack <- pop local.stack

(* The one timing path.  Each end of the span reads the clock once;
   the two readings become the trace span when tracing is on and, for
   the outermost span of a phase inside a profiled request, that
   phase's time and GC words. *)
let timed ~name phase attrs f =
  let local = Domain.DLS.get local_key in
  let phase =
    match phase with
    | Some p when not local.open_phase.(Phase.index p) -> phase
    | _ -> None
  in
  let credit = Option.bind phase Request.enter in
  if not (!enabled || Option.is_some credit) then f ()
  else begin
    let sp =
      if !enabled then begin
        let sp = open_span local ~name ~phase attrs in
        local.stack <- sp :: local.stack;
        Some sp
      end
      else None
    in
    let t0 =
      match sp with Some sp -> sp.Span.start_us | None -> Clock.now_us ()
    in
    Option.iter (fun p -> local.open_phase.(Phase.index p) <- true) phase;
    let finish () =
      let us = Clock.now_us () -. t0 in
      Option.iter (fun p -> local.open_phase.(Phase.index p) <- false) phase;
      Option.iter
        (fun sp ->
          sp.Span.dur_us <- us;
          close_span local sp)
        sp;
      Option.iter (Request.leave ~us) credit
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let with_span ~name ?phase ?attrs f =
  if not !Request.timing then f () else timed ~name phase attrs f

let add_attr attr =
  if !enabled then
    let local = Domain.DLS.get local_key in
    match local.stack with
    | [] -> ()
    | sp :: _ -> sp.Span.attrs <- attr :: sp.Span.attrs

let instant ~name ?attrs () =
  if !enabled then begin
    let sp = open_span (Domain.DLS.get local_key) ~name ~phase:None attrs in
    sp.Span.dur_us <- 0.
  end

(* --- export ---------------------------------------------------------- *)

let json_of_attr_value : Attr.value -> Jsonx.t = function
  | Attr.Str s -> Jsonx.Str s
  | Attr.Int i -> Jsonx.Num (float_of_int i)
  | Attr.Float f -> Jsonx.Num f
  | Attr.Bool b -> Jsonx.Bool b

let event_of_span (sp : Span.t) =
  let args =
    List.rev_map (fun (k, v) -> (k, json_of_attr_value v)) sp.Span.attrs
  in
  let args =
    match sp.Span.phase with
    | Some p -> ("phase", Jsonx.Str (Phase.name p)) :: args
    | None -> args
  in
  Jsonx.Obj
    [
      ("name", Jsonx.Str sp.Span.name);
      ("cat", Jsonx.Str "cqp");
      ("ph", Jsonx.Str "X");
      ("ts", Jsonx.Num sp.Span.start_us);
      ("dur", Jsonx.Num (Float.max 0. sp.Span.dur_us));
      ("pid", Jsonx.Num 1.);
      ("tid", Jsonx.Num (float_of_int sp.Span.tid));
      ("args", Jsonx.Obj args);
    ]

(* Metadata events: the process name plus one [thread_name] per domain
   that either registered a name or emitted a span, so trace viewers
   show "pool-worker-N" tracks instead of bare thread ids. *)
let metadata_events spans =
  let meta name tid args =
    Jsonx.Obj
      [
        ("name", Jsonx.Str name);
        ("ph", Jsonx.Str "M");
        ("pid", Jsonx.Num 1.);
        ("tid", Jsonx.Num (float_of_int tid));
        ("args", Jsonx.Obj args);
      ]
  in
  let tids = Hashtbl.create 8 in
  Mutex.lock lock;
  Hashtbl.iter (fun tid name -> Hashtbl.replace tids tid name) thread_names;
  Mutex.unlock lock;
  List.iter
    (fun (sp : Span.t) ->
      if not (Hashtbl.mem tids sp.Span.tid) then
        Hashtbl.replace tids sp.Span.tid
          (Printf.sprintf "domain-%d" sp.Span.tid))
    spans;
  let threads =
    Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) tids []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  meta "process_name" 0 [ ("name", Jsonx.Str "cqp") ]
  :: List.map
       (fun (tid, name) -> meta "thread_name" tid [ ("name", Jsonx.Str name) ])
       threads

let to_chrome_json () =
  let spans = spans () in
  Jsonx.Obj
    [
      ( "traceEvents",
        Jsonx.Arr (metadata_events spans @ List.map event_of_span spans) );
      ("displayTimeUnit", Jsonx.Str "ms");
      ("otherData", Jsonx.Obj [ ("dropped", Jsonx.Num (float_of_int !dropped_count)) ]);
    ]

let to_chrome_string () = Jsonx.to_string (to_chrome_json ())

(* Flush-on-exit support: a worker domain dying mid-batch or an
   uncaught exception used to leave the trace file truncated or never
   written at all under [--domains N].  [auto_flush] arms an [at_exit]
   hook that writes the pending file; a normal [write_chrome] to that
   same file disarms it, so the trace is written exactly once either
   way. *)
let pending_flush = ref None
let flush_hook_registered = ref false

let rec write_chrome ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_string ()));
  if !pending_flush = Some file then pending_flush := None

and flush_pending () =
  match !pending_flush with
  | Some file -> write_chrome ~file
  | None -> ()

let auto_flush ~file =
  pending_flush := Some file;
  if not !flush_hook_registered then begin
    flush_hook_registered := true;
    at_exit flush_pending
  end

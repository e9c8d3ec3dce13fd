(* Request profiling is its own switch, layered on the metrics
   registry.  [Trace.with_span] serves both tracing and profiling, so
   its disabled path tests [timing], the disjunction of the two
   switches; each switch keeps it current when it flips. *)
let enabled = ref false
let tracing = ref false
let timing = ref false
let sync () = timing := !enabled || !tracing

let enable () =
  enabled := true;
  sync ()

let disable () =
  enabled := false;
  sync ()

let is_enabled () = !enabled

let set_tracing on =
  tracing := on;
  sync ()

(* Ids are handed out unconditionally (one atomic increment) so every
   response carries a stable id whether or not profiling is on, and
   ids stay unique across serving domains. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

type ctx = {
  id : int;
  user : string;
  phase_us : float array;
  phase_minor : float array;
  phase_major : float array;
  gc0 : Gc.stat;
}

(* The active request is domain-local: each pool domain serves one
   request at a time, and DLS keeps concurrent requests on different
   domains from clobbering each other's accumulators. *)
let current : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let start ~id ~user =
  if !enabled then
    Domain.DLS.get current
    := Some
         {
           id;
           user;
           phase_us = Array.make Phase.count 0.;
           phase_minor = Array.make Phase.count 0.;
           phase_major = Array.make Phase.count 0.;
           gc0 = Gc.quick_stat ();
         }

let active () = !enabled && !(Domain.DLS.get current) <> None

let record_us p us =
  if !enabled then
    match !(Domain.DLS.get current) with
    | None -> ()
    | Some ctx ->
        let i = Phase.index p in
        ctx.phase_us.(i) <- ctx.phase_us.(i) +. Float.max 0. us

type credit = { ctx : ctx; i : int; g0 : Gc.stat }

let enter p =
  if not !enabled then None
  else
    match !(Domain.DLS.get current) with
    | None -> None
    | Some ctx -> Some { ctx; i = Phase.index p; g0 = Gc.quick_stat () }

let leave { ctx; i; g0 } ~us =
  let g1 = Gc.quick_stat () in
  ctx.phase_us.(i) <- ctx.phase_us.(i) +. Float.max 0. us;
  ctx.phase_minor.(i) <-
    ctx.phase_minor.(i) +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  ctx.phase_major.(i) <-
    ctx.phase_major.(i) +. (g1.Gc.major_words -. g0.Gc.major_words)

let phase_us p =
  match !(Domain.DLS.get current) with
  | None -> 0.
  | Some ctx -> ctx.phase_us.(Phase.index p)

let abort () = Domain.DLS.get current := None

let finish ~rung ~outcome ~cache_hits ~cache_lookups ~latency_us =
  if !enabled then begin
    let slot = Domain.DLS.get current in
    match !slot with
    | None -> ()
    | Some ctx ->
        slot := None;
        let g1 = Gc.quick_stat () in
        let gc_minor = g1.Gc.minor_words -. ctx.gc0.Gc.minor_words in
        let gc_major = g1.Gc.major_words -. ctx.gc0.Gc.major_words in
        if Metrics.is_enabled () then begin
          Metrics.incr "profile.requests";
          Metrics.observe "profile.request_us" latency_us;
          Metrics.add "profile.gc.request.minor_words"
            (int_of_float gc_minor);
          Metrics.add "profile.gc.request.major_words"
            (int_of_float gc_major);
          Metrics.add "profile.gc.request.compactions"
            (g1.Gc.compactions - ctx.gc0.Gc.compactions);
          List.iter
            (fun p ->
              let i = Phase.index p in
              if ctx.phase_us.(i) > 0. then begin
                let n = Phase.name p in
                Metrics.observe ("profile.phase." ^ n ^ "_us")
                  ctx.phase_us.(i);
                Metrics.add ("profile.gc." ^ n ^ ".minor_words")
                  (int_of_float ctx.phase_minor.(i));
                Metrics.add ("profile.gc." ^ n ^ ".major_words")
                  (int_of_float ctx.phase_major.(i))
              end)
            Phase.all
        end;
        if Reqlog.is_open () then
          Reqlog.log
            {
              Reqlog.id = ctx.id;
              user = ctx.user;
              rung;
              outcome;
              latency_us;
              phases =
                List.filter_map
                  (fun p ->
                    let us = ctx.phase_us.(Phase.index p) in
                    if us > 0. then Some (Phase.name p, us) else None)
                  Phase.all;
              cache_hits;
              cache_lookups;
              gc_minor_words = gc_minor;
              gc_major_words = gc_major;
            }
  end

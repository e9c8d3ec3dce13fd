type event = {
  id : int;
  user : string;
  rung : string;
  outcome : string;
  latency_us : float;
  phases : (string * float) list;
  cache_hits : int;
  cache_lookups : int;
  gc_minor_words : float;
  gc_major_words : float;
}

(* --- JSON line codec -------------------------------------------------- *)

let to_json e =
  Jsonx.Obj
    [
      ("id", Jsonx.Num (float_of_int e.id));
      ("user", Jsonx.Str e.user);
      ("rung", Jsonx.Str e.rung);
      ("outcome", Jsonx.Str e.outcome);
      ("latency_us", Jsonx.Num e.latency_us);
      ("phases", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num v)) e.phases));
      ("cache_hits", Jsonx.Num (float_of_int e.cache_hits));
      ("cache_lookups", Jsonx.Num (float_of_int e.cache_lookups));
      ("gc_minor_words", Jsonx.Num e.gc_minor_words);
      ("gc_major_words", Jsonx.Num e.gc_major_words);
    ]

let to_line e = Jsonx.to_string (to_json e)

let of_json j =
  let num key =
    match Jsonx.member key j with
    | Some (Jsonx.Num n) -> n
    | _ -> failwith ("Reqlog: missing numeric field " ^ key)
  in
  let str key =
    match Jsonx.member key j with
    | Some (Jsonx.Str s) -> s
    | _ -> failwith ("Reqlog: missing string field " ^ key)
  in
  let phases =
    match Jsonx.member "phases" j with
    | Some (Jsonx.Obj fields) ->
        List.map
          (function
            | k, Jsonx.Num v -> (k, v)
            | k, _ -> failwith ("Reqlog: non-numeric phase " ^ k))
          fields
    | _ -> failwith "Reqlog: missing phases object"
  in
  {
    id = int_of_float (num "id");
    user = str "user";
    rung = str "rung";
    outcome = str "outcome";
    latency_us = num "latency_us";
    phases;
    cache_hits = int_of_float (num "cache_hits");
    cache_lookups = int_of_float (num "cache_lookups");
    gc_minor_words = num "gc_minor_words";
    gc_major_words = num "gc_major_words";
  }

let of_line line = of_json (Jsonx.of_string line)

(* --- sink ------------------------------------------------------------- *)

(* One buffered channel shared by every serving domain, mutex-guarded
   per line.  [close] flushes; an [at_exit] hook closes a sink left
   open so the log survives early exits intact (same discipline as
   [Trace.auto_flush]). *)
let lock = Mutex.create ()
let sink : out_channel option ref = ref None
let logged = ref 0
let exit_hook_registered = ref false

let close () =
  Mutex.lock lock;
  (match !sink with
  | Some oc ->
      sink := None;
      close_out oc
  | None -> ());
  Mutex.unlock lock

let set_file file =
  close ();
  Mutex.lock lock;
  sink := Some (open_out file);
  logged := 0;
  Mutex.unlock lock;
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit close
  end

let is_open () =
  Mutex.lock lock;
  let r = !sink <> None in
  Mutex.unlock lock;
  r

let logged_count () = !logged

let log e =
  Mutex.lock lock;
  (match !sink with
  | Some oc ->
      output_string oc (to_line e);
      output_char oc '\n';
      incr logged
  | None -> ());
  Mutex.unlock lock

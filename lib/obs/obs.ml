let enable () =
  Trace.enable ();
  Metrics.enable ()

let disable () =
  Trace.disable ();
  Metrics.disable ()

let reset () =
  Trace.reset ();
  Metrics.reset ()

let with_sinks ?trace ?metrics ?prometheus ?events ?(profile = false) f =
  let profile = profile || events <> None in
  Option.iter
    (fun file ->
      Trace.enable ();
      Trace.auto_flush ~file)
    trace;
  if profile || metrics <> None || prometheus <> None then Metrics.enable ();
  if profile then Request.enable ();
  Option.iter Reqlog.set_file events;
  let r = f () in
  Option.iter
    (fun file ->
      Reqlog.close ();
      Format.eprintf "events: %d request lines -> %s@." (Reqlog.logged_count ())
        file)
    events;
  Option.iter
    (fun file ->
      Metrics.write_prometheus ~file;
      Format.eprintf "prometheus exposition -> %s@." file)
    prometheus;
  Option.iter
    (fun file ->
      Trace.write_chrome ~file;
      Format.eprintf "trace: %d spans -> %s%s@." (Trace.span_count ()) file
        (match Trace.dropped () with
        | 0 -> ""
        | n -> Printf.sprintf " (%d dropped)" n))
    trace;
  Option.iter (fun file -> Metrics.dump_json ~file) metrics;
  r

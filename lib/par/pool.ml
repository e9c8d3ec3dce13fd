module Metrics = Cqp_obs.Metrics

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

(* Workers block on [nonempty] until a job arrives or the pool shuts
   down; jobs are pre-wrapped by the submitter and never raise. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && t.live do
    Condition.wait t.nonempty t.lock
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* Empty and no longer live: exit. *)
      Mutex.unlock t.lock
  | Some job ->
      Mutex.unlock t.lock;
      job ();
      worker_loop t

let create ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [||];
      size = domains;
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () ->
            Cqp_obs.Trace.name_thread (Printf.sprintf "pool-worker-%d" (i + 1));
            worker_loop t));
  Metrics.gauge "par.pool.domains" (float_of_int domains);
  t

let domains t = t.size

(* Re-raise the lowest-index captured exception: deterministic no
   matter which domain failed first in wall-clock time. *)
let reraise_first errs =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errs

let run_all t jobs =
  let n = Array.length jobs in
  if n = 0 then ()
  else if not t.live then invalid_arg "Pool.run_all: pool is shut down"
  else begin
    Metrics.incr "par.pool.batches";
    Metrics.add "par.pool.tasks" n;
    if t.size = 1 then
      (* Inline: the exact sequential semantics (first raise aborts). *)
      Array.iteri (fun i job -> job i) jobs
    else begin
      let errs = Array.make n None in
      let batch_lock = Mutex.create () in
      let batch_done = Condition.create () in
      let remaining = ref n in
      (* Batch submission is one enqueue instant, so a job's queue wait
         is simply start-of-run minus the stamp — a direct read on how
         much a batch outnumbers the pool. *)
      let enqueued_us =
        if Metrics.is_enabled () then Cqp_obs.Clock.raw_us () else 0.
      in
      let wrap i () =
        if Metrics.is_enabled () && enqueued_us > 0. then
          Metrics.observe "par.pool.queue_wait_us"
            (Float.max 0. (Cqp_obs.Clock.raw_us () -. enqueued_us));
        (try jobs.(i) i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           errs.(i) <- Some (e, bt);
           Metrics.incr "par.pool.errors");
        Mutex.lock batch_lock;
        decr remaining;
        if !remaining = 0 then Condition.broadcast batch_done;
        Mutex.unlock batch_lock
      in
      Mutex.lock t.lock;
      for i = 0 to n - 1 do
        Queue.add (wrap i) t.queue
      done;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.lock;
      (* The submitter is a worker too while its batch is in flight —
         this also makes nested submissions from inside jobs safe. *)
      let rec help () =
        Mutex.lock t.lock;
        match Queue.take_opt t.queue with
        | Some job ->
            Mutex.unlock t.lock;
            job ();
            help ()
        | None -> Mutex.unlock t.lock
      in
      help ();
      Mutex.lock batch_lock;
      while !remaining > 0 do
        Condition.wait batch_done batch_lock
      done;
      Mutex.unlock batch_lock;
      reraise_first errs
    end
  end

let map t f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  run_all t (Array.init n (fun i -> fun _ -> out.(i) <- Some (f xs.(i))));
  Array.map
    (function
      | Some v -> v
      | None -> assert false (* every slot written or run_all raised *))
    out

let shutdown t =
  Mutex.lock t.lock;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if was_live then Array.iter Domain.join t.workers

let with_pool ~domains f =
  let t = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

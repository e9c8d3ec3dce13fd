module Serve = Cqp_serve.Serve
module Metrics = Cqp_obs.Metrics
module Clock = Cqp_obs.Clock

type addr = Unix_path of string | Tcp of string * int

type lane = { serve : Serve.t; mu : Mutex.t }

type t = {
  serve : Serve.t;
  addr : addr;
  lanes : lane array;
  inflight : int Atomic.t;
  store : Store.t option;
  store_mu : Mutex.t;
  max_connections : int;
  active : int Atomic.t;
  stopping : bool Atomic.t;
  mutable listen_fd : Unix.file_descr option;
  mutable bound : Unix.sockaddr option;
  mutable accept_domain : unit Domain.t option;
  conns_mu : Mutex.t;
  conns : (int, unit Domain.t) Hashtbl.t;
  mutable finished : int list;
  mutable next_conn : int;
  stop_mu : Mutex.t;
  stop_cv : Condition.t;
  mutable stopped : bool;
}

let lane_of t user = t.lanes.(Serve.shard_of user (Array.length t.lanes))

let publish_store t =
  match t.store with
  | None -> ()
  | Some store ->
      let s = Store.stats store in
      Metrics.gauge "net.store.resident" (float_of_int s.Store.resident);
      Metrics.gauge "net.store.users" (float_of_int s.Store.users);
      Metrics.gauge "net.store.blobs" (float_of_int s.Store.blobs)

let create ?(max_connections = 32) ?store_dir ?(store_resident = 4096) ~lanes
    ~addr serve =
  if max_connections < 1 then invalid_arg "Server.create: max_connections < 1";
  let lanes =
    Array.map
      (fun s -> { serve = s; mu = Mutex.create () })
      (Serve.shards serve lanes)
  in
  let t =
    {
      serve;
      addr;
      lanes;
      inflight = Atomic.make 0;
      store = None;
      store_mu = Mutex.create ();
      max_connections;
      active = Atomic.make 0;
      stopping = Atomic.make false;
      listen_fd = None;
      bound = None;
      accept_domain = None;
      conns_mu = Mutex.create ();
      conns = Hashtbl.create 16;
      finished = [];
      next_conn = 0;
      stop_mu = Mutex.create ();
      stop_cv = Condition.create ();
      stopped = false;
    }
  in
  match store_dir with
  | None -> t
  | Some dir ->
      (* Lock order: the eviction hook runs with the store mutex held
         (Store calls sit under it) and takes a lane mutex — so no
         code path may take the store mutex while holding a lane's. *)
      let on_evict user _profile =
        let lane = lane_of t user in
        Mutex.protect lane.mu (fun () ->
            Serve.remove_profile lane.serve ~user)
      in
      let store =
        Store.open_ ~resident_capacity:store_resident ~on_evict dir
      in
      (* A prepopulated store's users become servable without a warm-up
         round of installs: residency stays empty (bounded) until
         queries fault profiles in. *)
      { t with store = Some store }

(* --- socket plumbing -------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let send fd resp =
  let s = Wire.encode_response resp in
  write_all fd s;
  Metrics.add "net.bytes_out" (String.length s)

(* --- request handling ------------------------------------------------- *)

let install_profile t ~user profile =
  (match t.store with
  | Some store ->
      Mutex.protect t.store_mu (fun () -> Store.put store ~user profile)
  | None -> ());
  let lane = lane_of t user in
  Mutex.protect lane.mu (fun () -> Serve.set_profile lane.serve ~user profile);
  publish_store t

(* Run one admitted query on its lane, faulting the profile from the
   store if the lane does not hold it.  It runs on the connection's
   own domain under the lane mutex, which is what caps the queries
   running at once at the lane count.  The fault check releases the
   lane mutex before touching the store (lock order), then re-takes it
   for install + serve in one critical section, so an eviction of this
   user cannot interleave between install and serve. *)
let ensure_and_handle t (lane : lane) (q : Wire.query) serve_req pos enq =
  let run () =
    Serve.handle ~queue_position:pos ?enqueued_us:enq ?deadline_ms:q.deadline_ms
      lane.serve serve_req
  in
  let installed =
    Mutex.protect lane.mu (fun () ->
        Serve.profile lane.serve q.user <> None)
  in
  if installed then Mutex.protect lane.mu run
  else
    match t.store with
    | None -> raise (Serve.Unknown_user q.user)
    | Some store -> (
        match Mutex.protect t.store_mu (fun () -> Store.find store q.user) with
        | None -> raise (Serve.Unknown_user q.user)
        | Some profile ->
            publish_store t;
            Mutex.protect lane.mu (fun () ->
                Serve.set_profile lane.serve ~user:q.user profile;
                run ()))

(* Admission is by arrival order, as in [Workload.replay]: a query's
   queue position is the server-wide count of queries in flight when
   it arrives, whichever lane it hashes to, so lanes only execute. *)
let handle_query t fd (q : Wire.query) =
  Metrics.incr "net.requests";
  let lane = lane_of t q.user in
  let pos = Atomic.fetch_and_add t.inflight 1 in
  (* Only [net.request_us] and profiling's [queue_wait] read the
     stamp, so the clock is left alone while both are off. *)
  let enq =
    if Metrics.is_enabled () || Cqp_obs.Request.is_enabled () then
      Some (Clock.now_us ())
    else None
  in
  let serve_req =
    {
      Serve.user = q.user;
      sql = q.sql;
      problem = q.problem;
      max_k = q.max_k;
      algorithm = q.algorithm;
      execute = q.execute;
    }
  in
  let reply =
    match ensure_and_handle t lane q serve_req pos enq with
    | resp ->
        (match resp.Serve.verdict with
        | Serve.Served _ -> Metrics.incr "net.replies.served"
        | Serve.Shed _ -> Metrics.incr "net.replies.shed");
        Wire.response_of_serve resp
    | exception Serve.Unknown_user u ->
        Metrics.incr "net.errors.unknown_user";
        Wire.Error
          {
            code = Wire.Unknown_user;
            message = "no profile installed for " ^ u;
          }
    | exception Cqp_sql.Parser.Parse_error (msg, at) ->
        Metrics.incr "net.errors.bad_request";
        Wire.Error
          {
            code = Wire.Bad_request;
            message = Printf.sprintf "parse error at %d: %s" at msg;
          }
    | exception Cqp_sql.Lexer.Lex_error (msg, at) ->
        Metrics.incr "net.errors.bad_request";
        Wire.Error
          {
            code = Wire.Bad_request;
            message = Printf.sprintf "lex error at %d: %s" at msg;
          }
    | exception Cqp_sql.Analyzer.Semantic_error msg ->
        Metrics.incr "net.errors.bad_request";
        Wire.Error { code = Wire.Bad_request; message = msg }
    | exception e ->
        Metrics.incr "net.errors.server_error";
        Wire.Error { code = Wire.Server_error; message = Printexc.to_string e }
  in
  Atomic.decr t.inflight;
  send fd reply;
  match enq with
  | Some e when Metrics.is_enabled () ->
      Metrics.observe "net.request_us" (Clock.now_us () -. e)
  | _ -> ()

let initiate_stop t = Atomic.set t.stopping true

let handle_request t fd req alive =
  match req with
  | Wire.Ping ->
      Metrics.incr "net.pings";
      send fd Wire.Pong
  | Wire.Shutdown ->
      send fd Wire.Bye;
      initiate_stop t;
      alive := false
  | Wire.Install { user; seed; shape } ->
      Metrics.incr "net.installs";
      install_profile t ~user
        (Cqp_serve.Workload.seeded_profile ?shape (Serve.catalog t.serve) seed);
      send fd Wire.Ok_ack
  | Wire.Put_profile { user; profile } ->
      Metrics.incr "net.puts";
      install_profile t ~user profile;
      send fd Wire.Ok_ack
  | Wire.Query q -> handle_query t fd q

(* --- connection loop -------------------------------------------------- *)

let connection t fd id =
  (* The read timeout doubles as the drain poll: an idle connection
     wakes a few times a second to notice the stop flag. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05 with _ -> ());
  let reader = Wire.reader () in
  let alive = ref true in
  (try
     while !alive && not (Atomic.get t.stopping) do
       match Wire.next_request reader with
       | Result.Ok req -> handle_request t fd req alive
       | Result.Error Wire.Truncated -> (
           match Wire.refill reader (Unix.read fd) with
           | 0 -> alive := false
           | n -> Metrics.add "net.bytes_in" n
           | exception
               Unix.Unix_error
                 ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
               ()
           | exception Unix.Unix_error _ -> alive := false)
       | Result.Error e ->
           (* Framing is lost: answer once, hang up. *)
           Metrics.incr "net.frame_errors";
           (try
              send fd
                (Wire.Error
                   {
                     code = Wire.Bad_request;
                     message = Wire.error_to_string e;
                   })
            with _ -> ());
           alive := false
     done
   with _ -> ());
  (try Unix.close fd with _ -> ());
  Atomic.decr t.active;
  Metrics.gauge "net.connections.active" (float_of_int (Atomic.get t.active));
  Mutex.protect t.conns_mu (fun () -> t.finished <- id :: t.finished)

(* Join connection domains that have announced completion. *)
let reap t =
  let done_ids =
    Mutex.protect t.conns_mu (fun () ->
        let ids = t.finished in
        t.finished <- [];
        ids)
  in
  List.iter
    (fun id ->
      match Mutex.protect t.conns_mu (fun () ->
          let d = Hashtbl.find_opt t.conns id in
          Hashtbl.remove t.conns id;
          d)
      with
      | Some d -> Domain.join d
      | None -> ())
    done_ids

let spawn_connection t fd =
  let id = t.next_conn in
  t.next_conn <- t.next_conn + 1;
  let d = Domain.spawn (fun () -> connection t fd id) in
  Mutex.protect t.conns_mu (fun () -> Hashtbl.replace t.conns id d)

(* --- accept loop ------------------------------------------------------ *)

let accept_loop t fd =
  while not (Atomic.get t.stopping) do
    reap t;
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept fd with
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
        | cfd, _ ->
            if Atomic.get t.stopping then Unix.close cfd
            else if Atomic.fetch_and_add t.active 1 >= t.max_connections
            then begin
              Atomic.decr t.active;
              Metrics.incr "net.connections.rejected";
              (try
                 send cfd
                   (Wire.Error
                      {
                        code = Wire.Busy;
                        message = "connection limit reached";
                      })
               with _ -> ());
              (try Unix.close cfd with _ -> ())
            end
            else begin
              Metrics.incr "net.connections.accepted";
              Metrics.gauge "net.connections.active"
                (float_of_int (Atomic.get t.active));
              spawn_connection t cfd
            end)
  done;
  (try Unix.close fd with _ -> ());
  (* Drain: every connection loop sees the stop flag within its read
     timeout and exits; join them all. *)
  let remaining =
    Mutex.protect t.conns_mu (fun () ->
        let ds = Hashtbl.fold (fun _ d acc -> d :: acc) t.conns [] in
        Hashtbl.reset t.conns;
        t.finished <- [];
        ds)
  in
  List.iter Domain.join remaining;
  (match t.store with
  | Some store ->
      publish_store t;
      Mutex.protect t.store_mu (fun () -> Store.close store)
  | None -> ());
  Mutex.protect t.stop_mu (fun () ->
      t.stopped <- true;
      Condition.broadcast t.stop_cv)

let start t =
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let fd, sockaddr =
    match t.addr with
    | Unix_path path ->
        if Sys.file_exists path then (try Unix.unlink path with _ -> ());
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        let inet = Unix.inet_addr_of_string host in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (fd, Unix.ADDR_INET (inet, port))
  in
  (try
     Unix.bind fd sockaddr;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  t.listen_fd <- Some fd;
  t.bound <- Some (Unix.getsockname fd);
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t fd))

let bound_addr t =
  match t.bound with
  | Some a -> a
  | None -> invalid_arg "Server.bound_addr: not started"

let wait t =
  Mutex.lock t.stop_mu;
  while not t.stopped do
    Condition.wait t.stop_cv t.stop_mu
  done;
  Mutex.unlock t.stop_mu

let stop t =
  initiate_stop t;
  (match t.accept_domain with
  | Some _ -> wait t
  | None ->
      (* Never started: nothing to drain, but leave the store closed
         and the server in its terminal state. *)
      (match t.store with
      | Some store -> Mutex.protect t.store_mu (fun () -> Store.close store)
      | None -> ());
      Mutex.protect t.stop_mu (fun () ->
          t.stopped <- true;
          Condition.broadcast t.stop_cv));
  let d =
    Mutex.protect t.conns_mu (fun () ->
        let d = t.accept_domain in
        t.accept_domain <- None;
        d)
  in
  match d with Some d -> Domain.join d | None -> ()

let serving t =
  t.accept_domain <> None && (not (Atomic.get t.stopping))

(* Differential tests for the network front door.

   The oracle is the in-process sequential replay: a seeded workload
   replayed through [Workload.replay] and the same workload driven
   through a loopback TCP server must produce bit-identical results —
   solutions, params, personalized SQL, rung labels, retries, row
   digests — at 1, 2 and 4 lanes.  Both sides are projected onto
   [Wire.response] (the wire's own observable) and compared
   structurally.

   A second group covers the protocol edges the oracle cannot reach:
   ping, unknown users, parse errors, framing errors, busy rejection,
   graceful shutdown, arrival-order admission across lanes, and
   serving out of a persistent store across a server restart with a
   bounded resident working set. *)

module C = Cqp_core
module S = Cqp_serve
module Rng = Cqp_util.Rng
module Wire = Cqp_net.Wire
module Server = Cqp_net.Server
module Client = Cqp_net.Client
module Store = Cqp_net.Store
module Loadgen = Cqp_net.Loadgen

let catalog = lazy (Testlib.small_imdb ~seed:3 ())

let workload seed =
  (* Executed requests and mid-stream profile updates included: row
     digests must survive the wire, and installs must land in entry
     order. *)
  S.Workload.generate ~users:4 ~requests:8 ~updates:2 ~execute:true
    ~rng:(Rng.create seed) (Lazy.force catalog)

let query_of_request (r : S.Serve.request) =
  {
    Wire.user = r.S.Serve.user;
    sql = r.S.Serve.sql;
    problem = r.S.Serve.problem;
    max_k = r.S.Serve.max_k;
    algorithm = r.S.Serve.algorithm;
    execute = r.S.Serve.execute;
    deadline_ms = None;
  }

(* The in-process oracle, projected to wire observables. *)
let inprocess_observables entries =
  let server = S.Serve.create ~caching:true (Lazy.force catalog) in
  List.map Wire.response_of_serve (S.Workload.replay server entries)

let with_loopback ?store_dir ?store_resident ?max_connections ?resilience
    ~lanes f =
  let serve =
    S.Serve.create ~caching:true ?resilience ~lanes (Lazy.force catalog)
  in
  Alcotest.(check int) "server lanes" lanes (S.Serve.lanes serve);
  let srv =
    Server.create ?store_dir ?store_resident ?max_connections
      ~addr:(Server.Tcp ("127.0.0.1", 0))
      serve
  in
  Server.start srv;
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f (Server.bound_addr srv))

(* Replay a workload through one client connection, returning the
   query replies in entry order. *)
let replay_over_wire addr entries =
  let c = Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.filter_map
        (function
          | S.Workload.Set_profile { user; seed; shape } ->
              Client.install c ~user ?shape seed;
              None
          | S.Workload.Request req ->
              Some (Client.call c (Wire.Query (query_of_request req))))
        entries)

let loopback_observables ~lanes entries =
  with_loopback ~lanes (fun addr -> replay_over_wire addr entries)

let prop_net_identical_to_inprocess =
  QCheck.Test.make
    ~name:"loopback replay bit-identical to in-process (domains 1, 2, 4)"
    ~count:4
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let entries = workload seed in
      let oracle = inprocess_observables entries in
      List.for_all
        (fun lanes -> compare (loopback_observables ~lanes entries) oracle = 0)
        [ 1; 2; 4 ])

(* Two clients replaying the same workload against one server must
   each see exactly the sequential results: the second replay hits
   warm caches and re-installs profiles, neither of which may change
   an answer. *)
let test_two_clients_isolated () =
  let entries = workload 11 in
  let oracle = inprocess_observables entries in
  with_loopback ~lanes:4 (fun addr ->
      let a = replay_over_wire addr entries in
      let b = replay_over_wire addr entries in
      Alcotest.(check bool)
        "first client matches oracle" true
        (compare a oracle = 0);
      Alcotest.(check bool)
        "second (warm) client matches" true
        (compare b oracle = 0))

(* --- protocol edges --------------------------------------------------- *)

let test_ping_and_unknown_user () =
  with_loopback ~lanes:1 (fun addr ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.ping c;
          match
            Client.call c
              (Wire.Query
                 (query_of_request
                    {
                      S.Serve.user = "nobody";
                      sql = "select title from movie";
                      problem = C.Problem.problem2 ~cmax:500.0;
                      max_k = None;
                      algorithm = C.Algorithm.C_boundaries;
                      execute = false;
                    }))
          with
          | Wire.Error { code = Wire.Unknown_user; _ } -> ()
          | _ -> Alcotest.fail "expected Unknown_user"))

let test_bad_sql_is_bad_request () =
  with_loopback ~lanes:1 (fun addr ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.install c ~user:"alice" 1;
          match
            Client.call c
              (Wire.Query
                 (query_of_request
                    {
                      S.Serve.user = "alice";
                      sql = "select select select";
                      problem = C.Problem.problem2 ~cmax:500.0;
                      max_k = None;
                      algorithm = C.Algorithm.C_boundaries;
                      execute = false;
                    }))
          with
          | Wire.Error { code = Wire.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "expected Bad_request"))

(* A client error is the client's: with two lanes, an unknown user and
   bad SQL are answered with their error codes and counted under
   [net.errors.*], and no pool job is counted as failed. *)
let test_client_errors_are_not_pool_errors () =
  let module Metrics = Cqp_obs.Metrics in
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
  @@ fun () ->
  with_loopback ~lanes:2 (fun addr ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.install c ~user:"alice" 1;
          let code user sql =
            match
              Client.call c
                (Wire.Query
                   (query_of_request
                      {
                        S.Serve.user;
                        sql;
                        problem = C.Problem.problem2 ~cmax:500.0;
                        max_k = None;
                        algorithm = C.Algorithm.C_boundaries;
                        execute = false;
                      }))
            with
            | Wire.Error { code; _ } -> Some code
            | _ -> None
          in
          Alcotest.(check bool)
            "unknown user" true
            (code "nobody" "select title from movie" = Some Wire.Unknown_user);
          Alcotest.(check bool)
            "bad sql" true
            (code "alice" "select select select" = Some Wire.Bad_request)));
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) name n (Metrics.counter_value name))
    [
      ("net.requests", 2);
      ("net.errors.unknown_user", 1);
      ("net.errors.bad_request", 1);
      ("net.errors.server_error", 0);
      ("par.pool.errors", 0);
    ]

let test_garbage_frame_closes_connection () =
  with_loopback ~lanes:1 (fun addr ->
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Unix.connect fd addr;
      (* A syntactically complete frame with an unknown tag. *)
      let junk = "\x00\x00\x00\x01\x7f" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      let buf = Bytes.create 4096 in
      let n = Unix.read fd buf 0 4096 in
      (match Wire.decode_response (Bytes.sub_string buf 0 n) with
      | Result.Ok (Wire.Error { code = Wire.Bad_request; _ }, _) -> ()
      | _ -> Alcotest.fail "expected an Error reply before hangup");
      (* The server hangs up after a framing error: EOF follows. *)
      Alcotest.(check int) "connection closed" 0 (Unix.read fd buf 0 4096);
      Unix.close fd)

let test_busy_rejection () =
  with_loopback ~lanes:1 ~max_connections:1 (fun addr ->
      let c1 = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c1)
        (fun () ->
          Client.ping c1;
          (* The limit counts live connections: a second one is turned
             away with Busy and closed. *)
          let c2 = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c2)
            (fun () ->
              match Client.call c2 Wire.Ping with
              | Wire.Error { code = Wire.Busy; _ } -> ()
              | Wire.Pong -> Alcotest.fail "second connection admitted"
              | _ -> Alcotest.fail "expected Busy"
              | exception Client.Closed -> ())))

let test_shutdown_frame_drains () =
  let serve = S.Serve.create ~caching:true ~lanes:2 (Lazy.force catalog) in
  let srv = Server.create ~addr:(Server.Tcp ("127.0.0.1", 0)) serve in
  Server.start srv;
  let c = Client.connect (Server.bound_addr srv) in
  Client.ping c;
  Client.shutdown c;
  Client.close c;
  (* The Bye reply precedes the drain; wait observes completion. *)
  Server.wait srv;
  Server.stop srv;
  Alcotest.(check bool) "not serving" false (Server.serving srv)

(* Admission is by arrival order across the whole server, not per lane:
   with two lanes and a shed depth of 1, a query that arrives while
   another user's query is in flight on the other lane is shed at
   position 1.  Every request sleeps in a 400 ms injected spike, so the
   first query is still in flight when the second arrives. *)
let test_shed_counts_every_lane () =
  let resilience =
    {
      Cqp_resilience.Config.default with
      Cqp_resilience.Config.shed_queue_depth = Some 1;
      fault =
        Some
          (Cqp_resilience.Fault.plan
             ~spec:
               {
                 Cqp_resilience.Fault.default_spec with
                 Cqp_resilience.Fault.io_spike = 1.;
                 io_spike_ms = 400.;
                 cache_miss = 0.;
                 evict = 0.;
                 fail = 0.;
               }
             ~rng:(Rng.create 5) ());
    }
  in
  (* Users are hashed onto lanes; pick two that land on different ones. *)
  let lane = S.Serve.lane_of (S.Serve.create ~lanes:2 (Lazy.force catalog)) in
  let user_a = "alice" in
  let user_b =
    List.find
      (fun u -> lane u <> lane user_a)
      (List.init 16 (fun i -> "bob" ^ string_of_int i))
  in
  let query user =
    Wire.Query
      (query_of_request
         {
           S.Serve.user;
           sql = "select title from movie";
           problem = C.Problem.problem2 ~cmax:500.0;
           max_k = Some 4;
           algorithm = C.Algorithm.C_boundaries;
           execute = false;
         })
  in
  with_loopback ~resilience ~lanes:2 (fun addr ->
      let a = Client.connect addr and b = Client.connect addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          Client.install a ~user:user_a 1;
          Client.install a ~user:user_b 2;
          let first = Domain.spawn (fun () -> Client.call a (query user_a)) in
          Unix.sleepf 0.1;
          (match Client.call b (query user_b) with
          | Wire.Shed { queue_position; limit } ->
              Alcotest.(check (pair int int))
                "second arrival shed at position 1 of depth 1" (1, 1)
                (queue_position, limit)
          | _ -> Alcotest.fail "expected the second arrival to be shed");
          match Domain.join first with
          | Wire.Served _ -> ()
          | _ -> Alcotest.fail "expected the first arrival to be served"))

(* --- store-backed serving --------------------------------------------- *)

let with_store_dir f = Testlib.with_temp_dir "cqp-netdiff" f

let test_store_survives_restart () =
  with_store_dir @@ fun dir ->
  (* No mid-stream updates: the restarted server serves the store's
     last-wins profiles, so the oracle must have used stable ones. *)
  let entries =
    S.Workload.generate ~users:4 ~requests:8 ~updates:0 ~execute:true
      ~rng:(Rng.create 23) (Lazy.force catalog)
  in
  let oracle = inprocess_observables entries in
  (* First server: installs write through to the store. *)
  let first =
    with_loopback ~store_dir:dir ~lanes:2 (fun addr ->
        replay_over_wire addr entries)
  in
  Alcotest.(check bool)
    "store-backed replay matches" true
    (compare first oracle = 0);
  (* Second server, same directory, no installs: queries must fault
     every profile back from disk and produce identical results. *)
  let queries_only =
    List.filter (function S.Workload.Request _ -> true | _ -> false) entries
  in
  let replayed =
    with_loopback ~store_dir:dir ~lanes:2 (fun addr ->
        replay_over_wire addr queries_only)
  in
  Alcotest.(check bool)
    "restarted server serves from disk" true
    (compare replayed oracle = 0)

let test_bounded_working_set_under_load () =
  with_store_dir @@ fun dir ->
  let users = 64 in
  let resident = 8 in
  Loadgen.populate_store ~dir ~users ~seed:100 (Lazy.force catalog);
  with_loopback ~store_dir:dir ~store_resident:resident ~lanes:2 (fun addr ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let rng = Rng.create 9 in
          for i = 0 to 199 do
            let user = "u" ^ string_of_int (Rng.int rng users) in
            let req =
              S.Workload.random_request ~rng:(Rng.split rng i) ~user
                (Lazy.force catalog)
            in
            match Client.call c (Wire.Query (query_of_request req)) with
            | Wire.Served _ | Wire.Shed _ -> ()
            | Wire.Error { message; _ } ->
                Alcotest.failf "request %d failed: %s" i message
            | _ -> Alcotest.failf "request %d: unexpected reply" i
          done));
  (* Reopen the directory cold and check nothing was lost. *)
  let s = Store.open_ dir in
  Alcotest.(check int) "population intact" users (Store.users s);
  Store.close s

let () =
  Testlib.seed_banner "test_net_diff";
  Alcotest.run "cqp_net differential"
    [
      ( "differential",
        [
          Testlib.qc prop_net_identical_to_inprocess;
          Alcotest.test_case "two clients isolated" `Quick
            test_two_clients_isolated;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "ping and unknown user" `Quick
            test_ping_and_unknown_user;
          Alcotest.test_case "bad sql is bad request" `Quick
            test_bad_sql_is_bad_request;
          Alcotest.test_case "client errors are not pool errors" `Quick
            test_client_errors_are_not_pool_errors;
          Alcotest.test_case "garbage frame closes connection" `Quick
            test_garbage_frame_closes_connection;
          Alcotest.test_case "busy rejection" `Quick test_busy_rejection;
          Alcotest.test_case "shutdown frame drains" `Quick
            test_shutdown_frame_drains;
          Alcotest.test_case "shed counts every lane" `Quick
            test_shed_counts_every_lane;
        ] );
      ( "store-backed",
        [
          Alcotest.test_case "store survives restart" `Quick
            test_store_survives_restart;
          Alcotest.test_case "bounded working set under load" `Quick
            test_bounded_working_set_under_load;
        ] );
    ]

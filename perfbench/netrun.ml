(* net_zipf's moving parts: the [cqp netserve] child process over a
   prepopulated store, and the benchmark's own open-loop load generator.

   The generator splits the users over its connections: every op of a
   user goes over the same connection, so the per-user order that
   answers depend on is the schedule's.  Each op is timed
   from the moment it was due, not from when its connection got round
   to sending it, so a stall that delays later sends is counted in
   their latency; how late the sends ran is reported on its own. *)

module Client = Cqp_net.Client
module Wire = Cqp_net.Wire
module Serve = Cqp_serve.Serve
module Clock = Cqp_obs.Clock

type server = { pid : int; sockaddr : Unix.sockaddr }

let spawn ~cli ~seed ~store ~socket =
  let args =
    [| cli; "netserve"; "--unix"; socket; "--store"; store;
       "--store-resident"; string_of_int Plan.net_resident;
       "--domains"; string_of_int Plan.net_domains;
       "--movies"; string_of_int Plan.movies;
       "--seed"; string_of_int seed |]
  in
  (* The child's stdout (its "listening on" line) goes to our stderr:
     the benchmark's stdout carries only the report. *)
  let pid = Unix.create_process cli args Unix.stdin Unix.stderr Unix.stderr in
  { pid; sockaddr = Unix.ADDR_UNIX socket }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Connect once the child has bound its socket, then ping. *)
let connect srv =
  let give_up = Clock.now_us () +. 60e6 in
  let rec go () =
    match Client.connect srv.sockaddr with
    | c ->
        Client.ping c;
        c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if exited srv.pid then failwith "netserve exited during start-up";
        if Clock.now_us () > give_up then failwith "netserve did not start";
        Unix.sleepf 0.005;
        go ()
  in
  go ()

(* Peak resident set of a live process, MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> find ()
      in
      find ())

(* Drain the server with a Shutdown frame and reap it; a child that
   does not stop within ten seconds is killed. *)
let stop srv clients =
  (match clients with
  | c :: _ -> ( try Client.shutdown c with _ -> ())
  | [] -> ());
  List.iter Client.close clients;
  let give_up = Clock.now_us () +. 10e6 in
  let rec reap () =
    if not (exited srv.pid) then
      if Clock.now_us () > give_up then begin
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
  in
  reap ()

let connection_of user =
  Plan.user_index user mod Plan.net_connections

(* Op indices [0, n) split by the connection of their user, each list
   in order. *)
let by_connection n user_at =
  let per = Array.make Plan.net_connections [] in
  for i = n - 1 downto 0 do
    let c = connection_of (user_at i) in
    per.(c) <- i :: per.(c)
  done;
  per

(* One system thread per connection, all in this domain: the generator
   mostly waits on sockets, and a single domain keeps its own garbage
   collections from stopping other domains. *)
let in_parallel clients job =
  let ts =
    Array.mapi (fun c client -> Thread.create (fun () -> job c client) ()) clients
  in
  Array.iter Thread.join ts

(* Untimed warm pass: each connection sends its warm queries back to
   back. *)
let warm clients (reqs : Serve.request array) =
  let per = by_connection (Array.length reqs) (fun i -> reqs.(i).Serve.user) in
  in_parallel clients (fun c client ->
      List.iter
        (fun i -> ignore (Client.call client (Plan.frame (Plan.Query reqs.(i)))))
        per.(c))

type run = {
  replies : (Wire.response, string) result array;
  latency_ms : float array;  (** due time to reply *)
  lag_ms : float array;  (** due time to send *)
  wall_s : float;  (** first op due to last reply *)
}

let open_loop clients (ops : Plan.op array) (due_us : float array) =
  let n = Array.length ops in
  let frames = Array.map Plan.frame ops in
  let per = by_connection n (fun i -> Plan.user_of ops.(i)) in
  let replies = Array.make n (Error "not sent") in
  let latency_ms = Array.make n 0. and lag_ms = Array.make n 0. in
  let last = Array.make (Array.length clients) 0. in
  (* A short lead lets both connection threads start before op 0. *)
  let start = Clock.now_us () +. 20_000. in
  in_parallel clients (fun c client ->
      let dead = ref None in
      List.iter
        (fun i ->
          let due = start +. due_us.(i) in
          match !dead with
          | Some msg -> replies.(i) <- Error msg
          | None ->
              let now = Clock.now_us () in
              if now < due then Unix.sleepf ((due -. now) /. 1e6);
              let sent = Clock.now_us () in
              (match Client.call client frames.(i) with
              | r -> replies.(i) <- Ok r
              | exception e ->
                  let msg = Printexc.to_string e in
                  dead := Some msg;
                  replies.(i) <- Error msg);
              let finished = Clock.now_us () in
              latency_ms.(i) <- (finished -. due) /. 1000.;
              lag_ms.(i) <- (sent -. due) /. 1000.;
              last.(c) <- Float.max last.(c) finished)
        per.(c));
  let first_us = start +. (if n > 0 then due_us.(0) else 0.) in
  let wall_s = (Array.fold_left Float.max start last -. first_us) /. 1e6 in
  { replies; latency_ms; lag_ms; wall_s }

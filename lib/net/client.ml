type t = { fd : Unix.file_descr; reader : Wire.reader; mutable closed : bool }

exception Closed
exception Protocol of Wire.error

let connect sockaddr =
  (* A server hanging up mid-write must surface as EPIPE, not kill the
     process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; reader = Wire.reader (); closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with _ -> ()
  end

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let rec read_response t =
  match Wire.next_response t.reader with
  | Result.Ok resp -> resp
  | Result.Error Wire.Truncated -> (
      match Wire.refill t.reader (Unix.read t.fd) with
      | 0 -> raise Closed
      | _ -> read_response t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_response t)
  | Result.Error e -> raise (Protocol e)

let call t req =
  if t.closed then raise Closed;
  write_all t.fd (Wire.encode_request req);
  read_response t

let summary = function
  | Wire.Served _ -> "served"
  | Wire.Shed _ -> "shed"
  | Wire.Ok_ack -> "ok"
  | Wire.Pong -> "pong"
  | Wire.Error { message; _ } -> "error: " ^ message
  | Wire.Bye -> "bye"

let ping t =
  match call t Wire.Ping with
  | Wire.Pong -> ()
  | r -> failwith ("Client.ping: " ^ summary r)

let expect_ack what t req =
  match call t req with
  | Wire.Ok_ack -> ()
  | r -> failwith (Printf.sprintf "Client.%s: %s" what (summary r))

let install t ~user ?shape seed =
  expect_ack "install" t (Wire.Install { user; seed; shape })

let put_profile t ~user profile =
  expect_ack "put_profile" t (Wire.Put_profile { user; profile })

let shutdown t =
  match call t Wire.Shutdown with
  | Wire.Bye -> ()
  | r -> failwith ("Client.shutdown: " ^ summary r)

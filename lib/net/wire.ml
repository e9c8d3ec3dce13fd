module Profile = Cqp_prefs.Profile
module Profile_gen = Cqp_workload.Profile_gen
module Problem = Cqp_core.Problem
module Params = Cqp_core.Params
module Algorithm = Cqp_core.Algorithm
module Rung = Cqp_resilience.Rung
module Value = Cqp_relal.Value
module Ast = Cqp_sql.Ast

type error =
  | Truncated
  | Oversized of int
  | Bad_tag of int
  | Malformed of string

let error_to_string = function
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Bad_tag t -> Printf.sprintf "unknown frame tag 0x%02x" t
  | Malformed msg -> "malformed frame: " ^ msg

let max_frame_len = 16 * 1024 * 1024

type query = {
  user : string;
  sql : string;
  problem : Problem.t;
  max_k : int option;
  algorithm : Algorithm.t;
  execute : bool;
  deadline_ms : float option;
}

type request =
  | Install of {
      user : string;
      seed : int;
      shape : Profile_gen.config option;
    }
  | Put_profile of { user : string; profile : Profile.t }
  | Query of query
  | Ping
  | Shutdown

type error_code = Bad_request | Unknown_user | Busy | Server_error

type served = {
  rung : Rung.t;
  retries : int;
  deadline_expired : bool;
  front_point : int option;
  pref_ids : int list;
  params : Params.t;
  personalized_sql : string;
  row_count : int;
  rows_digest : string;
}

type response =
  | Served of served
  | Shed of { queue_position : int; limit : int }
  | Ok_ack
  | Pong
  | Error of { code : error_code; message : string }
  | Bye

(* --- primitive writers ------------------------------------------------ *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  if v < 0 then invalid_arg "Wire: negative u32";
  put_u8 buf (v lsr 24);
  put_u8 buf (v lsr 16);
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)
let put_bool buf b = put_u8 buf (if b then 1 else 0)

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_option put buf = function
  | None -> put_u8 buf 0
  | Some v ->
      put_u8 buf 1;
      put buf v

(* --- primitive readers ------------------------------------------------ *)

(* Readers work on a bounded cursor and never step outside [limit]; a
   short or inconsistent payload raises [Bad] internally, which the
   frame decoders translate into a typed [Malformed]. *)

exception Bad of string

type cursor = { buf : string; mutable pos : int; limit : int }

let need c n =
  if c.pos + n > c.limit then raise (Bad "payload shorter than declared")

let get_u8 c =
  need c 1;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let b i = Char.code c.buf.[c.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code c.buf.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  Int64.to_int !v

let get_f64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code c.buf.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  Int64.float_of_bits !v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | n -> raise (Bad (Printf.sprintf "bad bool byte %d" n))

let get_string c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_option get c =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get c)
  | n -> raise (Bad (Printf.sprintf "bad option byte %d" n))

(* --- domain codecs ---------------------------------------------------- *)

let put_value buf = function
  | Value.Null -> put_u8 buf 0
  | Value.Int i ->
      put_u8 buf 1;
      put_i64 buf i
  | Value.Float f ->
      put_u8 buf 2;
      put_f64 buf f
  | Value.String s ->
      put_u8 buf 3;
      put_string buf s
  | Value.Bool b ->
      put_u8 buf 4;
      put_bool buf b

let get_value c =
  match get_u8 c with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_i64 c)
  | 2 -> Value.Float (get_f64 c)
  | 3 -> Value.String (get_string c)
  | 4 -> Value.Bool (get_bool c)
  | n -> raise (Bad (Printf.sprintf "bad value tag %d" n))

let binops = [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |]

let put_binop buf op =
  let rec index i = if binops.(i) = op then i else index (i + 1) in
  put_u8 buf (index 0)

let get_binop c =
  let n = get_u8 c in
  if n >= Array.length binops then
    raise (Bad (Printf.sprintf "bad binop tag %d" n));
  binops.(n)

let algorithms =
  [|
    Algorithm.C_boundaries;
    Algorithm.C_maxbounds;
    Algorithm.D_maxdoi;
    Algorithm.D_singlemaxdoi;
    Algorithm.D_heurdoi;
    Algorithm.Exhaustive;
  |]

let put_algorithm buf a =
  let rec index i = if algorithms.(i) = a then i else index (i + 1) in
  put_u8 buf (index 0)

let get_algorithm c =
  let n = get_u8 c in
  if n >= Array.length algorithms then
    raise (Bad (Printf.sprintf "bad algorithm tag %d" n));
  algorithms.(n)

let put_problem buf (p : Problem.t) =
  put_u8 buf p.Problem.number;
  put_u8 buf
    (match p.Problem.objective with
    | Problem.Maximize_doi -> 0
    | Problem.Minimize_cost -> 1);
  let c = p.Problem.constraints in
  put_option put_f64 buf c.Params.cmax;
  put_option put_f64 buf c.Params.dmin;
  put_option put_f64 buf c.Params.smin;
  put_option put_f64 buf c.Params.smax

let get_problem c =
  let number = get_u8 c in
  let objective =
    match get_u8 c with
    | 0 -> Problem.Maximize_doi
    | 1 -> Problem.Minimize_cost
    | n -> raise (Bad (Printf.sprintf "bad objective tag %d" n))
  in
  let cmax = get_option get_f64 c in
  let dmin = get_option get_f64 c in
  let smin = get_option get_f64 c in
  let smax = get_option get_f64 c in
  match Problem.make ~objective number { Params.cmax; dmin; smin; smax } with
  | Ok p -> p
  | Error msg -> raise (Bad msg)

let put_shape buf (s : Profile_gen.config) =
  put_u32 buf s.Profile_gen.n_selections;
  (match s.Profile_gen.doi_dist with
  | Profile_gen.Uniform (lo, hi) ->
      put_u8 buf 0;
      put_f64 buf lo;
      put_f64 buf hi
  | Profile_gen.Normal { mean; stddev } ->
      put_u8 buf 1;
      put_f64 buf mean;
      put_f64 buf stddev);
  let jlo, jhi = s.Profile_gen.join_doi_range in
  put_f64 buf jlo;
  put_f64 buf jhi

let get_shape c =
  let n_selections = get_u32 c in
  let doi_dist =
    match get_u8 c with
    | 0 ->
        let lo = get_f64 c in
        Profile_gen.Uniform (lo, get_f64 c)
    | 1 ->
        let mean = get_f64 c in
        Profile_gen.Normal { mean; stddev = get_f64 c }
    | n -> raise (Bad (Printf.sprintf "bad doi-distribution tag %d" n))
  in
  let jlo = get_f64 c in
  let jhi = get_f64 c in
  { Profile_gen.n_selections; doi_dist; join_doi_range = (jlo, jhi) }

let put_profile buf p =
  let sels = Profile.selections p in
  let jns = Profile.joins p in
  put_u32 buf (List.length sels);
  List.iter
    (fun (s : Profile.selection) ->
      put_string buf s.Profile.s_rel;
      put_string buf s.Profile.s_attr;
      put_binop buf s.Profile.s_op;
      put_value buf s.Profile.s_value;
      put_f64 buf s.Profile.s_doi)
    sels;
  put_u32 buf (List.length jns);
  List.iter
    (fun (j : Profile.join) ->
      put_string buf j.Profile.j_from_rel;
      put_string buf j.Profile.j_from_attr;
      put_string buf j.Profile.j_to_rel;
      put_string buf j.Profile.j_to_attr;
      put_f64 buf j.Profile.j_doi)
    jns

let get_profile c =
  (* Rebuilt via the accumulating constructors so doi validation
     ([Doi.check]) applies to wire input exactly as it does to local
     construction; [Invalid_doi] surfaces as [Bad] below. *)
  let nsel = get_u32 c in
  let atoms = ref [] in
  for _ = 1 to nsel do
    let rel = get_string c in
    let attr = get_string c in
    let op = get_binop c in
    let value = get_value c in
    let doi = get_f64 c in
    atoms := `Sel (Profile.selection rel attr ~op value doi) :: !atoms
  done;
  let njn = get_u32 c in
  for _ = 1 to njn do
    let r1 = get_string c in
    let a1 = get_string c in
    let r2 = get_string c in
    let a2 = get_string c in
    let doi = get_f64 c in
    atoms := `Join (Profile.join r1 a1 r2 a2 doi) :: !atoms
  done;
  Profile.of_list (List.rev !atoms)

let put_rung buf r =
  put_u8 buf
    (match r with
    | Rung.Full -> 0
    | Rung.Heuristic -> 1
    | Rung.Greedy -> 2
    | Rung.Unpersonalized -> 3
    | Rung.Pareto -> 4)

let get_rung c =
  match get_u8 c with
  | 0 -> Rung.Full
  | 1 -> Rung.Heuristic
  | 2 -> Rung.Greedy
  | 3 -> Rung.Unpersonalized
  | 4 -> Rung.Pareto
  | n -> raise (Bad (Printf.sprintf "bad rung tag %d" n))

let put_error_code buf code =
  put_u8 buf
    (match code with
    | Bad_request -> 0
    | Unknown_user -> 1
    | Busy -> 2
    | Server_error -> 3)

let get_error_code c =
  match get_u8 c with
  | 0 -> Bad_request
  | 1 -> Unknown_user
  | 2 -> Busy
  | 3 -> Server_error
  | n -> raise (Bad (Printf.sprintf "bad error code %d" n))

(* --- frame tags ------------------------------------------------------- *)

let tag_install = 0x01
let tag_put_profile = 0x02
let tag_query = 0x03
let tag_ping = 0x04
let tag_shutdown = 0x05
let tag_served = 0x41
let tag_shed = 0x42
let tag_ok = 0x43
let tag_pong = 0x44
let tag_error = 0x45
let tag_bye = 0x46

(* --- frame encoding --------------------------------------------------- *)

let frame tag payload =
  let len = 1 + Buffer.length payload in
  assert (len <= max_frame_len);
  let out = Buffer.create (4 + len) in
  put_u32 out len;
  put_u8 out tag;
  Buffer.add_buffer out payload;
  Buffer.contents out

let encode_request req =
  let p = Buffer.create 64 in
  match req with
  | Install { user; seed; shape } ->
      put_string p user;
      put_i64 p seed;
      put_option put_shape p shape;
      frame tag_install p
  | Put_profile { user; profile } ->
      put_string p user;
      put_profile p profile;
      frame tag_put_profile p
  | Query q ->
      put_string p q.user;
      put_string p q.sql;
      put_problem p q.problem;
      put_option (fun b k -> put_u32 b k) p q.max_k;
      put_algorithm p q.algorithm;
      put_bool p q.execute;
      put_option put_f64 p q.deadline_ms;
      frame tag_query p
  | Ping -> frame tag_ping p
  | Shutdown -> frame tag_shutdown p

let encode_response resp =
  let p = Buffer.create 64 in
  match resp with
  | Served s ->
      put_rung p s.rung;
      put_u32 p s.retries;
      put_bool p s.deadline_expired;
      put_option (fun b i -> put_u32 b i) p s.front_point;
      put_u32 p (List.length s.pref_ids);
      List.iter (fun id -> put_u32 p id) s.pref_ids;
      put_f64 p s.params.Params.doi;
      put_f64 p s.params.Params.cost;
      put_f64 p s.params.Params.size;
      put_string p s.personalized_sql;
      put_u32 p s.row_count;
      put_string p s.rows_digest;
      frame tag_served p
  | Shed { queue_position; limit } ->
      put_u32 p queue_position;
      put_u32 p limit;
      frame tag_shed p
  | Ok_ack -> frame tag_ok p
  | Pong -> frame tag_pong p
  | Error { code; message } ->
      put_error_code p code;
      put_string p message;
      frame tag_error p
  | Bye -> frame tag_bye p

(* --- frame decoding --------------------------------------------------- *)

let decode_payload_request tag c =
  match tag with
  | t when t = tag_install ->
      let user = get_string c in
      let seed = get_i64 c in
      let shape = get_option get_shape c in
      Install { user; seed; shape }
  | t when t = tag_put_profile ->
      let user = get_string c in
      let profile = get_profile c in
      Put_profile { user; profile }
  | t when t = tag_query ->
      let user = get_string c in
      let sql = get_string c in
      let problem = get_problem c in
      let max_k = get_option get_u32 c in
      let algorithm = get_algorithm c in
      let execute = get_bool c in
      let deadline_ms = get_option get_f64 c in
      Query { user; sql; problem; max_k; algorithm; execute; deadline_ms }
  | t when t = tag_ping -> Ping
  | t when t = tag_shutdown -> Shutdown
  | t -> raise (Bad (Printf.sprintf "tag %#x" t))

let decode_payload_response tag c =
  match tag with
  | t when t = tag_served ->
      let rung = get_rung c in
      let retries = get_u32 c in
      let deadline_expired = get_bool c in
      let front_point = get_option get_u32 c in
      let n = get_u32 c in
      let pref_ids = List.init n (fun _ -> get_u32 c) in
      let doi = get_f64 c in
      let cost = get_f64 c in
      let size = get_f64 c in
      let personalized_sql = get_string c in
      let row_count = get_u32 c in
      let rows_digest = get_string c in
      Served
        {
          rung;
          retries;
          deadline_expired;
          front_point;
          pref_ids;
          params = { Params.doi; cost; size };
          personalized_sql;
          row_count;
          rows_digest;
        }
  | t when t = tag_shed ->
      let queue_position = get_u32 c in
      let limit = get_u32 c in
      Shed { queue_position; limit }
  | t when t = tag_ok -> Ok_ack
  | t when t = tag_pong -> Pong
  | t when t = tag_error ->
      let code = get_error_code c in
      let message = get_string c in
      Error { code; message }
  | t when t = tag_bye -> Bye
  | t -> raise (Bad (Printf.sprintf "tag %#x" t))

let known_tag ~request tag =
  if request then
    tag = tag_install || tag = tag_put_profile || tag = tag_query
    || tag = tag_ping || tag = tag_shutdown
  else
    tag = tag_served || tag = tag_shed || tag = tag_ok || tag = tag_pong
    || tag = tag_error || tag = tag_bye

let decode ~request ~decode_payload ?(pos = 0) buf =
  let avail = String.length buf - pos in
  if avail < 4 then Result.Error Truncated
  else begin
    let hdr = { buf; pos; limit = String.length buf } in
    let len = get_u32 hdr in
    if len > max_frame_len then Result.Error (Oversized len)
    else if len < 1 then Result.Error (Malformed "empty frame (no tag)")
    else if avail < 4 + len then Result.Error Truncated
    else begin
      (* The payload cursor is clamped to the declared frame end: a
         lying length can only produce [Malformed], never a read into
         the next frame (no over-read) or past the buffer. *)
      let c = { buf; pos = pos + 4; limit = pos + 4 + len } in
      match
        let tag = get_u8 c in
        if not (known_tag ~request tag) then Result.Error (Bad_tag tag)
        else begin
          let f = decode_payload tag c in
          if c.pos <> c.limit then
            Result.Error
              (Malformed
                 (Printf.sprintf "%d trailing payload bytes" (c.limit - c.pos)))
          else Result.Ok (f, 4 + len)
        end
      with
      | r -> r
      | exception Bad msg -> Result.Error (Malformed msg)
      | exception Cqp_prefs.Doi.Invalid_doi d ->
          Result.Error (Malformed (Printf.sprintf "doi %g outside [0, 1]" d))
    end
  end

let decode_request ?pos buf =
  decode ~request:true ~decode_payload:decode_payload_request ?pos buf

let decode_response ?pos buf =
  decode ~request:false ~decode_payload:decode_payload_response ?pos buf

(* --- streaming reader ------------------------------------------------- *)

(* The pending stream bytes are [buf.[start .. stop)].  Reads land in
   place and a frame is decoded once, when its length prefix says it is
   all there, so a frame costs time linear in its size. *)
type reader = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let chunk = 65536
let reader () = { buf = Bytes.create chunk; start = 0; stop = 0 }

(* The pending frame's declared [tag + payload] length, once its 4-byte
   prefix is in. *)
let declared r =
  if r.stop - r.start < 4 then None
  else
    Some
      ((Bytes.get_uint16_be r.buf r.start lsl 16)
      lor Bytes.get_uint16_be r.buf (r.start + 2))

(* The buffer grows to a frame's declared length only once its tag byte
   is in, which [next] has checked by the time [refill] is called. *)
let refill r read =
  let pending = r.stop - r.start in
  let want =
    match declared r with
    | Some len when len <= max_frame_len && pending > 4 -> max chunk (4 + len)
    | _ -> chunk
  in
  let buf = if want = Bytes.length r.buf then r.buf else Bytes.create want in
  (* Moving only when the buffer changes or has a consumed prefix keeps
     each pending byte's copies bounded while a large frame streams in. *)
  if buf != r.buf || r.start > 0 then begin
    Bytes.blit r.buf r.start buf 0 pending;
    r.buf <- buf;
    r.start <- 0;
    r.stop <- pending
  end;
  let n = read r.buf r.stop (Bytes.length r.buf - r.stop) in
  r.stop <- r.stop + n;
  n

(* A frame's tag is checked as soon as its byte is in, so a frame that
   will be rejected is never waited for. *)
let next ~request decode r =
  match declared r with
  | None -> Result.Error Truncated
  | Some len when len > max_frame_len -> Result.Error (Oversized len)
  | Some len when r.stop - r.start < 4 + len ->
      if r.stop - r.start = 4 then Result.Error Truncated
      else
        let tag = Bytes.get_uint8 r.buf (r.start + 4) in
        if known_tag ~request tag then Result.Error Truncated
        else Result.Error (Bad_tag tag)
  | Some len ->
      let frame = Bytes.sub_string r.buf r.start (4 + len) in
      r.start <- r.start + 4 + len;
      Result.map fst (decode frame)

let next_request r = next ~request:true (fun s -> decode_request s) r
let next_response r = next ~request:false (fun s -> decode_response s) r

(* --- profile blobs ---------------------------------------------------- *)

let encode_profile p =
  let buf = Buffer.create 256 in
  put_profile buf p;
  Buffer.contents buf

let decode_profile s =
  let c = { buf = s; pos = 0; limit = String.length s } in
  match
    let p = get_profile c in
    if c.pos <> c.limit then
      Result.Error
        (Malformed (Printf.sprintf "%d trailing blob bytes" (c.limit - c.pos)))
    else Result.Ok p
  with
  | r -> r
  | exception Bad msg -> Result.Error (Malformed msg)
  | exception Cqp_prefs.Doi.Invalid_doi d ->
      Result.Error (Malformed (Printf.sprintf "doi %g outside [0, 1]" d))

(* --- row digests ------------------------------------------------------ *)

let rows_digest rows =
  (* Same canonical-value discipline as [Profile.fingerprint]: floats
     in hex, strings length-prefixed, so the digest changes iff some
     value differs at full precision. *)
  let buf = Buffer.create 256 in
  List.iter
    (fun row ->
      List.iter
        (fun v ->
          Buffer.add_string buf
            (match v with
            | Value.Null -> "n|"
            | Value.Int i -> Printf.sprintf "i%d|" i
            | Value.Float f -> Printf.sprintf "f%h|" f
            | Value.String s -> Printf.sprintf "s%d:%s|" (String.length s) s
            | Value.Bool b -> if b then "bt|" else "bf|"))
        (Cqp_relal.Tuple.to_list row);
      Buffer.add_char buf '\n')
    rows;
  Digest.string (Buffer.contents buf)

let served_of_response (r : Cqp_serve.Serve.response) =
  match r.Cqp_serve.Serve.verdict with
  | Cqp_serve.Serve.Shed _ ->
      invalid_arg "Wire.served_of_response: response was shed"
  | Cqp_serve.Serve.Served s ->
      let o = s.Cqp_serve.Serve.outcome in
      let sol = o.Cqp_core.Personalizer.solution in
      {
        rung = s.Cqp_serve.Serve.rung;
        retries = s.Cqp_serve.Serve.retries;
        deadline_expired = s.Cqp_serve.Serve.deadline_expired;
        front_point = s.Cqp_serve.Serve.front_point;
        pref_ids = sol.Cqp_core.Solution.pref_ids;
        params = sol.Cqp_core.Solution.params;
        personalized_sql =
          Cqp_sql.Printer.to_string o.Cqp_core.Personalizer.personalized;
        row_count = List.length o.Cqp_core.Personalizer.rows;
        rows_digest = rows_digest o.Cqp_core.Personalizer.rows;
      }

let response_of_serve (r : Cqp_serve.Serve.response) =
  match r.Cqp_serve.Serve.verdict with
  | Cqp_serve.Serve.Shed { queue_position; limit } ->
      Shed { queue_position; limit }
  | Cqp_serve.Serve.Served _ -> Served (served_of_response r)

(** The cqp_net wire protocol: a small length-prefixed binary framing
    for personalization requests over a Unix or TCP socket.

    {2 Framing}

    Every frame is [u32 length][u8 tag][payload], lengths and all
    multi-byte integers big-endian.  [length] covers the tag byte and
    the payload (so a complete frame occupies [4 + length] bytes) and
    is bounded by {!max_frame_len}: a peer announcing more is rejected
    with {!Oversized} before any payload is read.  Strings are
    [u32 length][bytes]; options are [u8 0|1][payload]; floats are
    IEEE-754 doubles ([Int64.bits_of_float], so every constraint bound
    and doi round-trips bit-exactly); booleans are [u8 0|1].

    {2 Decoder contract}

    {!decode_request} / {!decode_response} consume a byte buffer
    prefix and return the frame plus the number of bytes consumed, or
    a typed {!error} — they {e never} raise and {e never} read past
    the declared frame length, whatever the peer sent
    ([test/test_net_wire.ml] fuzzes truncated, oversized and garbage
    input against this).  {!Truncated} means "not enough bytes yet":
    the streaming {!reader} keeps the bytes and reads more.  Every
    other error is fatal for the connection (framing is lost).

    The codec laws ([decode (encode f) = Ok (f, length)] for every
    frame type) are property-tested. *)

type error =
  | Truncated  (** the buffer ends before the frame does — read more *)
  | Oversized of int
      (** declared frame length (bytes) exceeds {!max_frame_len} *)
  | Bad_tag of int  (** unknown frame tag *)
  | Malformed of string
      (** payload does not parse, or its length disagrees with the
          declared frame length *)

val error_to_string : error -> string

val max_frame_len : int
(** Upper bound on the declared [tag + payload] length (16 MiB). *)

(** {1 Frames} *)

type query = {
  user : string;
  sql : string;
  problem : Cqp_core.Problem.t;
  max_k : int option;
  algorithm : Cqp_core.Algorithm.t;
  execute : bool;
  deadline_ms : float option;
      (** per-request deadline, overriding the server's configured
          default ({!Cqp_serve.Serve.handle}'s [deadline_ms]) *)
}

type request =
  | Install of {
      user : string;
      seed : int;
      shape : Cqp_workload.Profile_gen.config option;
    }
      (** install the seeded generator profile for [user], exactly as a
          workload [Set_profile] entry does during replay *)
  | Put_profile of { user : string; profile : Cqp_prefs.Profile.t }
      (** upload a materialized profile (the store's binary codec) *)
  | Query of query
  | Ping
  | Shutdown  (** graceful drain: the server answers [Bye] and stops *)

type error_code =
  | Bad_request  (** malformed frame, SQL parse/semantic error *)
  | Unknown_user
  | Busy  (** connection rejected at the accept gate *)
  | Server_error

type served = {
  rung : Cqp_resilience.Rung.t;
  retries : int;
  deadline_expired : bool;
  front_point : int option;
      (** index of the Pareto-front operating point that answered (set
          iff [rung] is {!Cqp_resilience.Rung.Pareto}) *)
  pref_ids : int list;
  params : Cqp_core.Params.t;
  personalized_sql : string;
  row_count : int;
  rows_digest : string;
      (** {!rows_digest} of the executed rows (16 raw bytes); the
          digest of zero rows when the request did not execute *)
}

type response =
  | Served of served
  | Shed of { queue_position : int; limit : int }
  | Ok_ack  (** [Install] / [Put_profile] acknowledged *)
  | Pong
  | Error of { code : error_code; message : string }
  | Bye  (** shutdown acknowledged; the server is draining *)

(** {1 Codec} *)

val encode_request : request -> string
val encode_response : response -> string

val decode_request : ?pos:int -> string -> (request * int, error) result
(** [decode_request ?pos buf] parses one frame starting at [pos]
    (default 0); on success the [int] is the total bytes consumed
    (header included). *)

val decode_response : ?pos:int -> string -> (response * int, error) result

(** {1 Streaming reader}

    Both ends of a connection read frames through a {!reader}.  It
    keeps the bytes read so far and decodes a frame once, when its
    length prefix says the whole frame is in, so reading a frame takes
    time linear in its size. *)

type reader

val reader : unit -> reader

val refill : reader -> (Bytes.t -> int -> int -> int) -> int
(** [refill r read] appends the bytes [read buf pos len] stores (as
    [Unix.read fd] does) and returns their count, 0 at end of stream.
    Call it after {!next_request} or {!next_response} returned
    [Truncated]: it reads at most 64 KiB at a time until the pending
    frame's tag byte is in and checked, and only then grows to the
    declared frame.  An exception from [read] propagates and leaves
    the pending bytes as they were. *)

val next_request : reader -> (request, error) result
val next_response : reader -> (response, error) result
(** The next whole frame, taken off [r]: [Truncated] until all of it
    is in, [Oversized] as soon as a 4-byte prefix declares more than
    {!max_frame_len}, [Bad_tag] as soon as the tag byte is in and is
    not a request (for [next_request]) or response (for
    [next_response]) tag.  Any other error loses the framing. *)

(** {1 Profile blobs}

    The same primitive codec, unframed — the on-disk record format of
    {!Store} and the payload of [Put_profile]. *)

val encode_profile : Cqp_prefs.Profile.t -> string
val decode_profile : string -> (Cqp_prefs.Profile.t, error) result

val rows_digest : Cqp_relal.Tuple.t list -> string
(** 16-byte MD5 of a canonical full-precision dump of the rows (floats
    in hex), so two replays producing byte-identical digests produced
    identical tuples — the differential suite's row oracle. *)

val response_of_serve : Cqp_serve.Serve.response -> response
(** [Served] or [Shed] as appropriate. *)

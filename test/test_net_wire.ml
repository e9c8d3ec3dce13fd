(* Property tests for the cqp_net wire codec.

   Two families: round-trip laws — decode (encode f) recovers f and
   consumes exactly the frame, re-encoding is byte-identical, frames
   concatenate — and adversarial input: truncations of valid frames
   report Truncated, oversized declarations report Oversized, random
   garbage and bit-flipped frames decode to a typed result without
   ever raising or reading past the declared frame.  The streaming
   reader decodes a stream the same however its reads are chunked. *)

module W = Cqp_net.Wire
module Profile = Cqp_prefs.Profile
module Profile_gen = Cqp_workload.Profile_gen
module Value = Cqp_relal.Value
module Ast = Cqp_sql.Ast
module Problem = Cqp_core.Problem
module Params = Cqp_core.Params
module Rung = Cqp_resilience.Rung
module Gen = QCheck.Gen

(* --- generators ------------------------------------------------------- *)

let gen_name = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 12))

(* Finite and awkward floats; bit-exactness is the codec's promise, so
   include zero, negative zero territory, subnormals and infinities.
   NaN is left out because [compare] equates every NaN payload, so [eq]
   below could not tell them apart.  A NaN doi is no valid profile value:
   decoding rejects it (the "wire doi validated" case). *)
let gen_float =
  Gen.oneof
    [
      Gen.float;
      Gen.oneofl
        [ 0.0; -0.0; 1e-300; -1e-300; infinity; neg_infinity; 0x1.fp-1022 ];
    ]

let gen_doi = Gen.float_bound_inclusive 1.0

let gen_value =
  Gen.oneof
    [
      Gen.return Value.Null;
      Gen.map (fun i -> Value.Int i) Gen.int;
      Gen.map (fun f -> Value.Float f) gen_float;
      Gen.map (fun s -> Value.String s) gen_name;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
    ]

let gen_binop = Gen.oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]
let gen_algorithm = Gen.oneofl Cqp_core.Algorithm.all

(* Any problem [Problem.make] accepts: a cmax for Problems 2 and 3, a
   size bound for Problem 1. *)
let gen_problem =
  let open Gen in
  let* number = int_range 1 6 in
  let needs_cmax = number = 2 || number = 3 in
  let* cmax = if needs_cmax then map Option.some gen_float else option gen_float in
  let* dmin = option gen_float in
  let* smin = option gen_float in
  let* smax =
    if number = 1 && smin = None then map Option.some gen_float
    else option gen_float
  in
  return (Result.get_ok (Problem.make number { Params.cmax; dmin; smin; smax }))

let gen_selection =
  let open Gen in
  let* rel = gen_name in
  let* attr = gen_name in
  let* op = gen_binop in
  let* value = gen_value in
  let* doi = gen_doi in
  return (Profile.selection rel attr ~op value doi)

let gen_join =
  let open Gen in
  let* r1 = gen_name in
  let* a1 = gen_name in
  let* r2 = gen_name in
  let* a2 = gen_name in
  let* doi = gen_doi in
  return (Profile.join r1 a1 r2 a2 doi)

let gen_profile =
  let open Gen in
  let* sels = list_size (int_range 0 6) gen_selection in
  let* joins = list_size (int_range 0 4) gen_join in
  return
    (Profile.of_list
       (List.map (fun s -> `Sel s) sels @ List.map (fun j -> `Join j) joins))

let gen_shape =
  let open Gen in
  let* n_selections = int_range 0 20 in
  let* doi_dist =
    oneof
      [
        map2 (fun a b -> Profile_gen.Uniform (a, b)) gen_doi gen_doi;
        map2
          (fun mean stddev -> Profile_gen.Normal { mean; stddev })
          gen_doi gen_doi;
      ]
  in
  let* lo = gen_doi in
  let* hi = gen_doi in
  return { Profile_gen.n_selections; doi_dist; join_doi_range = (lo, hi) }

let gen_query =
  let open Gen in
  let* user = gen_name in
  let* sql = gen_name in
  let* problem = gen_problem in
  let* max_k = option (int_range 0 64) in
  let* algorithm = gen_algorithm in
  let* execute = bool in
  let* deadline_ms = option gen_float in
  return { W.user; sql; problem; max_k; algorithm; execute; deadline_ms }

let gen_request =
  let open Gen in
  oneof
    [
      (let* user = gen_name in
       let* seed = int_range 0 1_000_000 in
       let* shape = option gen_shape in
       return (W.Install { user; seed; shape }));
      (let* user = gen_name in
       let* profile = gen_profile in
       return (W.Put_profile { user; profile }));
      map (fun q -> W.Query q) gen_query;
      return W.Ping;
      return W.Shutdown;
    ]

let gen_error_code =
  Gen.oneofl [ W.Bad_request; W.Unknown_user; W.Busy; W.Server_error ]

let gen_served =
  let open Gen in
  let* rung = oneofl Rung.all in
  let* retries = int_range 0 10 in
  let* deadline_expired = bool in
  let* front_point = option (int_range 0 1000) in
  let* pref_ids = list_size (int_range 0 10) (int_range 0 1000) in
  let* doi = gen_float in
  let* cost = gen_float in
  let* size = gen_float in
  let* personalized_sql = gen_name in
  let* row_count = int_range 0 10_000 in
  let* digest_src = gen_name in
  return
    {
      W.rung;
      retries;
      deadline_expired;
      front_point;
      pref_ids;
      params = { Params.doi; cost; size };
      personalized_sql;
      row_count;
      rows_digest = Digest.string digest_src;
    }

let gen_response =
  let open Gen in
  oneof
    [
      map (fun s -> W.Served s) gen_served;
      (let* queue_position = int_range 0 1000 in
       let* limit = int_range 0 1000 in
       return (W.Shed { queue_position; limit }));
      return W.Ok_ack;
      return W.Pong;
      (let* code = gen_error_code in
       let* message = gen_name in
       return (W.Error { code; message }));
      return W.Bye;
    ]

let arb_request = QCheck.make ~print:(fun _ -> "<request>") gen_request
let arb_response = QCheck.make ~print:(fun _ -> "<response>") gen_response

(* Structural equality via [compare]: floats compare bit-meaningfully
   enough here (NaN never generated), and the re-encoding law below
   independently pins byte-exactness. *)
let eq a b = compare a b = 0

(* --- round-trip laws -------------------------------------------------- *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request round-trip, exact consumption" ~count:500
    arb_request (fun r ->
      let s = W.encode_request r in
      match W.decode_request s with
      | Result.Ok (r', n) ->
          eq r r' && n = String.length s
          && W.encode_request r' = s (* re-encode byte-identical *)
      | Result.Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response round-trip, exact consumption" ~count:500
    arb_response (fun r ->
      let s = W.encode_response r in
      match W.decode_response s with
      | Result.Ok (r', n) ->
          eq r r' && n = String.length s && W.encode_response r' = s
      | Result.Error _ -> false)

let prop_concatenated_frames =
  QCheck.Test.make ~name:"concatenated frames decode in sequence" ~count:200
    QCheck.(pair arb_request arb_request)
    (fun (a, b) ->
      let sa = W.encode_request a and sb = W.encode_request b in
      let buf = sa ^ sb in
      match W.decode_request buf with
      | Result.Ok (a', na) -> (
          eq a a' && na = String.length sa
          &&
          match W.decode_request ~pos:na buf with
          | Result.Ok (b', nb) -> eq b b' && nb = String.length sb
          | Result.Error _ -> false)
      | Result.Error _ -> false)

let prop_trailing_garbage_untouched =
  QCheck.Test.make ~name:"decoder never reads past the declared frame"
    ~count:200
    QCheck.(pair arb_request (string_of_size (Gen.int_range 1 64)))
    (fun (r, junk) ->
      let s = W.encode_request r in
      match W.decode_request (s ^ junk) with
      | Result.Ok (r', n) -> eq r r' && n = String.length s
      | Result.Error _ -> false)

let prop_profile_roundtrip =
  QCheck.Test.make ~name:"profile blob round-trip" ~count:300
    (QCheck.make ~print:(fun _ -> "<profile>") gen_profile)
    (fun p ->
      let s = W.encode_profile p in
      match W.decode_profile s with
      | Result.Ok p' ->
          Profile.fingerprint p' = Profile.fingerprint p
          && W.encode_profile p' = s
      | Result.Error _ -> false)

(* --- streaming reader --------------------------------------------------- *)

(* A [read] over [stream] whose every call returns between 1 byte and
   the whole stream, drawn from [seed]. *)
let chunked_read stream seed =
  let st = Random.State.make [| seed |] in
  let pos = ref 0 in
  fun buf off len ->
    let size = 1 + Random.State.int st (max 1 (String.length stream)) in
    let n = min (min size len) (String.length stream - !pos) in
    Bytes.blit_string stream !pos buf off n;
    pos := !pos + n;
    n

(* Every frame of [stream], read to its end through one reader. *)
let read_stream next stream seed =
  let r = W.reader () in
  let read = chunked_read stream seed in
  let rec go acc =
    match next r with
    | Result.Ok f -> go (f :: acc)
    | Result.Error W.Truncated ->
        if W.refill r read = 0 then Some (List.rev acc) else go acc
    | Result.Error _ -> None
  in
  go []

(* Query SQL is padded by [pad] bytes, so some frames span several
   64 KiB reads and the reader has to grow (and later shrink) its
   buffer. *)
let prop_reader_chunking =
  QCheck.Test.make ~name:"reader decodes a stream the same in any chunking"
    ~count:200
    QCheck.(
      quad
        (list_of_size (Gen.int_range 0 6) arb_request)
        (list_of_size (Gen.int_range 0 6) arb_response)
        int
        (make (Gen.oneofl [ 0; 70_000; 200_000 ])))
    (fun (reqs, resps, seed, pad) ->
      let reqs =
        List.map
          (function
            | W.Query q -> W.Query { q with sql = q.sql ^ String.make pad 's' }
            | r -> r)
          reqs
      in
      let requests = String.concat "" (List.map W.encode_request reqs) in
      let responses = String.concat "" (List.map W.encode_response resps) in
      eq (read_stream W.next_request requests seed) (Some reqs)
      && eq (read_stream W.next_response responses seed) (Some resps))

(* --- adversarial input ------------------------------------------------ *)

let prop_truncations =
  QCheck.Test.make ~name:"every proper prefix of a frame is Truncated"
    ~count:200 arb_request (fun r ->
      let s = W.encode_request r in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match W.decode_request (String.sub s 0 k) with
        | Result.Error W.Truncated -> ()
        | _ -> ok := false
      done;
      !ok)

let prop_garbage_never_raises =
  QCheck.Test.make ~name:"garbage decodes to a typed result, never raises"
    ~count:1000
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun junk ->
      let check decode =
        match decode junk with
        | Result.Ok (_, n) -> n >= 5 && n <= String.length junk
        | Result.Error _ -> true
      in
      check (fun s -> W.decode_request s)
      && check (fun s -> W.decode_response s))

let prop_bitflip_never_raises =
  QCheck.Test.make ~name:"bit-flipped valid frames never raise" ~count:500
    QCheck.(triple arb_request small_nat small_nat)
    (fun (r, pos, bit) ->
      let s = Bytes.of_string (W.encode_request r) in
      let pos = pos mod Bytes.length s in
      let c = Char.code (Bytes.get s pos) lxor (1 lsl (bit mod 8)) in
      Bytes.set s pos (Char.chr c);
      match W.decode_request (Bytes.unsafe_to_string s) with
      | Result.Ok _ | Result.Error _ -> true)

(* --- targeted error cases --------------------------------------------- *)

let header len =
  let b = Buffer.create 8 in
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (len land 0xff));
  b

let prop_reader_oversized =
  QCheck.Test.make ~name:"reader rejects an oversized header before its body"
    ~count:200
    QCheck.(pair (int_range (W.max_frame_len + 1) 0xFFFF_FFFF) int)
    (fun (len, seed) ->
      let r = W.reader () in
      let read = chunked_read (Buffer.contents (header len)) seed in
      let rec go () =
        match W.next_request r with
        | Result.Error W.Truncated -> W.refill r read > 0 && go ()
        | Result.Error (W.Oversized n) -> n = len
        | _ -> false
      in
      go ())

let test_oversized () =
  let b = header (W.max_frame_len + 1) in
  Buffer.add_string b (String.make 10 'x');
  (match W.decode_request (Buffer.contents b) with
  | Result.Error (W.Oversized n) ->
      Alcotest.(check int) "declared length" (W.max_frame_len + 1) n
  | _ -> Alcotest.fail "expected Oversized");
  (* An oversized declaration is rejected before any payload arrives:
     the 4-byte header alone is enough. *)
  match W.decode_request (Buffer.sub b 0 4) with
  | Result.Error (W.Oversized _) -> ()
  | _ -> Alcotest.fail "expected Oversized from header alone"

let test_bad_tag () =
  let b = header 1 in
  Buffer.add_char b '\x7f';
  (match W.decode_request (Buffer.contents b) with
  | Result.Error (W.Bad_tag 0x7f) -> ()
  | _ -> Alcotest.fail "expected Bad_tag 0x7f");
  (* A response tag is not a request tag: direction matters. *)
  let served_frame = W.encode_response W.Pong in
  match W.decode_request served_frame with
  | Result.Error (W.Bad_tag _) -> ()
  | _ -> Alcotest.fail "expected Bad_tag decoding a response as a request"

(* A frame that declares 15 MiB and carries an unknown tag is rejected
   once the tag byte is in: no peer holds the reader for a body it will
   reject. *)
let test_bad_tag_before_body () =
  let b = header (15 * 1024 * 1024) in
  Buffer.add_char b '\xee';
  let frame = Buffer.contents b in
  let check name next =
    let r = W.reader () in
    let n =
      W.refill r (fun buf pos _ ->
          Bytes.blit_string frame 0 buf pos (String.length frame);
          String.length frame)
    in
    Alcotest.(check int) (name ^ ": header and tag read") 5 n;
    match next r with
    | Result.Error (W.Bad_tag 0xee) -> ()
    | Result.Error e -> Alcotest.failf "%s: %s" name (W.error_to_string e)
    | Result.Ok _ -> Alcotest.failf "%s: decoded a frame" name
  in
  check "request" (fun r -> Result.map ignore (W.next_request r));
  check "response" (fun r -> Result.map ignore (W.next_response r))

let test_empty_frame () =
  match W.decode_request (Buffer.contents (header 0)) with
  | Result.Error (W.Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed for a zero-length frame"

let test_trailing_payload_bytes () =
  (* Declare one byte more than Ping's payload: tag parses, the extra
     byte must be flagged, not silently skipped. *)
  let b = header 2 in
  Buffer.add_char b '\x04' (* Ping *);
  Buffer.add_char b '\x00';
  match W.decode_request (Buffer.contents b) with
  | Result.Error (W.Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed for trailing payload bytes"

(* A one-selection profile blob whose doi is patched to [doi]: the doi
   is the selection's trailing f64, just before the empty join list's
   u32 count. *)
let profile_blob_with_doi doi =
  let p = Profile.of_list [ `Sel (Profile.selection "r" "a" (Value.Int 1) 0.5) ] in
  let s = Bytes.of_string (W.encode_profile p) in
  Bytes.set_int64_be s (Bytes.length s - 8 - 4) (Int64.bits_of_float doi);
  Bytes.unsafe_to_string s

let test_doi_out_of_range_rejected () =
  (* A hand-built Put_profile whose doi is 2.0 or NaN must be rejected by
     the same validation local construction gets, as a typed error. *)
  List.iter
    (fun doi ->
      match W.decode_profile (profile_blob_with_doi doi) with
      | Result.Error (W.Malformed _) -> ()
      | Result.Ok _ -> Alcotest.failf "expected Malformed for doi %g" doi
      | Result.Error e ->
          Alcotest.fail ("unexpected error: " ^ W.error_to_string e))
    [ 2.0; Float.nan ]

(* A Query frame whose problem is written byte by byte (number,
   objective tag, then the cmax/dmin/smin/smax options), so shapes
   [Problem.make] refuses can still reach the decoder. *)
let raw_query_frame ~number ~objective ~cmax ~dmin ~smin ~smax =
  let p = Buffer.create 64 in
  let u32 b n = Buffer.add_int32_be b (Int32.of_int n) in
  let str s =
    u32 p (String.length s);
    Buffer.add_string p s
  in
  let bound = function
    | None -> Buffer.add_uint8 p 0
    | Some f ->
        Buffer.add_uint8 p 1;
        Buffer.add_int64_be p (Int64.bits_of_float f)
  in
  Buffer.add_uint8 p 0x03;
  str "u";
  str "select title from movie";
  Buffer.add_uint8 p number;
  Buffer.add_uint8 p objective;
  List.iter bound [ cmax; dmin; smin; smax ];
  (* no max_k, algorithm 0, no execute, no deadline *)
  Buffer.add_string p "\000\000\000\000";
  let frame = Buffer.create (Buffer.length p + 4) in
  u32 frame (Buffer.length p);
  Buffer.add_buffer frame p;
  Buffer.contents frame

let test_problem_shape_validated () =
  (* The layout is right: a well-formed Problem 2 decodes to itself. *)
  (match
     W.decode_request
       (raw_query_frame ~number:2 ~objective:0 ~cmax:(Some 100.) ~dmin:None
          ~smin:None ~smax:None)
   with
  | Result.Ok (W.Query q, _) ->
      Alcotest.(check bool)
        "problem 2 decoded" true
        (q.W.problem = Problem.problem2 ~cmax:100.)
  | _ -> Alcotest.fail "a well-formed Query frame must decode");
  (* Shapes no solver answers are typed errors at the door. *)
  List.iter
    (fun (what, frame) ->
      match W.decode_request frame with
      | Result.Error (W.Malformed _) -> ()
      | Result.Ok _ -> Alcotest.failf "expected Malformed for %s" what
      | Result.Error e ->
          Alcotest.failf "%s: unexpected error %s" what (W.error_to_string e))
    [
      ( "Problem 2 without cmax",
        raw_query_frame ~number:2 ~objective:0 ~cmax:None ~dmin:None
          ~smin:None ~smax:None );
      ( "Problem 1 without a size bound",
        raw_query_frame ~number:1 ~objective:0 ~cmax:(Some 100.) ~dmin:None
          ~smin:None ~smax:None );
      ( "Problem 4 maximizing doi",
        raw_query_frame ~number:4 ~objective:0 ~cmax:None ~dmin:(Some 0.5)
          ~smin:None ~smax:None );
      ( "a NaN cmax",
        raw_query_frame ~number:2 ~objective:0 ~cmax:(Some Float.nan)
          ~dmin:None ~smin:None ~smax:None );
    ]

(* --- rows digest ------------------------------------------------------ *)

let test_rows_digest () =
  let module Tuple = Cqp_relal.Tuple in
  let rows =
    [
      Tuple.make [ Value.Int 1; Value.String "a"; Value.Float 0.5 ];
      Tuple.make [ Value.Null; Value.Bool true ];
    ]
  in
  let same =
    [
      Tuple.make [ Value.Int 1; Value.String "a"; Value.Float 0.5 ];
      Tuple.make [ Value.Null; Value.Bool true ];
    ]
  in
  Alcotest.(check bool)
    "equal rows digest equal" true
    (W.rows_digest rows = W.rows_digest same);
  Alcotest.(check int) "digest is raw MD5" 16 (String.length (W.rows_digest rows));
  let flipped =
    [
      Tuple.make [ Value.Int 1; Value.String "a"; Value.Float 0.5000000001 ];
      Tuple.make [ Value.Null; Value.Bool true ];
    ]
  in
  Alcotest.(check bool)
    "full-precision float change changes digest" false
    (W.rows_digest rows = W.rows_digest flipped);
  let reordered =
    [
      Tuple.make [ Value.Null; Value.Bool true ];
      Tuple.make [ Value.Int 1; Value.String "a"; Value.Float 0.5 ];
    ]
  in
  Alcotest.(check bool)
    "row order matters" false
    (W.rows_digest rows = W.rows_digest reordered)

let () =
  Testlib.seed_banner "test_net_wire";
  Alcotest.run "cqp_net wire"
    [
      ( "roundtrip",
        [
          Testlib.qc prop_request_roundtrip;
          Testlib.qc prop_response_roundtrip;
          Testlib.qc prop_concatenated_frames;
          Testlib.qc prop_trailing_garbage_untouched;
          Testlib.qc prop_profile_roundtrip;
          Testlib.qc prop_reader_chunking;
        ] );
      ( "adversarial",
        [
          Testlib.qc prop_truncations;
          Testlib.qc prop_garbage_never_raises;
          Testlib.qc prop_bitflip_never_raises;
          Testlib.qc prop_reader_oversized;
          Alcotest.test_case "oversized declaration" `Quick test_oversized;
          Alcotest.test_case "bad tag" `Quick test_bad_tag;
          Alcotest.test_case "bad tag before its body" `Quick
            test_bad_tag_before_body;
          Alcotest.test_case "empty frame" `Quick test_empty_frame;
          Alcotest.test_case "trailing payload bytes" `Quick
            test_trailing_payload_bytes;
          Alcotest.test_case "wire doi validated" `Quick
            test_doi_out_of_range_rejected;
          Alcotest.test_case "wire problem shape validated" `Quick
            test_problem_shape_validated;
        ] );
      ( "digest",
        [ Alcotest.test_case "rows digest" `Quick test_rows_digest ] );
    ]

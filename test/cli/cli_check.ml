(* Checks what one cqp command wrote, for the cram tests beside it.

   usage:
     cli_check trace FILE               the trace holds a span, not only
                                        metadata events
     cli_check present FILE NAME        the metrics hold counter NAME
     cli_check counter FILE NAME [N]    prints counter NAME; with N, it
                                        must equal N
     cli_check positive FILE NAME       counter NAME is above 0
     cli_check sum FILE NAME A B        counter NAME equals A + B; NAME
                                        may be a number instead
     cli_check prefix FILE P positive   the counters named P... sum above 0
     cli_check prefix FILE P N          the counters named P... sum to N

   [counter], [positive], [sum] and [prefix] read a counter the file
   does not hold as 0: the registry writes no counter that was never
   incremented.
     cli_check timed FILE NAME          histogram NAME has an observation
                                        and a positive sum
     cli_check sizes FILE LO HI         the text holds size=S values, all
                                        in [LO, HI]
     cli_check send SOCK HEX...         on one connection to the Unix
                                        socket SOCK, writes each HEX raw
                                        (dots ignored) and reads one reply
                                        frame within 1 s; prints each
                                        reply's first two bytes (tag, then
                                        an error's code) in hex
     cli_check get FILE KIND NAME       prints one number alone, for the
                                        shell to compare: KIND counter
                                        (0 when absent), prefix (the sum of
                                        the counters named NAME...), gauge
                                        (0 when absent) or field (a
                                        top-level number, as a loadgen
                                        report holds)

   JSON is read through [Cqp_obs.Jsonx].  Prints one line per check;
   exits 1 at the first that fails. *)

module J = Cqp_obs.Jsonx

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all
let field k j = Option.value (J.member k j) ~default:J.Null
let json path = J.of_string (read path)

let count path name =
  match J.member name (field "counters" (json path)) with
  | Some (J.Num x) -> x
  | _ -> 0.

let gauge path name =
  match J.member name (field "gauges" (json path)) with
  | Some (J.Num x) -> x
  | _ -> 0.

let top_level path name =
  match J.member name (json path) with
  | Some (J.Num x) -> x
  | _ -> fail "%s: no number %s" path name

(* The sum of the counters whose names start with [prefix]. *)
let prefix_sum path prefix =
  match field "counters" (json path) with
  | J.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          match v with
          | J.Num x when String.starts_with ~prefix k -> acc +. x
          | _ -> acc)
        0. kvs
  | _ -> 0.

(* The numbers printed as [size=S] in [text]. *)
let sizes text =
  let n = String.length text in
  let rec scan i acc =
    match String.index_from_opt text i '=' with
    | Some j when j >= 4 && String.sub text (j - 4) 4 = "size" ->
        let k = ref (j + 1) in
        while !k < n && String.contains "0123456789." text.[!k] do
          incr k
        done;
        scan !k (float_of_string (String.sub text (j + 1) (!k - j - 1)) :: acc)
    | Some j -> scan (j + 1) acc
    | None -> List.rev acc
  in
  scan 0 []

let bytes_of_hex hex =
  let hex = String.concat "" (String.split_on_char '.' hex) in
  String.init
    (String.length hex / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))

let send path frames =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     fail "%s: cannot connect: %s" path (Unix.error_message e));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
  let exactly n =
    let b = Bytes.create n in
    let rec go off =
      if off < n then
        match Unix.read fd b off (n - off) with
        | 0 -> fail "%s: closed before a whole frame" path
        | k -> go (off + k)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            fail "%s: no whole frame within 1 s" path
    in
    go 0;
    Bytes.to_string b
  in
  List.iter
    (fun hex ->
      let raw = bytes_of_hex hex in
      ignore (Unix.write_substring fd raw 0 (String.length raw));
      let body = exactly (Int32.to_int (String.get_int32_be (exactly 4) 0)) in
      print_endline
        (String.concat " "
           ("reply"
           :: List.init
                (min 2 (String.length body))
                (fun i -> Printf.sprintf "%02x" (Char.code body.[i])))))
    frames;
  Unix.close fd

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "trace"; path ] -> (
      match field "traceEvents" (json path) with
      | J.Arr events
        when List.exists (fun e -> field "ph" e = J.Str "X") events ->
          Printf.printf "%s: spans recorded\n" path
      | _ -> fail "%s: no span in the trace" path)
  | [ "present"; path; name ] ->
      (match J.member name (field "counters" (json path)) with
      | Some (J.Num _) -> ()
      | _ -> fail "%s: no counter %s" path name);
      Printf.printf "%s: counter %s recorded\n" path name
  | "counter" :: path :: name :: expected ->
      let v = count path name in
      List.iter
        (fun e ->
          if float_of_string e <> v then fail "%s is %g, expected %s" name v e)
        expected;
      Printf.printf "%s = %g\n" name v
  | [ "positive"; path; name ] ->
      let v = count path name in
      if not (v > 0.) then fail "%s is %g, expected more than 0" name v;
      Printf.printf "%s > 0\n" name
  | [ "sum"; path; name; a; b ] ->
      let v =
        match float_of_string_opt name with Some v -> v | None -> count path name
      and x = count path a
      and y = count path b in
      if v <> x +. y then
        if float_of_string_opt name <> None then
          fail "%s + %s is %g, expected %s" a b (x +. y) name
        else fail "%s is %g, %s + %s is %g" name v a b (x +. y);
      Printf.printf "%s = %s + %s\n" name a b
  | [ "prefix"; path; prefix; "positive" ] ->
      let v = prefix_sum path prefix in
      if not (v > 0.) then fail "%s* is %g, expected more than 0" prefix v;
      Printf.printf "%s* > 0\n" prefix
  | [ "prefix"; path; prefix; expected ] ->
      let v = prefix_sum path prefix in
      if float_of_string expected <> v then
        fail "%s* is %g, expected %s" prefix v expected;
      Printf.printf "%s* = %g\n" prefix v
  | [ "timed"; path; name ] ->
      let h = field name (field "histograms" (json path)) in
      let num k = match field k h with J.Num x -> x | _ -> 0. in
      if not (num "count" >= 1. && num "sum" > 0.) then
        fail "%s: %s has count %g, sum %g" path name (num "count") (num "sum");
      Printf.printf "%s: %s observed, with a positive sum\n" path name
  | [ "sizes"; path; lo; hi ] ->
      let lo = float_of_string lo and hi = float_of_string hi in
      (match sizes (read path) with
      | [] -> fail "%s: no size printed" path
      | ss ->
          List.iter
            (fun s -> if not (lo <= s && s <= hi) then fail "size %g outside" s)
            ss);
      Printf.printf "%s: every printed size in [%g, %g]\n" path lo hi
  | "send" :: path :: (_ :: _ as frames) -> send path frames
  | [ "get"; path; kind; name ] ->
      let read =
        match kind with
        | "counter" -> count
        | "prefix" -> prefix_sum
        | "gauge" -> gauge
        | "field" -> top_level
        | _ -> fail "get: no kind %s" kind
      in
      Printf.printf "%.17g\n" (read path name)
  | _ ->
      prerr_endline
        "usage: cli_check (trace FILE | present FILE NAME | counter FILE NAME \
         [N] | positive FILE NAME | sum FILE NAME A B | prefix FILE P \
         (positive | N) | timed FILE NAME | sizes FILE LO HI | send SOCK \
         HEX... | get FILE (counter | prefix | gauge | field) NAME)";
      exit 2

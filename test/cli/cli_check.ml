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
     cli_check exports ROOT             every val in ROOT/lib/*/*.mli is
                                        named, as a whole word, by some
                                        .ml/.mli under ROOT's lib, bin,
                                        bench, perfbench, test or examples
                                        other than its own module's two
                                        files; prints how many are not

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

(* The .ml and .mli files under [root]/[dir], as paths relative to
   [root], skipping the directories dune skips ([_build], [.git]). *)
let rec sources root dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = Filename.concat dir name in
         if Sys.is_directory (Filename.concat root rel) then
           if name.[0] = '.' || name.[0] = '_' then [] else sources root rel
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ rel ]
         else [])

let word_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let space = function
  | ' ' | '\t' | '\n' | '\r' | '\011' | '\012' -> true
  | _ -> false

(* The first position from [i] on whose character fails [ok]. *)
let rec scan ok text i =
  if i < String.length text && ok text.[i] then scan ok text (i + 1) else i

(* The maximal runs of identifier characters in [text]: a name occurs
   as a whole word exactly when it is one of them. *)
let words text =
  let ws = Hashtbl.create 1024 in
  let rec go i =
    if i < String.length text then
      if word_char text.[i] then begin
        let j = scan word_char text i in
        Hashtbl.replace ws (String.sub text i (j - i)) ();
        go j
      end
      else go (i + 1)
  in
  go 0;
  ws

(* The names an interface's [val]s declare: [val] first on its line,
   whitespace, then a lowercase identifier. *)
let vals text =
  let n = String.length text in
  let rec go line acc =
    if line >= n then List.rev acc
    else
      let v = scan (fun c -> c <> '\n' && space c) text line in
      let j = scan space text (v + 3) in
      let acc =
        if
          v + 3 <= n
          && String.sub text v 3 = "val"
          && j > v + 3 && j < n
          && (text.[j] = '_' || ('a' <= text.[j] && text.[j] <= 'z'))
        then String.sub text j (scan word_char text j - j) :: acc
        else acc
      in
      match String.index_from_opt text line '\n' with
      | Some e -> go (e + 1) acc
      | None -> List.rev acc
  in
  go 0 []

let exports root =
  let texts =
    List.concat_map
      (fun dir ->
        if not (Sys.file_exists (Filename.concat root dir)) then
          fail "exports: no directory %s under %s" dir root;
        List.map
          (fun f -> (f, read (Filename.concat root f)))
          (sources root dir))
      [ "lib"; "bin"; "bench"; "perfbench"; "test"; "examples" ]
  in
  let index = List.map (fun (f, text) -> (f, words text)) texts in
  let named_outside own name =
    List.exists
      (fun (f, ws) -> (not (List.mem f own)) && Hashtbl.mem ws name)
      index
  in
  let unused =
    List.concat_map
      (fun (f, text) ->
        (* lib/<library>/<module>.mli *)
        if
          Filename.check_suffix f ".mli"
          && List.length (String.split_on_char '/' f) = 3
        then
          let own = [ f; Filename.chop_suffix f "i" ] in
          List.filter_map
            (fun name ->
              if named_outside own name then None else Some (f ^ ": " ^ name))
            (vals text)
        else [])
      texts
  in
  List.iter print_endline unused;
  Printf.printf "%d exported vals with no caller outside their module\n"
    (List.length unused);
  if unused <> [] then exit 1

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
  | [ "exports"; root ] -> exports root
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
         HEX... | get FILE (counter | prefix | gauge | field) NAME | \
         exports ROOT)";
      exit 2

(* Durability and residency tests for the sharded profile store.

   The contract under test: everything put comes back byte-identical
   after close + reopen (including across a torn tail), and the
   decoded working set never exceeds the configured residency whatever
   the on-disk population. *)

module Store = Cqp_net.Store
module Wire = Cqp_net.Wire
module Profile = Cqp_prefs.Profile
module Profile_gen = Cqp_workload.Profile_gen
module Rng = Cqp_util.Rng

let catalog = lazy (Testlib.small_imdb ~seed:3 ())

let with_dir f = Testlib.with_temp_dir "cqp-store" f

let profile seed =
  Profile_gen.generate ~rng:(Rng.create seed) (Lazy.force catalog)

let user i = "user" ^ string_of_int i

(* --- durability across reopen ----------------------------------------- *)

let test_reopen_byte_identical () =
  with_dir @@ fun dir ->
  let n = 200 in
  let s = Store.open_ ~shards:4 ~resident_capacity:32 dir in
  for i = 0 to n - 1 do
    Store.put s ~user:(user i) (profile i)
  done;
  Store.close s;
  let s = Store.open_ ~shards:4 ~resident_capacity:32 dir in
  Alcotest.(check int) "users recovered" n (Store.users s);
  for i = 0 to n - 1 do
    match Store.find s (user i) with
    | None -> Alcotest.failf "user %d lost" i
    | Some p ->
        Alcotest.(check string)
          (Printf.sprintf "user %d byte-identical" i)
          (Wire.encode_profile (profile i))
          (Wire.encode_profile p)
  done;
  Alcotest.(check bool)
    "faulted back from disk" true
    ((Store.stats s).Store.faults > 0);
  Store.close s

let test_last_write_wins_across_reopen () =
  with_dir @@ fun dir ->
  let s = Store.open_ dir in
  Store.put s ~user:"alice" (profile 1);
  Store.put s ~user:"alice" (profile 2);
  Store.close s;
  let s = Store.open_ dir in
  (match Store.find s "alice" with
  | Some p ->
      Alcotest.(check string)
        "latest profile wins"
        (Profile.fingerprint (profile 2))
        (Profile.fingerprint p)
  | None -> Alcotest.fail "alice lost");
  Alcotest.(check int) "one user" 1 (Store.users s);
  Store.close s

let test_content_dedup () =
  with_dir @@ fun dir ->
  let s = Store.open_ dir in
  let p = profile 42 in
  for i = 0 to 9 do
    Store.put s ~user:(user i) p
  done;
  let st = Store.stats s in
  Alcotest.(check int) "ten users" 10 st.Store.users;
  Alcotest.(check int) "one blob" 1 st.Store.blobs;
  Store.close s;
  let s = Store.open_ dir in
  let st = Store.stats s in
  Alcotest.(check int) "ten users after reopen" 10 st.Store.users;
  Alcotest.(check int) "one blob after reopen" 1 st.Store.blobs;
  Store.close s

(* --- torn tail -------------------------------------------------------- *)

let test_torn_tail_ignored () =
  with_dir @@ fun dir ->
  let s = Store.open_ ~shards:1 dir in
  for i = 0 to 9 do
    Store.put s ~user:(user i) (profile i)
  done;
  Store.close s;
  (* Simulate a crash mid-append: a record header promising more bytes
     than the file holds. *)
  let seg = Filename.concat dir "seg-00.dat" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
  output_string oc "\x00\x00\x01\x00partial-fingerprint";
  close_out oc;
  let s = Store.open_ ~shards:1 dir in
  Alcotest.(check int) "all complete records recovered" 10 (Store.users s);
  for i = 0 to 9 do
    match Store.find s (user i) with
    | None -> Alcotest.failf "user %d lost after torn tail" i
    | Some p ->
        Alcotest.(check string)
          (Printf.sprintf "user %d intact" i)
          (Profile.fingerprint (profile i))
          (Profile.fingerprint p)
  done;
  (* The store keeps appending after the torn region is ignored. *)
  Store.put s ~user:"fresh" (profile 99);
  Store.close s;
  let s = Store.open_ ~shards:1 dir in
  Alcotest.(check bool) "post-tear write survives" true (Store.find s "fresh" <> None);
  Store.close s

let test_torn_users_log_ignored () =
  with_dir @@ fun dir ->
  let s = Store.open_ dir in
  Store.put s ~user:"alice" (profile 1);
  Store.put s ~user:"bob" (profile 2);
  Store.close s;
  let log = Filename.concat dir "users.log" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 log in
  output_string oc "\x00\x09ghost";  (* promises 9 user bytes, delivers 5 *)
  close_out oc;
  let s = Store.open_ dir in
  Alcotest.(check int) "complete mappings survive" 2 (Store.users s);
  Alcotest.(check bool) "ghost absent" false (Store.mem s "ghost");
  (* The torn record is cut off, so a put lands where the next reopen
     reads. *)
  Store.put s ~user:"carol" (profile 3);
  Store.close s;
  let s = Store.open_ dir in
  Alcotest.(check int) "post-tear mapping survives" 3 (Store.users s);
  (match Store.find s "carol" with
  | Some p ->
      Alcotest.(check string)
        "post-tear profile" (Profile.fingerprint (profile 3))
        (Profile.fingerprint p)
  | None -> Alcotest.fail "carol lost");
  Store.close s

(* Five users in one shard, then one file cut at every byte offset:
   each reopen recovers exactly the users whose log record and blob
   both survive whole (a prefix, since both files are in put order),
   and a put made after that reopen survives the next one. *)
let sweep_tears file () =
  with_dir @@ fun dir ->
  let n = 5 in
  let s = Store.open_ ~shards:1 dir in
  for i = 0 to n - 1 do
    Store.put s ~user:(user i) (profile i)
  done;
  Store.close s;
  let path name = Filename.concat dir name in
  let read name = In_channel.with_open_bin (path name) In_channel.input_all in
  let write name data len =
    Out_channel.with_open_bin (path name) (fun oc ->
        Out_channel.output_substring oc data 0 len)
  in
  let seg = read "seg-00.dat" and log = read "users.log" in
  (* Where each user's record ends in the file being cut. *)
  let ends =
    let rec go pos acc =
      if pos >= String.length (if file = "users.log" then log else seg) then
        List.rev acc
      else
        let next =
          if file = "users.log" then
            pos + 2 + String.get_uint16_be log pos + 16
          else pos + 20 + Int32.to_int (String.get_int32_be seg pos)
        in
        go next (next :: acc)
    in
    go 0 []
  in
  Alcotest.(check int) "one record per user" n (List.length ends);
  let p99 = profile 99 in
  let fresh = Profile.fingerprint p99 in
  let full = if file = "users.log" then log else seg in
  for cut = 0 to String.length full do
    write "seg-00.dat" seg (String.length seg);
    write "users.log" log (String.length log);
    write file full cut;
    let whole = List.length (List.filter (fun e -> e <= cut) ends) in
    let check_users s ~extra =
      Alcotest.(check int)
        (Printf.sprintf "%s cut at %d: users" file cut)
        (whole + extra) (Store.users s);
      for i = 0 to n - 1 do
        if Store.mem s (user i) <> (i < whole) then
          Alcotest.failf "%s cut at %d: user %d %s" file cut i
            (if i < whole then "lost" else "recovered from a torn record")
      done
    in
    let s = Store.open_ ~shards:1 dir in
    check_users s ~extra:0;
    Store.put s ~user:"fresh" p99;
    Store.close s;
    let s = Store.open_ ~shards:1 dir in
    check_users s ~extra:1;
    (match Store.find s "fresh" with
    | Some p when Profile.fingerprint p = fresh -> ()
    | Some _ -> Alcotest.failf "%s cut at %d: fresh profile garbled" file cut
    | None -> Alcotest.failf "%s cut at %d: post-reopen put lost" file cut);
    Store.close s
  done

(* --- residency bound -------------------------------------------------- *)

let test_eviction_bounds_resident () =
  with_dir @@ fun dir ->
  let capacity = 16 in
  let evicted = ref 0 in
  let s =
    Store.open_ ~shards:4 ~resident_capacity:capacity
      ~on_evict:(fun _ _ -> incr evicted)
      dir
  in
  let n = 300 in
  for i = 0 to n - 1 do
    Store.put s ~user:(user i) (profile i);
    assert ((Store.stats s).Store.resident <= capacity)
  done;
  Alcotest.(check int)
    "resident at capacity" capacity
    (Store.stats s).Store.resident;
  (* Every lookup still succeeds — misses fault from disk — and the
     bound holds throughout a scan over the whole population. *)
  let rng = Rng.create 5 in
  for _ = 1 to 2 * n do
    let i = Rng.int rng n in
    (match Store.find s (user i) with
    | None -> Alcotest.failf "user %d unreachable under eviction" i
    | Some p ->
        if Profile.fingerprint p <> Profile.fingerprint (profile i) then
          Alcotest.failf "user %d faulted wrong profile" i);
    assert ((Store.stats s).Store.resident <= capacity)
  done;
  let st = Store.stats s in
  Alcotest.(check bool) "evictions happened" true (st.Store.evictions > 0);
  Alcotest.(check bool) "faults happened" true (st.Store.faults > 0);
  Alcotest.(check int)
    "eviction hook saw every capacity drop" st.Store.evictions !evicted;
  Store.close s

let test_capacity_zero_stores_nothing_resident () =
  with_dir @@ fun dir ->
  let s = Store.open_ ~resident_capacity:0 dir in
  for i = 0 to 9 do
    Store.put s ~user:(user i) (profile i)
  done;
  Alcotest.(check int) "nothing resident" 0 (Store.stats s).Store.resident;
  (* Every find faults straight from disk. *)
  Alcotest.(check bool) "still readable" true (Store.find s (user 3) <> None);
  Store.close s

let () =
  Testlib.seed_banner "test_net_store";
  Alcotest.run "cqp_net store"
    [
      ( "durability",
        [
          Alcotest.test_case "reopen byte-identical" `Quick
            test_reopen_byte_identical;
          Alcotest.test_case "last write wins across reopen" `Quick
            test_last_write_wins_across_reopen;
          Alcotest.test_case "content dedup" `Quick test_content_dedup;
          Alcotest.test_case "torn segment tail ignored" `Quick
            test_torn_tail_ignored;
          Alcotest.test_case "torn users.log tail ignored" `Quick
            test_torn_users_log_ignored;
          Alcotest.test_case "users.log cut at every byte" `Quick
            (sweep_tears "users.log");
          Alcotest.test_case "segment cut at every byte" `Quick
            (sweep_tears "seg-00.dat");
        ] );
      ( "residency",
        [
          Alcotest.test_case "eviction bounds resident" `Quick
            test_eviction_bounds_resident;
          Alcotest.test_case "capacity zero" `Quick
            test_capacity_zero_stores_nothing_resident;
        ] );
    ]

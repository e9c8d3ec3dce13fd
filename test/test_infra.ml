(* Unit tests for the supporting infrastructure: the work queue (Rq),
   I/O accounting, rowset column resolution, and instrumentation. *)

module C = Cqp_core
module Rowset = Cqp_exec.Rowset
module Io = Cqp_exec.Io
module V = Cqp_relal.Value

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Rq: the two-ended work queue -------------------------------------- *)

(* Entries here are raw states: price them like the algorithms do. *)
let state_words s = C.State.group_size s + C.Instrument.entry_overhead_words

(* Everything [Rq.drain] pops, in order. *)
let drained ?(budget = Cqp_resilience.Budget.unlimited) rq =
  let out = ref [] in
  C.Rq.drain ~budget rq (fun s -> out := s :: !out);
  List.rev !out

let test_rq_fifo_tail () =
  let stats = C.Instrument.create () in
  let rq = C.Rq.create ~words:state_words stats in
  C.Rq.push_tail rq [ 0 ];
  C.Rq.push_tail rq [ 1 ];
  C.Rq.push_tail rq [ 2 ];
  checkb "fifo" true (drained rq = [ [ 0 ]; [ 1 ]; [ 2 ] ]);
  checki "empty" 0 (C.Rq.length rq)

let test_rq_lifo_head () =
  let stats = C.Instrument.create () in
  let rq = C.Rq.create ~words:state_words stats in
  C.Rq.push_head rq [ 0 ];
  C.Rq.push_head rq [ 1 ];
  checkb "lifo" true (drained rq = [ [ 1 ]; [ 0 ] ])

let test_rq_mixed_ends () =
  let stats = C.Instrument.create () in
  let rq = C.Rq.create ~words:state_words stats in
  C.Rq.push_tail rq [ 1 ];
  C.Rq.push_head rq [ 0 ];
  C.Rq.push_tail rq [ 2 ];
  checkb "head first, then fifo" true (drained rq = [ [ 0 ]; [ 1 ]; [ 2 ] ]);
  checki "empty" 0 (C.Rq.length rq)

(* Entries pushed while draining are popped by the same drain: a head
   push comes next, a tail push after everything queued. *)
let test_rq_drain_pushes () =
  let stats = C.Instrument.create () in
  let rq = C.Rq.create ~words:state_words stats in
  C.Rq.push_tail rq [ 0 ];
  C.Rq.push_tail rq [ 1 ];
  let out = ref [] in
  C.Rq.drain ~budget:Cqp_resilience.Budget.unlimited rq (fun s ->
      out := s :: !out;
      if s = [ 0 ] then begin
        C.Rq.push_tail rq [ 3 ];
        C.Rq.push_head rq [ 2 ]
      end);
  checkb "order" true (List.rev !out = [ [ 0 ]; [ 2 ]; [ 1 ]; [ 3 ] ])

let test_rq_drain_expired () =
  let stats = C.Instrument.create () in
  let rq = C.Rq.create ~words:state_words stats in
  C.Rq.push_tail rq [ 0 ];
  let budget = Cqp_resilience.Budget.start ~deadline_ms:0. () in
  ignore (Cqp_resilience.Budget.expired budget);
  checkb "nothing popped" true (drained ~budget rq = []);
  checki "entry kept" 1 (C.Rq.length rq)

let test_rq_instruments_memory () =
  let stats = C.Instrument.create () in
  let rq = C.Rq.create ~words:state_words stats in
  C.Rq.push_tail rq [ 0; 1; 2 ];
  let peak_after_push = stats.C.Instrument.peak_words in
  checkb "held" true (peak_after_push > 0);
  ignore (drained rq);
  checkb "released" true (stats.C.Instrument.live_words < peak_after_push);
  checkb "peak persists" true (stats.C.Instrument.peak_words = peak_after_push)

(* --- Instrument --------------------------------------------------------- *)

let test_instrument_peak () =
  let t = C.Instrument.create () in
  C.Instrument.hold t [ 0; 1 ];
  C.Instrument.hold t [ 2 ];
  let peak = t.C.Instrument.peak_words in
  C.Instrument.release t [ 0; 1 ];
  C.Instrument.hold t [ 3 ];
  checkb "peak is high-water" true (t.C.Instrument.peak_words = peak);
  checkb "bytes positive" true (C.Instrument.peak_bytes t > 0)

let test_instrument_hwm_monotone () =
  let t = C.Instrument.create () in
  let states = [ [ 0 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 3 ] ] in
  let prev = ref 0 in
  List.iter
    (fun s ->
      C.Instrument.hold t s;
      checkb "peak never decreases" true (t.C.Instrument.peak_words >= !prev);
      prev := t.C.Instrument.peak_words;
      C.Instrument.release t s;
      checkb "peak survives release" true (t.C.Instrument.peak_words = !prev))
    states;
  checki "balanced hold/release leaves nothing live" 0 t.C.Instrument.live_words

let test_instrument_peak_bytes_arith () =
  let t = C.Instrument.create () in
  let states = [ [ 0; 1; 2 ]; [ 4; 5 ] ] in
  List.iter (C.Instrument.hold t) states;
  let words =
    List.fold_left
      (fun acc s -> acc + List.length s + C.Instrument.entry_overhead_words)
      0 states
  in
  checki "peak words" words t.C.Instrument.peak_words;
  checki "peak bytes = 8 * words" (8 * words) (C.Instrument.peak_bytes t);
  List.iter (C.Instrument.release t) states;
  checki "live back to zero" 0 t.C.Instrument.live_words;
  checki "peak unchanged after drain" words t.C.Instrument.peak_words

let test_instrument_underflow_counted () =
  let t = C.Instrument.create () in
  C.Instrument.hold t [ 0 ];
  C.Instrument.release t [ 0; 1; 2 ];
  checki "live clamps at zero" 0 t.C.Instrument.live_words;
  checki "underflow counted" 1 t.C.Instrument.hold_underflows;
  C.Instrument.release t [ 4 ];
  checki "second underflow" 2 t.C.Instrument.hold_underflows;
  let snap = C.Instrument.snapshot t in
  checki "snapshot carries underflows" 2 snap.C.Instrument.hold_underflows

let test_instrument_snapshot_isolated () =
  let t = C.Instrument.create () in
  C.Instrument.visit t;
  let snap = C.Instrument.snapshot t in
  C.Instrument.visit t;
  checki "snapshot frozen" 1 snap.C.Instrument.states_visited;
  checki "original advanced" 2 t.C.Instrument.states_visited

(* --- Io ------------------------------------------------------------------ *)

let test_io_reset () =
  let io = Io.create () in
  Io.charge_blocks io 7;
  checki "charged" 7 (Io.block_reads io);
  Io.reset io;
  checki "reset" 0 (Io.block_reads io)

(* --- Rowset column resolution -------------------------------------------- *)

let test_rowset_resolution () =
  let cols =
    [ Rowset.col ~qualifier:"m" "title"; Rowset.col ~qualifier:"d" "name" ]
  in
  checki "qualified" 0 (Rowset.find_col cols (Some "m") "title");
  checki "unqualified unique" 1 (Rowset.find_col cols None "name");
  checkb "unknown" true
    (match Rowset.find_col cols None "nope" with
    | exception Rowset.Column_error _ -> true
    | _ -> false)

let test_rowset_ambiguity () =
  let cols = [ Rowset.col ~qualifier:"a" "x"; Rowset.col ~qualifier:"b" "x" ] in
  checkb "ambiguous unqualified" true
    (match Rowset.find_col cols None "x" with
    | exception Rowset.Column_error _ -> true
    | _ -> false);
  checki "qualified ok" 1 (Rowset.find_col cols (Some "b") "x")

let test_rowset_append_arity () =
  let a = Rowset.make [ Rowset.col "x" ] [| [| V.Int 1 |] |] in
  let b = Rowset.make [ Rowset.col "y" ] [| [| V.Int 2 |] |] in
  checki "append" 3 (Rowset.cardinality (Rowset.concat [ a; b; a ]));
  let c = Rowset.make [ Rowset.col "x"; Rowset.col "y" ] [||] in
  checkb "arity mismatch" true
    (match Rowset.concat [ a; b; c ] with
    | exception Rowset.Column_error _ -> true
    | _ -> false)

(* --- Solution ------------------------------------------------------------- *)

let test_solution_of_ids_dedups () =
  let ps =
    Testlib.fabricate ~costs:[| 10.; 20. |] ~dois:[| 0.9; 0.5 |]
      ~fracs:[| 0.5; 0.5 |] ()
  in
  let space = C.Space.create ~order:C.Space.By_doi ps in
  let sol = C.Solution.of_ids space [ 1; 0; 1 ] in
  Alcotest.(check (list int)) "sorted unique" [ 0; 1 ] sol.C.Solution.pref_ids

(* --- Rng.split: order-independent keyed derivation ---------------------- *)

module Rng = Cqp_util.Rng

let stream rng n = List.init n (fun _ -> Rng.int rng 1_000_000)

let test_split_order_independent () =
  (* Request #3 of a batch draws the same stream no matter how many
     other requests were split off before it, or in what order. *)
  let direct = stream (Rng.split (Rng.create 42) 3) 16 in
  let after_others =
    let base = Rng.create 42 in
    ignore (stream (Rng.split base 7) 5);
    ignore (stream (Rng.split base 0) 9);
    stream (Rng.split base 3) 16
  in
  let reordered =
    let base = Rng.create 42 in
    let r3 = Rng.split base 3 in
    ignore (stream (Rng.split base 1) 4);
    stream r3 16
  in
  Alcotest.(check (list int)) "same stream regardless of batch position"
    direct after_others;
  Alcotest.(check (list int)) "same stream when split early, drawn late"
    direct reordered

let test_split_does_not_advance_parent () =
  let a = Rng.create 7 and b = Rng.create 7 in
  ignore (Rng.split a 11);
  ignore (Rng.split a 12);
  Alcotest.(check (list int)) "parent stream untouched by splits"
    (stream b 8) (stream a 8)

let test_split_keys_distinct () =
  let base = Rng.create 1 in
  let s0 = stream (Rng.split base 0) 8 in
  let s1 = stream (Rng.split base 1) 8 in
  checkb "distinct keys, distinct streams" false (s0 = s1);
  checkb "negative key rejected" true
    (match Rng.split base (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_split_depends_on_parent_state () =
  (* Splits from different parent positions differ — the key alone is
     not the whole identity, the parent's state participates. *)
  let a = Rng.create 5 in
  let s_before = stream (Rng.split a 2) 8 in
  ignore (Rng.int a 10);
  let s_after = stream (Rng.split a 2) 8 in
  checkb "advanced parent yields a different child" false
    (s_before = s_after)

let () =
  Testlib.seed_banner "infra";
  Alcotest.run "infra"
    [
      ( "rq",
        [
          Alcotest.test_case "fifo tail" `Quick test_rq_fifo_tail;
          Alcotest.test_case "lifo head" `Quick test_rq_lifo_head;
          Alcotest.test_case "mixed ends" `Quick test_rq_mixed_ends;
          Alcotest.test_case "drain pops its own pushes" `Quick
            test_rq_drain_pushes;
          Alcotest.test_case "drain under an expired budget" `Quick
            test_rq_drain_expired;
          Alcotest.test_case "memory accounting" `Quick test_rq_instruments_memory;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "peak" `Quick test_instrument_peak;
          Alcotest.test_case "high-water monotone" `Quick
            test_instrument_hwm_monotone;
          Alcotest.test_case "peak bytes arithmetic" `Quick
            test_instrument_peak_bytes_arith;
          Alcotest.test_case "snapshot" `Quick test_instrument_snapshot_isolated;
          Alcotest.test_case "release underflow" `Quick
            test_instrument_underflow_counted;
        ] );
      ("io", [ Alcotest.test_case "reset/cost" `Quick test_io_reset ]);
      ( "rowset",
        [
          Alcotest.test_case "resolution" `Quick test_rowset_resolution;
          Alcotest.test_case "ambiguity" `Quick test_rowset_ambiguity;
          Alcotest.test_case "append" `Quick test_rowset_append_arity;
        ] );
      ( "solution",
        [ Alcotest.test_case "dedup ids" `Quick test_solution_of_ids_dedups ] );
      ( "rng",
        [
          Alcotest.test_case "split order-independent" `Quick
            test_split_order_independent;
          Alcotest.test_case "split leaves parent alone" `Quick
            test_split_does_not_advance_parent;
          Alcotest.test_case "split keys distinct" `Quick
            test_split_keys_distinct;
          Alcotest.test_case "split tracks parent state" `Quick
            test_split_depends_on_parent_state;
        ] );
    ]

(* Tests for states and transitions (Section 5.1): Table 3 group
   structure, Table 4/5 monotonicity of transitions, dominance. *)

module C = Cqp_core
module State = C.State

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let test_basics () =
  let s = State.add 2 (State.add 0 (State.singleton 4)) in
  checki "group size" 3 (State.group_size s);
  checkb "mem" true (State.mem 2 s);
  checks "1-based print" "{1,3,5}" (State.to_string s);
  checkb "add dup" true
    (match State.add 2 s with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_horizontal () =
  (* Horizontal adds the successor of the largest position. *)
  checkb "c1c3 -> c1c3c4" true
    (State.horizontal ~k:4 [ 0; 2 ] = Some [ 0; 2; 3 ]);
  checkb "at end" true (State.horizontal ~k:4 [ 1; 3 ] = None);
  checkb "singleton" true (State.horizontal ~k:4 [ 0 ] = Some [ 0; 1 ])

let test_vertical () =
  (* Figure 4: Vertical(c1c3) = {c2c3, c1c4}. *)
  let v = State.vertical ~k:4 [ 0; 2 ] in
  checkb "two neighbors" true
    (List.sort compare v = [ [ 0; 3 ]; [ 1; 2 ] ]);
  (* successor present -> skipped *)
  checkb "adjacent pair" true (State.vertical ~k:4 [ 0; 1 ] = [ [ 0; 2 ] ]);
  checkb "last element" true (State.vertical ~k:2 [ 1 ] = [])

let test_horizontal2 () =
  let h = State.horizontal2 ~k:5 [ 1; 3 ] in
  checkb "all insertions in position order" true
    (h = [ [ 0; 1; 3 ]; [ 1; 2; 3 ]; [ 1; 3; 4 ] ])

let test_dominates () =
  checkb "reachable via verticals" true (State.dominates [ 0; 1 ] [ 0; 3 ]);
  checkb "equal dominates" true (State.dominates [ 0; 2 ] [ 0; 2 ]);
  checkb "not comparable" false (State.dominates [ 0; 3 ] [ 1; 2 ]);
  checkb "different sizes" false (State.dominates [ 0 ] [ 0; 1 ])

let test_subset () =
  checkb "subset" true (State.subset [ 1; 3 ] [ 0; 1; 3 ]);
  checkb "not subset" false (State.subset [ 2 ] [ 0; 1 ])

let test_all_states_table3 () =
  (* Table 3 (K=4): groups of sizes 1..4 with 4+6+4+1 = 15 states. *)
  let states = State.all_states ~k:4 in
  checki "15 states" 15 (List.length states);
  let group g =
    List.length (List.filter (fun s -> State.group_size s = g) states)
  in
  checki "group 1" 4 (group 1);
  checki "group 2" 6 (group 2);
  checki "group 3" 4 (group 3);
  checki "group 4" 1 (group 4)

(* Table 4/5: empirical transition monotonicity over a fabricated
   space.  On the cost vector: Vertical decreases cost (doi unknown);
   Horizontal increases both cost and doi.  On the doi vector:
   Horizontal increases doi and cost; Vertical decreases doi. *)

let test_table4_cost_transitions () =
  let ps = Testlib.figure6_space () in
  let space = C.Space.create ~order:C.Space.By_cost ps in
  let k = C.Space.k space in
  List.iter
    (fun st ->
      let cost = C.Space.cost space st in
      let doi = C.Space.doi space st in
      (match State.horizontal ~k st with
      | Some h ->
          checkb "H raises cost" true (C.Space.cost space h > cost);
          checkb "H raises doi" true (C.Space.doi space h > doi)
      | None -> ());
      List.iter
        (fun v -> checkb "V lowers cost" true (C.Space.cost space v < cost))
        (State.vertical ~k st))
    (State.all_states ~k)

let test_table5_doi_transitions () =
  let ps = Testlib.figure6_space () in
  let space = C.Space.create ~order:C.Space.By_doi ps in
  let k = C.Space.k space in
  List.iter
    (fun st ->
      let doi = C.Space.doi space st in
      (match State.horizontal ~k st with
      | Some h -> checkb "H raises doi" true (C.Space.doi space h > doi)
      | None -> ());
      List.iter
        (fun v -> checkb "V lowers doi" true (C.Space.doi space v < doi))
        (State.vertical ~k st))
    (State.all_states ~k)

(* Proposition 1: transition destinations are states of the space. *)
let prop_transitions_closed =
  QCheck.Test.make ~name:"transitions stay in the space" ~count:200
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (k, seed) ->
      let rng = Cqp_util.Rng.create seed in
      let size = 1 + Cqp_util.Rng.int rng k in
      let all = Array.init k (fun i -> i) in
      let ids = Cqp_util.Rng.sample_without_replacement rng size all in
      let st = List.sort compare ids in
      let valid s =
        List.for_all (fun p -> p >= 0 && p < k) s
        && List.sort_uniq compare s = s
        && s <> []
      in
      let h_ok =
        match C.State.horizontal ~k st with
        | Some h -> valid h && C.State.group_size h = C.State.group_size st + 1
        | None -> true
      in
      h_ok
      && List.for_all
           (fun v -> valid v && C.State.group_size v = C.State.group_size st)
           (C.State.vertical ~k st)
      && List.for_all
           (fun h2 -> valid h2 && C.State.group_size h2 = C.State.group_size st + 1)
           (C.State.horizontal2 ~k st))

(* Incremental valuation: walking the space with O(1) parameter updates
   must agree with the from-scratch [params_of_ids] fold, and the
   carried bitmask must stay in sync with the position list.  Random
   walks mix Horizontal, Vertical, Horizontal2 and explicit removals so
   extension, replacement and retraction are all exercised, on random
   spaces and on spaces where some items have doi 1 or size fraction 0,
   whose retraction is not invertible and falls back to a recompute. *)
let close a b = abs_float (a -. b) < 1e-9

let params_agree (a : C.Params.t) (b : C.Params.t) =
  close a.C.Params.doi b.C.Params.doi
  && close a.C.Params.cost b.C.Params.cost
  && close a.C.Params.size b.C.Params.size

let spaces =
  [ Testlib.random_space; Testlib.saturated_space ~zero_fracs:true ]

let prop_incremental_matches_scratch =
  QCheck.Test.make ~name:"incremental params = from-scratch fold" ~count:150
    QCheck.(pair (int_range 1 10) (int_range 0 1_000_000))
    (fun (k, seed) ->
      List.for_all
        (fun space_of ->
          let rng = Cqp_util.Rng.create seed in
          let ps = space_of rng ~k in
          let space = C.Space.create ~order:C.Space.By_doi ps in
          let ok = ref true in
          let check (v : C.Space.valued) =
            (match v.C.Space.key with
            | C.Space.Mask m -> ok := !ok && m = C.State.mask v.C.Space.state
            | C.Space.Bits b ->
                ok := !ok && Cqp_util.Bitset.to_list b = v.C.Space.state);
            ok :=
              !ok
              && params_agree v.C.Space.params
                   (C.Space.params space v.C.Space.state)
          in
          let v = ref (C.Space.value_singleton space (Cqp_util.Rng.int rng k)) in
          check !v;
          for _ = 1 to 30 do
            let group = C.State.group_size !v.C.Space.state in
            (match Cqp_util.Rng.int rng 4 with
            | 0 -> (
                match C.Space.horizontal_v space !v with
                | Some v' -> v := v'
                | None -> ())
            | 1 -> (
                match C.Space.vertical_v space !v with
                | [] -> ()
                | vs -> v := List.nth vs (Cqp_util.Rng.int rng (List.length vs)))
            | 2 -> (
                match C.Space.horizontal2_v space !v with
                | [] -> ()
                | vs -> v := List.nth vs (Cqp_util.Rng.int rng (List.length vs)))
            | _ ->
                if group > 1 then
                  let arr = Array.of_list !v.C.Space.state in
                  v :=
                    C.Space.remove_pos space !v
                      arr.(Cqp_util.Rng.int rng group));
            check !v
          done;
          !ok)
        spaces)

(* Same agreement for the id-set form used by the solver BnBs and the
   metaheuristic probes: a random add/remove chain over preference ids
   tracks [params_of_ids] (removal falls back to a from-scratch fold
   when the retraction is not invertible, signalled by [None]). *)
let prop_id_chain_matches_scratch =
  QCheck.Test.make ~name:"id add/remove chain = from-scratch fold" ~count:150
    QCheck.(pair (int_range 1 10) (int_range 0 1_000_000))
    (fun (k, seed) ->
      List.for_all
        (fun space_of ->
          let rng = Cqp_util.Rng.create seed in
          let ps = space_of rng ~k in
          let space = C.Space.create ~order:C.Space.By_doi ps in
          let members = Array.make k false in
          let ids () =
            List.filter (fun id -> members.(id)) (List.init k Fun.id)
          in
          let p = ref (C.Space.params_of_ids space []) in
          let n = ref 0 in
          let ok = ref true in
          for _ = 1 to 40 do
            let id = Cqp_util.Rng.int rng k in
            if members.(id) then begin
              members.(id) <- false;
              (p :=
                 match C.Space.params_without_id space ~n:!n !p id with
                 | Some p' -> p'
                 | None -> C.Space.params_of_ids space (ids ()));
              decr n
            end
            else begin
              members.(id) <- true;
              p := C.Space.params_with_id space ~n:!n !p id;
              incr n
            end;
            ok := !ok && params_agree !p (C.Space.params_of_ids space (ids ()))
          done;
          !ok)
        spaces)

let qc = Testlib.qc

let () =
  Testlib.seed_banner "state";
  Alcotest.run "state"
    [
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "table 3 groups" `Quick test_all_states_table3;
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "subset" `Quick test_subset;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "horizontal" `Quick test_horizontal;
          Alcotest.test_case "vertical" `Quick test_vertical;
          Alcotest.test_case "horizontal2" `Quick test_horizontal2;
          Alcotest.test_case "table 4 (cost space)" `Quick test_table4_cost_transitions;
          Alcotest.test_case "table 5 (doi space)" `Quick test_table5_doi_transitions;
          qc prop_transitions_closed;
        ] );
      ( "incremental valuation",
        [
          qc prop_incremental_matches_scratch;
          qc prop_id_chain_matches_scratch;
        ] );
    ]

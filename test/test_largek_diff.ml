(* Differential coverage for K beyond State.max_mask_bits (61).

   The old fast path crashed (or, with asserts off, silently collided
   visited keys) once a preference profile grew past the native int
   mask.  These suites prove the Bitset-keyed search is bit-identical
   to the position-list keying it replaced: same solution ids, same
   parameters (exact float bits), same [states_visited] — for all five
   Section-5 algorithms and both exact branch-and-bounds, at K = 70,
   71 and 100, against that keying's results recorded while it was
   still live and checked equal to [`Auto] on the same spaces.
   Small-K cross-checks pin the int mask to forced [`Bits] and the
   exact algorithms to the exhaustive oracle. *)

module C = Cqp_core

let checki = Alcotest.(check int)

type runner = {
  name : string;
  order : C.Space.order;
  exact : bool;  (** maximizes doi under cmax exactly *)
  solve : ?budget:Cqp_resilience.Budget.t -> C.Space.t -> C.Solution.t option;
}

let runners ~cmax =
  [
    {
      name = "C_boundaries";
      order = C.Space.By_cost;
      exact = true;
      solve = (fun ?budget sp -> Some (C.C_boundaries.solve ?budget sp ~cmax));
    };
    {
      name = "C_maxbounds";
      order = C.Space.By_cost;
      exact = false;
      solve = (fun ?budget sp -> Some (C.C_maxbounds.solve ?budget sp ~cmax));
    };
    {
      name = "D_maxdoi";
      order = C.Space.By_doi;
      exact = true;
      solve = (fun ?budget sp -> Some (C.D_maxdoi.solve ?budget sp ~cmax));
    };
    {
      name = "D_singlemaxdoi";
      order = C.Space.By_doi;
      exact = false;
      solve = (fun ?budget sp -> Some (C.D_singlemaxdoi.solve ?budget sp ~cmax));
    };
    {
      name = "D_heurdoi";
      order = C.Space.By_doi;
      exact = false;
      solve = (fun ?budget sp -> Some (C.D_heurdoi.solve ?budget sp ~cmax));
    };
    {
      name = "min_cost_bnb";
      order = C.Space.By_doi;
      exact = false;
      (* a doi floor forces a real search: the empty set is infeasible *)
      solve =
        (fun ?budget sp ->
          C.Solver.min_cost_bnb ?budget sp (C.Params.make ~dmin:0.9 ()));
    };
    {
      name = "max_doi_bnb";
      order = C.Space.By_doi;
      exact = true;
      solve =
        (fun ?budget sp ->
          C.Solver.max_doi_bnb ?budget sp (C.Params.with_cmax cmax));
    };
  ]

(* Run one algorithm on a fresh space with the given keying and report
   everything the equivalence claim covers. *)
let run_with keys ps (r : runner) =
  let space = C.Space.create ~order:r.order ~keys ps in
  let sol = r.solve space in
  let visited = (C.Space.stats space).C.Instrument.states_visited in
  let summary =
    Option.map
      (fun (s : C.Solution.t) -> (Testlib.sorted_ids s, s.C.Solution.params))
      sol
  in
  (summary, visited)

let close a b = abs_float (a -. b) <= 1e-9

let check_pair ~what r (sum_a, vis_a) (sum_b, vis_b) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s solution+params identical" r.name what)
    true (sum_a = sum_b);
  checki (Printf.sprintf "%s: %s states_visited identical" r.name what) vis_a
    vis_b

(* --- K = 70 / 71 / 100: `Auto (bitset) vs the recorded legacy keying *)

(* (k, runner, sorted ids, (doi, cost, size) as IEEE-754 bits,
   states_visited) of the position-list keying, cmax = 30, then
   (peak_words, param_evals, incr_updates) of the bitset-keyed space,
   recorded before the Section-5 searches were rebuilt on shared
   pieces ([Space.saturate], [Rq.drain]). *)
let legacy_goldens =
  [
    ( 70, "C_boundaries", [ 7; 24; 26 ],
      (0x3fef6116ecefe349L, 0x403d4693e776a8b0L, 0x403711e295ab57d8L), 257,
      (122, 14, 244) );
    ( 70, "C_maxbounds", [ 7; 24; 26 ],
      (0x3fef6116ecefe349L, 0x403d4693e776a8b0L, 0x403711e295ab57d8L), 104,
      (77, 13, 106) );
    ( 70, "D_maxdoi", [ 7; 24; 26 ],
      (0x3fef6116ecefe349L, 0x403d4693e776a8b0L, 0x403711e295ab57d8L), 1079681,
      (166939, 1, 1079684) );
    ( 70, "D_singlemaxdoi", [ 7; 24; 26 ],
      (0x3fef6116ecefe349L, 0x403d4693e776a8b0L, 0x403711e295ab57d8L), 6348,
      (462, 1, 6365) );
    ( 70, "D_heurdoi", [ 7; 24; 26 ],
      (0x3fef6116ecefe349L, 0x403d4693e776a8b0L, 0x403711e295ab57d8L), 44,
      (0, 1, 85) );
    ( 70, "min_cost_bnb", [ 7; 24 ],
      (0x3fee34266dd32963L, 0x4028a23d7d939528L, 0x404086bc3294fcfcL), 12231,
      (0, 2, 6115) );
    ( 70, "max_doi_bnb", [ 7; 24; 26 ],
      (0x3fef6116ecefe349L, 0x403d4693e776a8b0L, 0x403711e295ab57d8L), 1611,
      (0, 2, 805) );
    ( 71, "C_boundaries", [ 14; 16; 18 ],
      (0x3fef8ae60de0f1ecL, 0x403cfcb59629bac4L, 0x403c924ddaf13f6bL), 256,
      (162, 15, 242) );
    ( 71, "C_maxbounds", [ 10; 18; 41 ],
      (0x3fef502e879b1fd2L, 0x403dd048a7b82014L, 0x403c74c2f5620751L), 96,
      (63, 12, 99) );
    ( 71, "D_maxdoi", [ 14; 16; 18 ],
      (0x3fef8ae60de0f1ecL, 0x403cfcb59629bac4L, 0x403c924ddaf13f6bL), 1149592,
      (170351, 1, 1149593) );
    ( 71, "D_singlemaxdoi", [ 14; 16; 18 ],
      (0x3fef8ae60de0f1ecL, 0x403cfcb59629bac4L, 0x403c924ddaf13f6bL), 2133,
      (449, 1, 2150) );
    ( 71, "D_heurdoi", [ 10; 18; 41 ],
      (0x3fef502e879b1fd2L, 0x403dd048a7b82014L, 0x403c74c2f5620751L), 60,
      (0, 1, 99) );
    ( 71, "min_cost_bnb", [ 16; 18 ],
      (0x3fedfbd7d3b752ffL, 0x4030a372bc3f0ca8L, 0x4043cc5539b53861L), 7453,
      (0, 2, 3726) );
    ( 71, "max_doi_bnb", [ 14; 16; 18 ],
      (0x3fef8ae60de0f1ecL, 0x403cfcb59629bac4L, 0x403c924ddaf13f6bL), 2925,
      (0, 2, 1462) );
    ( 100, "C_boundaries", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 421,
      (189, 17, 405) );
    ( 100, "C_maxbounds", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 127,
      (42, 8, 134) );
    ( 100, "D_maxdoi", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 561785,
      (82780, 1, 561785) );
    ( 100, "D_singlemaxdoi", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 1021,
      (180, 1, 1037) );
    ( 100, "D_heurdoi", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 59,
      (0, 1, 125) );
    ( 100, "min_cost_bnb", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 29471,
      (0, 2, 14735) );
    ( 100, "max_doi_bnb", [ 22; 29 ],
      (0x3fed8dd3dc7e250bL, 0x403d84f11a010064L, 0x40119cabf3c53fe8L), 4005,
      (0, 2, 2002) );
  ]

let float_bits (p : C.Params.t) =
  Int64.(bits_of_float p.doi, bits_of_float p.cost, bits_of_float p.size)

let test_large_k k () =
  let rng = Cqp_util.Rng.create (0xB1757 + k) in
  let ps = Testlib.random_space rng ~k in
  (* a few multiples of the cheapest costs: deep enough to search,
     bounded enough that the exact algorithms stay fast at K = 100 *)
  let cmax = 30. in
  List.iter
    (fun r ->
      let space = C.Space.create ~order:r.order ~keys:`Auto ps in
      let summary =
        Option.map
          (fun (s : C.Solution.t) ->
            (Testlib.sorted_ids s, float_bits s.C.Solution.params))
          (r.solve space)
      in
      let st = C.Space.stats space in
      let ids, bits, legacy_visited, (peak, evals, updates) =
        List.find_map
          (fun (k', name, ids, bits, v, extra) ->
            if k' = k && name = r.name then Some (ids, bits, v, extra)
            else None)
          legacy_goldens
        |> Option.get
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: auto(bits)=legacy solution+params identical" r.name)
        true
        (summary = Some (ids, bits));
      checki
        (Printf.sprintf "%s: auto(bits)=legacy states_visited identical" r.name)
        legacy_visited st.C.Instrument.states_visited;
      checki (r.name ^ ": peak_words") peak st.C.Instrument.peak_words;
      checki (r.name ^ ": param_evals") evals st.C.Instrument.param_evals;
      checki (r.name ^ ": incr_updates") updates st.C.Instrument.incr_updates)
    (runners ~cmax)

(* --- small K: mask = bits, and the exact algorithms match the oracle - *)

let test_small_k_mask_bits_oracle () =
  let rng = Cqp_util.Rng.create 0x5EED5 in
  for _ = 1 to 5 do
    let k = 4 + Cqp_util.Rng.int rng 8 in
    let ps = Testlib.random_space rng ~k in
    let cmax = 40. +. Cqp_util.Rng.float rng 120. in
    let oracle =
      C.Exhaustive.solve (C.Space.create ~order:By_cost ~keys:`Bits ps) ~cmax
    in
    List.iter
      (fun r ->
        let ((summary, _) as auto) = run_with `Auto ps r in
        check_pair ~what:"auto(mask)=bits" r auto (run_with `Bits ps r);
        if r.exact then
          Alcotest.(check bool)
            (Printf.sprintf "%s optimal doi" r.name)
            true
            (match summary with
            | Some (_, p) ->
                close p.C.Params.doi oracle.C.Solution.params.C.Params.doi
            | None -> false))
      (runners ~cmax)
  done

let test_small_k_oracle () =
  (* the exact algorithms agree with the exhaustive oracle's doi on a
     `Bits-forced space, so the new keying changes no answers *)
  let rng = Cqp_util.Rng.create 0xACE in
  for _ = 1 to 5 do
    let k = 4 + Cqp_util.Rng.int rng 6 in
    let ps = Testlib.random_space rng ~k in
    let cmax = 40. +. Cqp_util.Rng.float rng 120. in
    let oracle =
      C.Exhaustive.solve (C.Space.create ~order:By_cost ~keys:`Bits ps) ~cmax
    in
    List.iter
      (fun (name, order, solve) ->
        let space = C.Space.create ~order ~keys:`Bits ps in
        let sol : C.Solution.t = solve space ~cmax in
        Alcotest.(check bool)
          (Printf.sprintf "%s optimal doi on `Bits space" name)
          true
          (close sol.C.Solution.params.C.Params.doi
             oracle.C.Solution.params.C.Params.doi))
      [
        ("C_boundaries", C.Space.By_cost, C.C_boundaries.solve ?budget:None);
        ("D_maxdoi", C.Space.By_doi, C.D_maxdoi.solve ?budget:None);
      ]
  done

(* --- every search's counters, pinned ---------------------------------- *)

(* The five algorithms and both branch-and-bounds on fixed random
   spaces at K 1-24, under both keyings, with an unlimited and an
   already-expired budget: the sorted ids, the [%h] params and every
   deterministic [Instrument] field (all but [wall_seconds]) of both
   the live space and the returned [Solution.stats], hashed.  cmax is
   30, 60 and 120 at every K (one to a few item costs), and 5%, 15%,
   30% and 60% of the supreme cost while K <= 16 (deeper searches).
   A change to how a search walks, values or stores its states moves
   the digest. *)
let golden_counters_md5 = "53f6ac3f1db413b38fbe7ed47646c42b"

let counters_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let instrument label (s : C.Instrument.t) =
    Printf.bprintf buf " %s %d %d %d %d %d %d" label
      s.C.Instrument.states_visited s.param_evals s.incr_updates s.live_words
      s.peak_words s.hold_underflows
  in
  let budgets =
    [
      ("unlimited", fun () -> None);
      ( "expired",
        fun () ->
          let b = Cqp_resilience.Budget.start ~deadline_ms:0. () in
          ignore (Cqp_resilience.Budget.expired b);
          Some b );
    ]
  in
  for k = 1 to 24 do
    let ps = Testlib.random_space (Cqp_util.Rng.create (0xC0DE + k)) ~k in
    let supreme = C.Pref_space.supreme_cost ps in
    let cmaxes =
      [ 30.; 60.; 120. ]
      @
      if k <= 16 then List.map (fun f -> f *. supreme) [ 0.05; 0.15; 0.3; 0.6 ]
      else []
    in
    List.iter
      (fun cmax ->
        List.iter
          (fun (keys_name, keys) ->
            List.iter
              (fun (budget_name, budget) ->
                List.iter
                  (fun (r : runner) ->
                    let space = C.Space.create ~order:r.order ~keys ps in
                    Printf.bprintf buf "%d/%h/%s/%s/%s" k cmax keys_name
                      budget_name r.name;
                    (match r.solve ?budget:(budget ()) space with
                    | None -> Buffer.add_string buf " none"
                    | Some (s : C.Solution.t) ->
                        let p = s.C.Solution.params in
                        Printf.bprintf buf " [%s] %h %h %h"
                          (String.concat ","
                             (List.map string_of_int (Testlib.sorted_ids s)))
                          p.C.Params.doi p.C.Params.cost p.C.Params.size;
                        instrument "sol" s.C.Solution.stats);
                    instrument "space" (C.Space.stats space);
                    Buffer.add_char buf '\n')
                  (runners ~cmax))
              budgets)
          [ ("auto", `Auto); ("bits", `Bits) ])
      cmaxes
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_counters_golden () =
  Alcotest.(check string)
    "counters digest" golden_counters_md5 (counters_digest ())

(* --- K > 61 no longer crashes the fast path ------------------------- *)

let test_no_mask_overflow () =
  (* the old C_maxbounds mask fallback asserted [p < Sys.int_size - 1];
     this is the exact shape that used to die *)
  let k = C.State.max_mask_bits + 9 in
  let rng = Cqp_util.Rng.create 99 in
  let ps = Testlib.random_space rng ~k in
  let space = C.Space.create ~order:By_cost ps in
  Alcotest.(check bool) "auto keying leaves the mask" false
    (C.Space.uses_mask space);
  let sol = C.C_maxbounds.solve space ~cmax:30. in
  Alcotest.(check bool)
    "solution ids within the wide universe" true
    (List.for_all (fun id -> id >= 0 && id < k) sol.C.Solution.pref_ids)

let () =
  Testlib.seed_banner "test_largek_diff";
  Alcotest.run "cqp_largek_diff"
    [
      ( "large-k",
        [
          Alcotest.test_case "K=70 auto=legacy, all algorithms" `Quick
            (test_large_k 70);
          Alcotest.test_case "K=100 auto=legacy, all algorithms" `Quick
            (test_large_k 100);
          Alcotest.test_case "K=70 (second profile)" `Quick
            (test_large_k 71);
          Alcotest.test_case "no mask overflow past 61" `Quick
            test_no_mask_overflow;
          Alcotest.test_case "counters = golden" `Quick test_counters_golden;
        ] );
      ( "small-k",
        [
          Alcotest.test_case "mask = bits = oracle" `Quick
            test_small_k_mask_bits_oracle;
          Alcotest.test_case "exhaustive oracle on `Bits" `Quick
            test_small_k_oracle;
        ] );
    ]

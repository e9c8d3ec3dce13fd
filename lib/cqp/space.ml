module Bitset = Cqp_util.Bitset
module Doi = Cqp_prefs.Doi

type order = By_cost | By_doi | By_size
type keying = [ `Auto | `Bits ]
type keymode = Kmask | Kbits

type t = {
  order : order;
  ps : Pref_space.t;
  positions : int array;  (** position -> preference id *)
  item_cost : float array;  (** by preference id *)
  dois : float array;
  item_frac : float array;
  base_cost : float;
  base_size : float;
  keymode : keymode;  (** how valued states are keyed, see {!key} *)
  stats : Instrument.t;
}

let create ?(order = By_cost) ?(keys = `Auto) ps =
  let open Pref_space in
  let positions =
    match order with
    | By_doi -> Array.copy ps.d
    | By_cost ->
        if Array.length ps.c <> Array.length ps.items then
          invalid_arg "Space.create: C vector not built (use All_orders)";
        Array.copy ps.c
    | By_size ->
        if Array.length ps.s <> Array.length ps.items then
          invalid_arg "Space.create: S vector not built (use All_orders)";
        Array.copy ps.s
  in
  let keymode =
    match keys with
    | `Auto ->
        if Array.length positions <= State.max_mask_bits then Kmask else Kbits
    | `Bits -> Kbits
  in
  {
    order;
    ps;
    positions;
    item_cost = Array.map (fun it -> it.cost) ps.items;
    dois = Array.map (fun it -> it.doi) ps.items;
    item_frac =
      Array.map
        (fun it ->
          if Estimate.base_size ps.estimate > 0. then
            it.size /. Estimate.base_size ps.estimate
          else 0.)
        ps.items;
    base_cost = Estimate.base_cost ps.estimate;
    base_size = Estimate.base_size ps.estimate;
    keymode;
    stats = Instrument.create ();
  }

let order t = t.order
let k t = Array.length t.positions
let pref_space t = t.ps
let stats t = t.stats
let pref_id t pos = t.positions.(pos)
let pos_cost t pos = t.item_cost.(t.positions.(pos))

let pref_ids t state =
  List.sort Stdlib.compare (List.map (fun pos -> t.positions.(pos)) state)

let cost_of_ids t ids =
  List.fold_left (fun acc id -> acc +. t.item_cost.(id)) 0. ids

let doi_of_ids t ids =
  List.fold_left (fun acc id -> Doi.combine_incr acc t.dois.(id)) 0. ids

let size_of_ids t ids =
  List.fold_left (fun acc id -> acc *. t.item_frac.(id)) t.base_size ids

let cost t state =
  Instrument.eval t.stats;
  cost_of_ids t (List.map (fun pos -> t.positions.(pos)) state)

let doi t state =
  Instrument.eval t.stats;
  doi_of_ids t (List.map (fun pos -> t.positions.(pos)) state)

let size t state =
  Instrument.eval t.stats;
  size_of_ids t (List.map (fun pos -> t.positions.(pos)) state)

let params_of_ids t ids =
  Instrument.eval t.stats;
  if ids = [] then
    { Params.doi = 0.; cost = t.base_cost; size = t.base_size }
  else
    {
      Params.doi = doi_of_ids t ids;
      cost = cost_of_ids t ids;
      size = size_of_ids t ids;
    }

let params t state = params_of_ids t (List.map (fun pos -> t.positions.(pos)) state)

let item t id = t.ps.Pref_space.items.(id)
let frac t id = t.item_frac.(id)
let uses_mask t = t.keymode = Kmask
let estimate t = t.ps.Pref_space.estimate

(* ------------------------------------------------------------------ *)
(* Incremental evaluation: a state carried together with its key and
   parameters, updated in O(1) per transition instead of re-folding
   the whole id list (Section 5's "incrementally computable" promise).
   The key representation is a variant, so a wide state can never be
   mistaken for the int mask 0 — consumers pattern-match instead of
   consulting a side flag. *)

type key =
  | Mask of int  (** int bitmask, [k <= State.max_mask_bits] *)
  | Bits of Bitset.t  (** [Bytes]-backed bitset, any [k] *)

type valued = { state : State.t; key : key; params : Params.t }

let empty_params t = { Params.doi = 0.; cost = t.base_cost; size = t.base_size }

let entry_words v =
  State.group_size v.state + Instrument.entry_overhead_words

let key_mem key pos =
  match key with
  | Mask m -> m land (1 lsl pos) <> 0
  | Bits b -> Bitset.mem b pos

let key_subset a b =
  match a, b with
  | Mask ma, Mask mb -> ma land mb = ma
  | Bits ba, Bits bb -> Bitset.subset ba bb
  | (Mask _ | Bits _), _ ->
      invalid_arg "Space.key_subset: keys from different spaces"

let key_of_state t s =
  match t.keymode with
  | Kmask -> Mask (State.mask s)
  | Kbits -> Bits (Bitset.of_list ~width:(Array.length t.positions) s)

let singleton_key t pos =
  match t.keymode with
  | Kmask -> Mask (1 lsl pos)
  | Kbits -> Bits (Bitset.singleton ~width:(Array.length t.positions) pos)

let key_add key pos =
  match key with
  | Mask m -> Mask (m lor (1 lsl pos))
  | Bits b -> Bits (Bitset.add b pos)

let key_remove key pos =
  match key with
  | Mask m -> Mask (m land lnot (1 lsl pos))
  | Bits b -> Bits (Bitset.remove b pos)

let key_replace key p q =
  match key with
  | Mask m -> Mask ((m land lnot (1 lsl p)) lor (1 lsl q))
  | Bits b -> Bits (Bitset.replace b ~rem:p ~add:q)

let value t s = { state = s; key = key_of_state t s; params = params t s }

let value_singleton t pos =
  Instrument.incr_update t.stats;
  let id = t.positions.(pos) in
  {
    state = State.singleton pos;
    key = singleton_key t pos;
    params =
      {
        Params.doi = Doi.combine_incr 0. t.dois.(id);
        cost = t.item_cost.(id);
        size = t.base_size *. t.item_frac.(id);
      };
  }

(* Horizontal/Horizontal2 step: one insertion.  Exact: applied in
   ascending-position DFS order it reproduces the from-scratch fold of
   [params] bit for bit (cost adds, size multiplies, doi extends). *)
let with_pos t v pos =
  Instrument.incr_update t.stats;
  let id = t.positions.(pos) in
  let state = State.add pos v.state in
  {
    state;
    key = key_add v.key pos;
    params =
      {
        Params.doi = Doi.combine_incr v.params.Params.doi t.dois.(id);
        cost = v.params.Params.cost +. t.item_cost.(id);
        size = v.params.Params.size *. t.item_frac.(id);
      };
  }

(* Removal: cost subtracts, size divides, doi retracts by division
   (noisy-or) — each falling back to an O(group) recompute when the
   inverse is undefined (frac 0 or doi 1), which keeps results exact in
   every case. *)
let remove_params t v pos ~(removed : State.t) =
  Instrument.incr_update t.stats;
  let id = t.positions.(pos) in
  let ids () = List.map (fun p -> t.positions.(p)) removed in
  let cost = v.params.Params.cost -. t.item_cost.(id) in
  let f = t.item_frac.(id) in
  let size =
    if f > 0. then v.params.Params.size /. f
    else begin
      Instrument.eval t.stats;
      size_of_ids t (ids ())
    end
  in
  let doi =
    match Doi.combine_retract v.params.Params.doi t.dois.(id) with
    | Some d -> d
    | None ->
        Instrument.eval t.stats;
        doi_of_ids t (ids ())
  in
  { Params.doi; cost; size }

let remove_pos t v pos =
  match List.filter (fun x -> x <> pos) v.state with
  | [] -> invalid_arg "Space.remove_pos: states are non-empty"
  | [ q ] -> value_singleton t q
  | removed ->
      {
        state = removed;
        key = key_remove v.key pos;
        params = remove_params t v pos ~removed;
      }

(* Vertical step: replace [p] with [q = p + 1] — one removal plus one
   insertion, the neighbor's key [nkey] already derived by the caller.
   Substituting in place keeps the list strictly increasing (q is
   absent), so the new state is built in ONE pass and the removal
   parameters stay in unboxed float locals; the arithmetic — and so
   every float — is that of [remove_pos] followed by [with_pos]. *)
let replace_pos_keyed t v p q nkey =
  Instrument.incr_update t.stats;
  let idp = t.positions.(p) and idq = t.positions.(q) in
  let removed_ids () =
    List.filter_map
      (fun x -> if x = p then None else Some t.positions.(x))
      v.state
  in
  let mid_cost = v.params.Params.cost -. t.item_cost.(idp) in
  let fp = t.item_frac.(idp) in
  let mid_size =
    if fp > 0. then v.params.Params.size /. fp
    else begin
      Instrument.eval t.stats;
      List.fold_left
        (fun acc id -> acc *. t.item_frac.(id))
        t.base_size (removed_ids ())
    end
  in
  let mid_doi =
    match Doi.combine_retract v.params.Params.doi t.dois.(idp) with
    | Some d -> d
    | None ->
        Instrument.eval t.stats;
        doi_of_ids t (removed_ids ())
  in
  let state = List.map (fun x -> if x = p then q else x) v.state in
  {
    state;
    key = nkey;
    params =
      {
        Params.doi = Doi.combine_incr mid_doi t.dois.(idq);
        cost = mid_cost +. t.item_cost.(idq);
        size = mid_size *. t.item_frac.(idq);
      };
  }

let horizontal_v t v =
  let k = Array.length t.positions in
  let i = State.max_pos v.state in
  if i + 1 >= k then None else Some (with_pos t v (i + 1))

(* Vertical neighbors with pruning BEFORE valuation: [keep] sees only
   the neighbor's identity — the replaced position [p], its successor
   [q], and the neighbor's key, derived in O(words) from the parent's —
   and only survivors are valued (state list + parameters) and passed
   to [f].  Visited-saturated searches skip the valuation of most
   neighbors entirely.  Neighbors come in the state's position order
   (a singleton's one neighbor is re-derived exactly); [~rev] iterates
   them backwards (the head-first push loops). *)
let iter_vertical ?(rev = false) t v ~keep ~f =
  let k = Array.length t.positions in
  let single = State.group_size v.state = 1 in
  let consider p =
    let q = p + 1 in
    if q < k && not (key_mem v.key q) then begin
      let nkey = if single then singleton_key t q else key_replace v.key p q in
      if keep ~p ~q nkey then
        f
          (if single then value_singleton t q
           else replace_pos_keyed t v p q nkey)
    end
  in
  if rev then List.iter consider (List.rev v.state)
  else List.iter consider v.state

let vertical_v t v =
  let acc = ref [] in
  iter_vertical ~rev:true t v
    ~keep:(fun ~p:_ ~q:_ _ -> true)
    ~f:(fun v' -> acc := v' :: !acc);
  !acc

(* Greedy Horizontal2 saturation: insert the first absent position
   whose cost still fits under [cmax] — in a cost-ordered space the
   most expensive one, in a doi-ordered space the highest-doi one —
   until none fits.  Formula 6 makes state cost additive, so each
   candidate is priced in O(1) off the state's own cost. *)
let saturate ?(forbid = -1) t v ~cmax =
  let k = Array.length t.positions in
  let rec fits v p =
    if p >= k then -1
    else if
      p <> forbid
      && (not (key_mem v.key p))
      && v.params.Params.cost +. t.item_cost.(t.positions.(p)) <= cmax
    then p
    else fits v (p + 1)
  in
  let rec go v passed =
    let p = fits v 0 in
    if p < 0 then (v, passed) else go (with_pos t v p) (passed + 1)
  in
  go v 1

let horizontal2_v t v =
  let k = Array.length t.positions in
  let rec go p =
    if p >= k then []
    else if key_mem v.key p then go (p + 1)
    else with_pos t v p :: go (p + 1)
  in
  go 0

(* Set extension/retraction over preference ids (order-independent
   callers: branch-and-bound, exhaustive DFS, metaheuristics).  [n] is
   the current set size, needed because the empty set is priced as Q
   itself (base cost) while non-empty sets cost the plain item sum. *)
let params_with_id t ~n (p : Params.t) id =
  Instrument.incr_update t.stats;
  {
    Params.doi = Doi.combine_incr p.Params.doi t.dois.(id);
    cost =
      (if n = 0 then t.item_cost.(id) else p.Params.cost +. t.item_cost.(id));
    size = p.Params.size *. t.item_frac.(id);
  }

let params_without_id t ~n (p : Params.t) id =
  if n <= 1 then Some (empty_params t)
  else
    let f = t.item_frac.(id) in
    match Doi.combine_retract p.Params.doi t.dois.(id) with
    | Some doi when f > 0. ->
        Instrument.incr_update t.stats;
        Some
          {
            Params.doi;
            cost = p.Params.cost -. t.item_cost.(id);
            size = p.Params.size /. f;
          }
    | _ -> None

(* Visited sets keyed to match the space: one int hash per lookup while
   k fits the mask, content-hashed fixed-width bitsets beyond that. *)
module Bits_tbl = Hashtbl.Make (Bitset)

module Visited = struct
  type table =
    | Tmask of (int, unit) Hashtbl.t
    | Tbits of unit Bits_tbl.t

  type t = table

  (* Size hints are advisory: [Hashtbl.create] allocates the initial
     bucket array eagerly, so a caller passing an estimate like 2^K
     must not translate into a gigantic up-front allocation. *)
  let max_initial_size = 1 lsl 16

  let create space n =
    let n = max 16 (min n max_initial_size) in
    match space.keymode with
    | Kmask -> Tmask (Hashtbl.create n)
    | Kbits -> Tbits (Bits_tbl.create n)

  let mem_key t key =
    match t, key with
    | Tmask h, Mask m -> Hashtbl.mem h m
    | Tbits h, Bits b -> Bits_tbl.mem h b
    | (Tmask _ | Tbits _), _ ->
        invalid_arg "Space.Visited: key from a different space"

  let add_key t key =
    match t, key with
    | Tmask h, Mask m -> Hashtbl.replace h m ()
    | Tbits h, Bits b -> Bits_tbl.replace h b ()
    | (Tmask _ | Tbits _), _ ->
        invalid_arg "Space.Visited: key from a different space"

  let mem t v = mem_key t v.key
  let add t v = add_key t v.key
end

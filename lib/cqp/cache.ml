module Lru = Cqp_util.Lru
module Path = Cqp_prefs.Path
module Profile = Cqp_prefs.Profile
module Metrics = Cqp_obs.Metrics

type t = {
  catalog : Cqp_relal.Catalog.t;
  extraction : (string, Path.t list) Lru.t;
  fronts : (string, Nsga2.serving) Lru.t;
  memo : Estimate.Memo.t;
  mutable published : Lru.stats;  (** extraction stats at last publish *)
  mutable front_published : Lru.stats;  (** front stats ditto *)
  mutable memo_published : int * int;  (** memo (lookups, hits) ditto *)
}

(* Approximate retained size of an extraction entry, in words: one
   selection record plus one join record per hop, with headers. *)
let path_weight paths =
  List.fold_left (fun acc p -> acc + 8 + (8 * List.length p.Path.joins)) 1 paths

let no_stats : Lru.stats =
  { lookups = 0; hits = 0; misses = 0; inserts = 0; evictions = 0;
    removals = 0 }

let create ?(pref_space_capacity = 128) catalog =
  {
    catalog;
    extraction = Lru.create ~weight:path_weight ~capacity:pref_space_capacity ();
    fronts = Lru.create ~weight:Nsga2.points_held ~capacity:128 ();
    memo = Estimate.Memo.create ();
    published = no_stats;
    front_published = no_stats;
    memo_published = (0, 0);
  }

let catalog t = t.catalog
let memo t = Some t.memo

let extraction_key ?(constraints = Params.unconstrained) ?max_path_length
    ~fingerprint estimate =
  (* Everything Pref_space.extract's output can depend on, besides the
     catalog (fixed per cache): the profile, Q's anchor relation set,
     the path-length bound, and the chain-viability inputs cmax and
     base_cost (the latter covers Q's relation multiset and block_ms).
     Floats in hex so the key is exact. *)
  let anchors =
    Cqp_sql.Ast.tables_of (Estimate.query estimate)
    |> List.map fst
    |> List.sort_uniq String.compare
    |> String.concat ","
  in
  let cmax =
    match constraints.Params.cmax with
    | None -> "-"
    | Some c -> Printf.sprintf "%h" c
  in
  let mpl =
    match max_path_length with None -> "d" | Some n -> string_of_int n
  in
  Printf.sprintf "%s|%s|%s|%h|%h|%s" fingerprint anchors cmax
    (Estimate.base_cost estimate)
    (Estimate.block_ms estimate)
    mpl

let pref_space t ?constraints ?max_k ?max_path_length ?orders estimate profile
    =
  let fingerprint = Profile.fingerprint profile in
  let key = extraction_key ?constraints ?max_path_length ~fingerprint estimate in
  let paths =
    Lru.find_or_add t.extraction key (fun () ->
        Pref_space.extract ?constraints ?max_path_length estimate profile)
  in
  Pref_space.assemble ?constraints ?max_k ?orders estimate paths

(* A front depends on everything the extraction does plus the query's
   exact text (item costs re-price against Q's full WHERE clause), the
   full constraint record (cmax / dmin shape the assembled space,
   smin / smax filter candidates), and the request's K cap.  The key
   leads with the profile fingerprint so the same prefix invalidation
   that drops extractions drops fronts. *)
let front_key ?(constraints = Params.unconstrained) ?max_k ~fingerprint ~sql
    ~k () =
  let f = function None -> "-" | Some v -> Printf.sprintf "%h" v in
  Printf.sprintf "%s|front|%s|%s,%s,%s,%s|%s|%d" fingerprint
    (Digest.to_hex (Digest.string sql))
    (f constraints.Params.cmax) (f constraints.Params.dmin)
    (f constraints.Params.smin) (f constraints.Params.smax)
    (match max_k with None -> "-" | Some n -> string_of_int n)
    k

let front t ~key compute = Lru.find_or_add t.fronts key compute

let invalidate_fingerprint t fingerprint =
  let prefix = fingerprint ^ "|" in
  let plen = String.length prefix in
  let matches key = String.length key >= plen && String.sub key 0 plen = prefix in
  Lru.remove_if t.extraction matches + Lru.remove_if t.fronts matches

let invalidate_profile t profile =
  invalidate_fingerprint t (Profile.fingerprint profile)

let clear t =
  Lru.clear t.extraction;
  Lru.clear t.fronts

let extraction_stats t = Lru.stats t.extraction
let extraction_entries t = Lru.length t.extraction
let front_stats t = Lru.stats t.fronts
let front_entries t = Lru.length t.fronts

let front_points_held t =
  (* The front LRU weighs entries by point count. *)
  Lru.weight_held t.fronts

let bytes_held t =
  (* Lru weights are in words. *)
  8 * Lru.weight_held t.extraction

let memo_stats t = (Estimate.Memo.lookups t.memo, Estimate.Memo.hits t.memo)

let publish_metrics t =
  if Metrics.is_enabled () then begin
    let s = Lru.stats t.extraction in
    let p = t.published in
    let d name now last = if now - last > 0 then Metrics.add name (now - last) in
    d "serve.cache.pref_space.lookups" s.Lru.lookups p.Lru.lookups;
    d "serve.cache.pref_space.hits" s.Lru.hits p.Lru.hits;
    d "serve.cache.pref_space.misses" s.Lru.misses p.Lru.misses;
    d "serve.cache.pref_space.inserts" s.Lru.inserts p.Lru.inserts;
    d "serve.cache.pref_space.evictions" s.Lru.evictions p.Lru.evictions;
    d "serve.cache.pref_space.removals" s.Lru.removals p.Lru.removals;
    t.published <- s;
    Metrics.gauge "serve.cache.pref_space.entries"
      (float_of_int (extraction_entries t));
    Metrics.gauge "serve.cache.pref_space.bytes_held"
      (float_of_int (bytes_held t));
    (* The pareto family publishes only once the front cache has been
       used: servers that never enable pareto serving keep their
       metrics dump unchanged. *)
    let fs = Lru.stats t.fronts in
    if fs.Lru.lookups > 0 || t.front_published.Lru.lookups > 0 then begin
      let fp = t.front_published in
      d "serve.pareto.lookups" fs.Lru.lookups fp.Lru.lookups;
      d "serve.pareto.hits" fs.Lru.hits fp.Lru.hits;
      d "serve.pareto.misses" fs.Lru.misses fp.Lru.misses;
      d "serve.pareto.inserts" fs.Lru.inserts fp.Lru.inserts;
      d "serve.pareto.evictions" fs.Lru.evictions fp.Lru.evictions;
      d "serve.pareto.removals" fs.Lru.removals fp.Lru.removals;
      t.front_published <- fs;
      Metrics.gauge "serve.pareto.entries" (float_of_int (front_entries t));
      Metrics.gauge "serve.pareto.points_held"
        (float_of_int (front_points_held t))
    end;
    let lk, ht = memo_stats t in
    let plk, pht = t.memo_published in
    d "serve.cache.estimate.lookups" lk plk;
    d "serve.cache.estimate.hits" ht pht;
    d "serve.cache.estimate.misses" (lk - ht) (plk - pht);
    t.memo_published <- (lk, ht);
    Metrics.gauge "serve.cache.estimate.entries"
      (float_of_int (Estimate.Memo.entries t.memo))
  end

let publish_gauge_totals caches =
  if Metrics.is_enabled () then begin
    (* The [serve.cache.*] counters are published as deltas, so several
       caches (e.g. one per serve shard) sum exactly into the shared
       registry on their own; the gauges are absolute values, so a
       sharded server re-publishes them here as sums at drain time. *)
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 caches in
    Metrics.gauge "serve.cache.pref_space.entries"
      (float_of_int (sum extraction_entries));
    Metrics.gauge "serve.cache.pref_space.bytes_held"
      (float_of_int (sum bytes_held));
    if List.exists (fun c -> (Lru.stats c.fronts).Lru.lookups > 0) caches
    then begin
      Metrics.gauge "serve.pareto.entries" (float_of_int (sum front_entries));
      Metrics.gauge "serve.pareto.points_held"
        (float_of_int (sum front_points_held))
    end;
    if caches <> [] then
      Metrics.gauge "serve.cache.estimate.entries"
        (float_of_int (sum (fun c -> Estimate.Memo.entries c.memo)))
  end

module Rng = Cqp_util.Rng
module Profile = Cqp_prefs.Profile
module V = Cqp_relal.Value
module Catalog = Cqp_relal.Catalog
module Relation = Cqp_relal.Relation

type doi_distribution =
  | Uniform of float * float
  | Normal of { mean : float; stddev : float }

type config = {
  n_selections : int;
  doi_dist : doi_distribution;
  join_doi_range : float * float;
}

let default_config =
  {
    n_selections = 50;
    doi_dist = Uniform (0.05, 0.95);
    join_doi_range = (0.8, 1.0);
  }

let draw_doi rng = function
  | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
  | Normal { mean; stddev } ->
      min 1.0 (max 0.01 (Rng.normal rng ~mean ~stddev))

(* Attributes carrying user-facing values, with sampling weights. *)
let selection_targets =
  [|
    ("genre", "genre", 3);
    ("director", "name", 3);
    ("actor", "name", 3);
    ("movie", "year", 1);
    ("casts", "role", 1);
  |]

let sample_value rng catalog rel attr =
  match Catalog.find catalog rel with
  | None -> None
  | Some r ->
      let card = Relation.cardinality r in
      if card = 0 then None
      else begin
        let idx =
          Cqp_relal.Schema.index_of (Relation.schema r) attr
        in
        (* A block, then a tuple in it. *)
        let per_block = Relation.tuples_per_block r in
        let lo = per_block * Rng.int rng (Relation.blocks r) in
        let t =
          (Relation.storage r).(lo + Rng.int rng (min per_block (card - lo)))
        in
        Some (Cqp_relal.Tuple.get t idx)
      end

let join_edges =
  [
    ("movie", "did", "director", "did");
    ("movie", "mid", "genre", "mid");
    ("movie", "mid", "casts", "mid");
    ("casts", "aid", "actor", "aid");
  ]

let generate ?(config = default_config) ~rng catalog =
  let jlo, jhi = config.join_doi_range in
  let profile =
    List.fold_left
      (fun p (r1, a1, r2, a2) ->
        if Catalog.mem catalog r1 && Catalog.mem catalog r2 then
          Profile.add_join p
            (Profile.join r1 a1 r2 a2 (jlo +. Rng.float rng (jhi -. jlo)))
        else p)
      Profile.empty join_edges
  in
  (* Expand the weighted target pool. *)
  let pool =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (rel, attr, w) -> Array.make w (rel, attr))
            selection_targets))
  in
  let seen = Hashtbl.create 64 in
  let rec add p remaining attempts =
    if remaining = 0 || attempts > config.n_selections * 40 then p
    else begin
      let rel, attr = Rng.choice rng pool in
      match sample_value rng catalog rel attr with
      | None -> add p remaining (attempts + 1)
      | Some v ->
          let key = (rel, attr, V.to_sql v) in
          if Hashtbl.mem seen key then add p remaining (attempts + 1)
          else begin
            Hashtbl.add seen key ();
            let doi = draw_doi rng config.doi_dist in
            add
              (Profile.add_selection p (Profile.selection rel attr v doi))
              (remaining - 1) (attempts + 1)
          end
    end
  in
  add profile config.n_selections 0

let figure1_profile =
  Profile.of_list
    [
      `Sel (Profile.selection "genre" "genre" (V.String "musical") 0.5);
      `Join (Profile.join "movie" "mid" "genre" "mid" 0.9);
      `Join (Profile.join "movie" "did" "director" "did" 1.0);
      `Sel (Profile.selection "director" "name" (V.String "W. Allen") 0.8);
    ]

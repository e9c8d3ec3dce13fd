module V = Cqp_relal.Value
module Schema = Cqp_relal.Schema
module Relation = Cqp_relal.Relation
module Catalog = Cqp_relal.Catalog
module Rng = Cqp_util.Rng

type config = {
  n_movies : int;
  n_directors : int;
  n_actors : int;
  n_genres : int;
  genres_per_movie : int;
  cast_per_movie : int;
  genre_skew : float;
  director_skew : float;
  year_range : int * int;
  block_size : int;
}

let default_config =
  {
    n_movies = 5000;
    n_directors = 400;
    n_actors = 2000;
    n_genres = 24;
    genres_per_movie = 2;
    cast_per_movie = 3;
    genre_skew = 0.8;
    director_skew = 0.7;
    year_range = (1930, 2025);
    block_size = 8192;
  }

let small_config =
  {
    n_movies = 300;
    n_directors = 40;
    n_actors = 120;
    n_genres = 12;
    genres_per_movie = 2;
    cast_per_movie = 2;
    genre_skew = 0.8;
    director_skew = 0.7;
    year_range = (1960, 2020);
    block_size = 2048;
  }

let genre_vocabulary =
  [|
    "drama"; "comedy"; "action"; "thriller"; "romance"; "horror";
    "documentary"; "musical"; "animation"; "crime"; "adventure"; "fantasy";
    "scifi"; "mystery"; "western"; "war"; "biography"; "history"; "sport";
    "family"; "noir"; "short"; "music"; "news"; "reality"; "talkshow";
    "adult"; "lyric"; "experimental"; "silent";
  |]

let movie_schema =
  Schema.make "movie"
    [
      ("mid", V.Tint, 8);
      ("title", V.Tstring, 24);
      ("year", V.Tint, 8);
      ("duration", V.Tint, 8);
      ("did", V.Tint, 8);
    ]

let director_schema =
  Schema.make "director" [ ("did", V.Tint, 8); ("name", V.Tstring, 24) ]

let genre_schema =
  Schema.make "genre" [ ("mid", V.Tint, 8); ("genre", V.Tstring, 16) ]

let actor_schema =
  Schema.make "actor" [ ("aid", V.Tint, 8); ("name", V.Tstring, 24) ]

let casts_schema =
  Schema.make "casts"
    [ ("mid", V.Tint, 8); ("aid", V.Tint, 8); ("role", V.Tstring, 16) ]

let roles = [| "lead"; "support"; "cameo"; "voice"; "extra" |]

let person_name prefix i = Printf.sprintf "%s %04d" prefix i

let build ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let catalog = Catalog.create () in
  let block_size = config.block_size in
  let directors =
    Relation.of_tuples ~block_size director_schema
      (List.init config.n_directors (fun i ->
           [| V.Int (i + 1); V.String (person_name "Director" (i + 1)) |]))
  in
  let actors =
    Relation.of_tuples ~block_size actor_schema
      (List.init config.n_actors (fun i ->
           [| V.Int (i + 1); V.String (person_name "Actor" (i + 1)) |]))
  in
  (* rows in reverse, each relation built at its size at the end *)
  let movies = ref [] and genres = ref [] and casts = ref [] in
  let lo_year, hi_year = config.year_range in
  let n_genres = min config.n_genres (Array.length genre_vocabulary) in
  for mid = 1 to config.n_movies do
    let did = Rng.zipf rng ~n:config.n_directors ~s:config.director_skew in
    movies :=
      [|
        V.Int mid;
        V.String (Printf.sprintf "Movie %05d" mid);
        V.Int (Rng.int_in rng lo_year hi_year);
        V.Int (Rng.int_in rng 60 210);
        V.Int did;
      |]
      :: !movies;
    (* Genres: 1 .. 2*avg-1 per movie, distinct, Zipf-popular. *)
    let n_g = Rng.int_in rng 1 (max 1 ((2 * config.genres_per_movie) - 1)) in
    let chosen = Hashtbl.create 4 in
    for _ = 1 to n_g do
      let g = Rng.zipf rng ~n:n_genres ~s:config.genre_skew - 1 in
      if not (Hashtbl.mem chosen g) then begin
        Hashtbl.add chosen g ();
        genres := [| V.Int mid; V.String genre_vocabulary.(g) |] :: !genres
      end
    done;
    let n_c = Rng.int_in rng 1 (max 1 ((2 * config.cast_per_movie) - 1)) in
    let cast_chosen = Hashtbl.create 4 in
    for _ = 1 to n_c do
      let aid = Rng.int_in rng 1 config.n_actors in
      if not (Hashtbl.mem cast_chosen aid) then begin
        Hashtbl.add cast_chosen aid ();
        casts := [| V.Int mid; V.Int aid; V.String (Rng.choice rng roles) |]
                 :: !casts
      end
    done
  done;
  let built schema rows = Relation.of_tuples ~block_size schema (List.rev !rows) in
  Catalog.add catalog (built movie_schema movies);
  Catalog.add catalog directors;
  Catalog.add catalog (built genre_schema genres);
  Catalog.add catalog actors;
  Catalog.add catalog (built casts_schema casts);
  catalog

(** Synthetic IMDB-like database.

    The paper evaluates on data from the Internet Movies Database [7]
    over the schema of Section 3 (MOVIE, DIRECTOR, GENRE).  We generate
    a deterministic synthetic equivalent — extended with ACTOR/CASTS
    for longer preference paths — whose sizes and value skews are
    configurable:

    {v
    movie(mid, title, year, duration, did)
    director(did, name)
    genre(mid, genre)          -- several genres per movie, Zipf-skewed
    actor(aid, name)
    casts(mid, aid, role)
    v} *)

type config = {
  n_movies : int;
  n_directors : int;
  n_actors : int;
  n_genres : int;  (** size of the genre vocabulary *)
  genres_per_movie : int;  (** average *)
  cast_per_movie : int;  (** average *)
  genre_skew : float;  (** Zipf exponent for genre popularity *)
  director_skew : float;
  year_range : int * int;
  block_size : int;
}

val default_config : config
(** 5000 movies, 400 directors, 2000 actors, 24 genres — sized so that
    a full scan of the movie relation costs a few tens of milliseconds
    under the 1 ms/block model, putting the paper's default
    [cmax = 400 ms] in the interesting 10–50% Supreme-Cost band. *)

val small_config : config
(** A few hundred tuples; for unit tests. *)

val build : ?config:config -> seed:int -> unit -> Cqp_relal.Catalog.t
(** Deterministic for a given seed and configuration. *)

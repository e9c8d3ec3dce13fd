(** The introduction scenario's substrate: a synthetic tourist-
    information database (restaurants with city/cuisine/price/rating,
    plus user reviews) and "Al's" profile, for the mobile-personalization
    examples and the Policy tests. *)

val build : seed:int -> unit -> Cqp_relal.Catalog.t
(** 400 restaurants and 1500 reviews by 40 reviewers, in 512-byte
    blocks.  Deterministic for a given seed. *)

val al_profile : Cqp_prefs.Profile.t
(** Al's preferences: strong for Tuscan food and top ratings, moderate
    for cheap places and seafood; reviews influence restaurants with
    doi 0.7. *)

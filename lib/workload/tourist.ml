module V = Cqp_relal.Value
module Rng = Cqp_util.Rng

let n_restaurants = 400
let n_reviews = 1500
let n_reviewers = 40
let block_size = 512

let cities = [| "pisa"; "florence"; "siena"; "lucca" |]
let cuisines = [| "tuscan"; "seafood"; "pizza"; "vegetarian"; "fusion" |]

let restaurant_schema =
  Cqp_relal.Schema.make "restaurant"
    [
      ("rid", V.Tint, 8);
      ("name", V.Tstring, 24);
      ("city", V.Tstring, 16);
      ("cuisine", V.Tstring, 16);
      ("price", V.Tint, 8);
      ("rating", V.Tint, 8);
    ]

let review_schema =
  Cqp_relal.Schema.make "review"
    [ ("rid", V.Tint, 8); ("author", V.Tstring, 16); ("stars", V.Tint, 8) ]

let build ~seed () =
  let rng = Rng.create seed in
  let cat = Cqp_relal.Catalog.create () in
  let restaurants = Cqp_relal.Relation.create ~block_size restaurant_schema in
  for rid = 1 to n_restaurants do
    Cqp_relal.Relation.insert restaurants
      (Cqp_relal.Tuple.make
         [
           V.Int rid;
           V.String (Printf.sprintf "Trattoria %03d" rid);
           V.String (Rng.choice rng cities);
           V.String (Rng.choice rng cuisines);
           V.Int (Rng.int_in rng 1 4);
           V.Int (Rng.int_in rng 1 5);
         ])
  done;
  Cqp_relal.Catalog.add cat restaurants;
  let reviews = Cqp_relal.Relation.create ~block_size review_schema in
  for _ = 1 to n_reviews do
    Cqp_relal.Relation.insert reviews
      (Cqp_relal.Tuple.make
         [
           V.Int (Rng.int_in rng 1 n_restaurants);
           V.String (Printf.sprintf "user%02d" (Rng.int_in rng 1 n_reviewers));
           V.Int (Rng.int_in rng 1 5);
         ])
  done;
  Cqp_relal.Catalog.add cat reviews;
  cat

let al_profile =
  Cqp_prefs.Profile.of_strings
    [
      ("restaurant.cuisine = 'tuscan'", 0.9);
      ("restaurant.cuisine = 'seafood'", 0.6);
      ("restaurant.price = 1", 0.5);
      ("restaurant.rating = 5", 0.8);
      ("restaurant.rating = 4", 0.4);
      ("restaurant.rid = review.rid", 0.7);
      ("review.stars = 5", 0.6);
    ]

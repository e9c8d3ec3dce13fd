(** Search-context policies.

    The paper defers "mapping the search context onto the appropriate
    CQP problem" to future work (Sections 1, 4.1 and 8: "a policy
    issue").  This module supplies the missing layer: a declarative
    description of the context — device, network, user intent, an
    explicit answer-count request — and a default, overridable mapping
    onto a Table-1 problem whose bounds scale with the query's Supreme
    Cost (so the same policy adapts to any database size).

    The default mapping implements the behaviour of the paper's
    introduction scenario: a laptop on a fast link gets
    interest-maximization under a generous budget; a palmtop on a
    cellular link gets tight cost and size bounds ("up to three
    restaurants" becomes [smax = 3]); a user in a hurry gets cost
    minimization under an interest floor. *)

type device = Desktop | Laptop | Tablet | Palmtop | Phone
type network = Broadband | Wifi | Cellular | Offline_sync
type intent = Browse | Quick_answer | Exhaustive_research

type location = {
  loc_rel : string;  (** relation carrying the location attribute *)
  loc_attr : string;
  loc_value : Cqp_relal.Value.t;  (** the user's current place *)
  loc_doi : float;  (** how strongly locality matters (1.0 = must) *)
}

type context = {
  device : device;
  network : network;
  intent : intent;
  requested_answers : int option;
      (** an explicit user request, e.g. "up to three restaurants" *)
  location : location option;
      (** the Section-8 "integration with location-based services":
          when present, a selection preference for the current place is
          injected into the profile before personalization, so locality
          competes with (or, at doi 1.0, dominates) the stored tastes *)
}

val at : string -> string -> Cqp_relal.Value.t -> location
(** [at "restaurant" "city" (String "pisa")], at doi 1.0. *)

val localize :
  context -> Cqp_prefs.Profile.t -> Cqp_prefs.Profile.t
(** The profile with the context's location preference injected (the
    profile unchanged when the context carries none). *)

type tuning = {
  network_budget : network -> float;
      (** fraction of Supreme Cost allowed per network class *)
  device_size_cap : device -> int option;
      (** default answer cap per device class *)
  quick_answer_dmin : float;  (** interest floor in a hurry *)
}

val default_tuning : tuning

val problem_of_context :
  ?tuning:tuning -> context -> supreme_cost:float -> Problem.t
(** Pick the Table-1 problem and its bounds for a context. *)

val describe : context -> string

val run :
  ?tuning:tuning ->
  ?algorithm:Algorithm.t ->
  ?max_k:int ->
  Cqp_relal.Catalog.t ->
  Cqp_prefs.Profile.t ->
  sql:string ->
  context:context ->
  unit ->
  Personalizer.outcome
(** End-to-end: extract the preference space once to learn the Supreme
    Cost, map the context, and run the {!Personalizer}. *)

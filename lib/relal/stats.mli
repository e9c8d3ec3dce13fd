(** Catalog statistics used for result-size estimation.

    The CQP parameter estimator needs selectivities for the selection
    conditions carried by preferences and join-size estimates for the
    join edges of preference paths.  We keep the classical
    System-R-style statistics: cardinality, distinct count, min/max,
    plus an equi-depth histogram and an exact most-common-values list
    for skewed columns. *)

type column_stats = {
  n_values : int;  (** non-null cell count *)
  n_distinct : int;
  min_v : Value.t option;
  max_v : Value.t option;
  mcv : (Value.t * int) list;
      (** most common values with exact frequencies, most frequent
          first; covers at most 16 values *)
  histogram : Value.t array;
      (** equi-depth bucket upper bounds over the non-MCV remainder *)
  rest_count : int;  (** cells not covered by [mcv] *)
  rest_distinct : int;  (** distinct values not covered by [mcv] *)
}

type t = {
  rel_card : int;
  rel_blocks : int;
  columns : (string * column_stats) list;  (** by attribute name *)
}

val analyze : Relation.t -> t
(** Full scan computing statistics for every column. *)

val column : t -> string -> column_stats option

val eq_selectivity : t -> string -> Value.t -> float
(** Estimated fraction of tuples whose named column equals the value.
    Exact for MCV entries; uniform over the remainder otherwise; falls
    back to [1/n_distinct] and finally to a 0.1 default guess when
    statistics are missing.  Always within [0, 1]. *)

val range_selectivity :
  t -> string -> ?lo:Value.t -> ?hi:Value.t -> unit -> float
(** Estimated fraction of tuples within the (inclusive) bounds, by
    linear interpolation on min/max for numeric columns and histogram
    walking otherwise. *)

val distinct : t -> string -> int
(** Distinct count of the column, 0 when unknown. *)

val pp : Format.formatter -> t -> unit

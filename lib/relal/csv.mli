(** CSV import/export for relations (RFC-4180-style quoting).

    Lets users load their own data instead of the synthetic generator:

    {[
      let movie = Schema.make "movie" [ ... ] in
      let rel = Csv.load_file movie "movies.csv" in
      Catalog.add catalog rel
    ]}

    Values are parsed against the schema's column types: [int]/[float]
    columns accept numeric literals (empty cells become NULL), [bool]
    columns accept [true]/[false]/[1]/[0], everything else loads as a
    string. *)

exception Csv_error of string * int  (** message, 1-based line *)

val parse_line : string -> string list
(** Split one CSV record: comma-separated, double-quote quoting,
    [""] as the embedded-quote escape.
    @raise Csv_error on unbalanced quotes. *)

val load_string :
  ?block_size:int -> ?header:bool -> Schema.t -> string -> Relation.t
(** Parse a whole CSV document.  With [header:true] (default) the first
    line is validated against the schema's attribute names (order must
    match; case-insensitive).
    @raise Csv_error on arity mismatches, bad headers or unparsable
    typed cells. *)

val load_file :
  ?block_size:int -> ?header:bool -> Schema.t -> string -> Relation.t

val to_string : ?header:bool -> Relation.t -> string
val save_file : ?header:bool -> Relation.t -> string -> unit

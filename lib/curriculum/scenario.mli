(** Frozen, replayable adversarial scenarios — the curriculum's export
    format and the regression corpus's on-disk representation.

    A scenario file is self-contained: the catalog recipe, the genome,
    the expected outcome (label tallies plus an MD5 digest of every
    response observable), and the decoded workload entries themselves.
    {!check} re-derives all three — entries from the genome (catching
    generator drift), labels and digest from a fresh replay (catching
    behavior drift) — so a corpus file can never go stale silently.

    Format (tab-separated header lines, then workload entry lines;
    [#] lines are comments):
    {v
    name<TAB>worst_shed
    catalog<TAB>small:3
    genome<TAB>arrival=shuffled,cache_miss=0x1...,...
    expect<TAB>requests=24<TAB>served=20<TAB>...<TAB>digest=<md5hex>
    info<TAB>score=...<TAB>p99_work=...
    user<TAB>u00<TAB>12345
    req<TAB>u00<TAB>2:cmax=0x1.9p+9<TAB>16<TAB>C_Boundaries<TAB>-<TAB>select ...
    v}

    The [info] line is advisory (fitness numbers at freeze time) and
    is not asserted on replay, so re-weighting the fitness score never
    invalidates the corpus. *)

type catalog_spec =
  | Small of int  (** [Imdb.small_config] with this seed *)
  | Movies of { movies : int; seed : int }
      (** [Imdb.default_config] resized to [movies] *)

val catalog_spec_to_string : catalog_spec -> string
val build_catalog : catalog_spec -> Cqp_relal.Catalog.t

type expect = {
  requests : int;
  served : int;
  shed : int;
  blown : int;
  retries : int;
  rungs : (string * int) list;  (** count per {!Cqp_resilience.Rung.all} *)
  digest : string;
      (** MD5 hex over each response's timing-independent render
          (verdict, rung, retries, expiry, solution ids and hex
          parameters, personalized SQL, rows), in order *)
}

type t = {
  name : string;
  catalog : catalog_spec;
  genome : Genome.t;
  entries : Cqp_serve.Workload.entry list;
  expect : expect;
  info : (string * float) list;
}

val expect_of_responses : Cqp_serve.Serve.response list -> expect

val freeze :
  name:string -> catalog_spec -> Genome.t -> t
(** Decode and replay the genome (sequentially) and record what
    happened as the expectation. *)

val replay : ?pool:Cqp_par.Pool.t -> t -> Cqp_serve.Serve.response list
(** Replay the frozen entries on a fresh server built from the
    genome.  With a pool, admission still follows arrival order
    ({!Cqp_serve.Workload.replay}), so responses must be bit-identical
    to the sequential pass. *)

val check : ?pool:Cqp_par.Pool.t -> t -> (unit, string) result
(** Decode-stability (genome still decodes to the frozen entries,
    byte for byte) plus replay reconciliation (labels and digest match
    {!expect} exactly). *)

val save : dir:string -> t -> string
(** Write [<dir>/<name>.scenario]; returns the path. *)

val load : string -> t
(** @raise Failure on a malformed file. *)

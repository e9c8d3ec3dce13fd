(** A minimal JSON tree: enough to emit trace/metrics files and to
    parse them back (used by the tests to check well-formedness).  No
    external dependency — the toolchain ships none. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Non-finite numbers are emitted as [null];
    integral numbers are emitted without a fractional part. *)

exception Parse_error of string

val of_string : string -> t
(** Strict recursive-descent parser for the subset {!to_string} emits
    (standard JSON minus scientific shorthand corner cases it accepts
    anyway).
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks a field up; [None] on other shapes. *)

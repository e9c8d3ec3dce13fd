(** Span and event attributes: typed key/value pairs. *)

type value = Str of string | Int of int | Float of float | Bool of bool
type t = string * value

val str : string -> string -> t
val int : string -> int -> t
val float : string -> float -> t
val bool : string -> bool -> t

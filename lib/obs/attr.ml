type value = Str of string | Int of int | Float of float | Bool of bool
type t = string * value

let str k v = (k, Str v)
let int k v = (k, Int v)
let float k v = (k, Float v)
let bool k v = (k, Bool v)

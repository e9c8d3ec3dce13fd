type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type ty = Tnull | Tint | Tfloat | Tstring | Tbool

let type_of = function
  | Null -> Tnull
  | Int _ -> Tint
  | Float _ -> Tfloat
  | String _ -> Tstring
  | Bool _ -> Tbool

let ty_name = function
  | Tnull -> "null"
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

let compatible a b =
  match a, b with
  | Tnull, _ | _, Tnull -> true
  | Tint, Tfloat | Tfloat, Tint -> true
  | _ -> a = b

(* Constructor rank used only to order values of unrelated types. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2
  | String _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | String x, String y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | a, b -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash (float_of_int x)
  | Float x -> Hashtbl.hash x
  | String s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b

let is_null = function Null -> true | _ -> false

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Bool true -> Some 1.
  | Bool false -> Some 0.
  | Null | String _ -> None

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | String s -> s
  | Bool b -> string_of_bool b

let sql_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_sql = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | String s -> "'" ^ sql_escape s ^ "'"
  | Bool b -> string_of_bool b

let of_sql_literal s =
  let n = String.length s in
  if n = 0 then String ""
  else if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then begin
    let body = String.sub s 1 (n - 2) in
    (* Undo the '' escaping produced by to_sql. *)
    let buf = Buffer.create (String.length body) in
    let i = ref 0 in
    while !i < String.length body do
      Buffer.add_char buf body.[!i];
      if
        body.[!i] = '\''
        && !i + 1 < String.length body
        && body.[!i + 1] = '\''
      then i := !i + 2
      else incr i
    done;
    String (Buffer.contents buf)
  end
  else
    match String.lowercase_ascii s with
    | "null" -> Null
    | "true" -> Bool true
    | "false" -> Bool false
    | _ -> (
        match int_of_string_opt s with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt s with
            | Some f -> Float f
            | None -> String s))

let pp ppf v = Format.pp_print_string ppf (to_string v)

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

(* [Int x] against [Float y], exactly: [float_of_int x] rounds past
   2^53, and equality through it would not be transitive.  NaN sorts
   below every number, as [Stdlib.compare] puts it among floats. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    (* [y] in [min_int, max_int + 1): its integral part is an int *)
    let t = Float.trunc y in
    let i = int_of_float t in
    if x <> i then Int.compare x i else Float.compare t y

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | String x, String y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | a, b -> Stdlib.compare (rank a) (rank b)

(* [compare a b = 0], with the commonest same-type pairs decided
   without [compare]'s dispatch. *)
let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | String x, String y -> String.equal x y
  | _ -> compare a b = 0

(* An int's 63 bits mixed into every bit, the low ones the engine's
   index buckets by included: two xor-shift-multiply rounds after
   MurmurHash3's finalizer, inline, allocating nothing. *)
let[@inline] mix h =
  let h = (h lxor (h lsr 32)) * 0x1f51afd7ed558ccd in
  let h = (h lxor (h lsr 29)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 32)

(* A float's hash under [compare]'s equality, where -0. equals 0. and
   every NaN equals every other.  The bits stay unboxed. *)
let[@inline] hash_float f =
  if f = 0. then 0
  else if Float.is_nan f then 1
  else mix (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 1))

(* [Int x] hashes as the float it rounds to: when some float equals it,
   that is the float. *)
let[@inline] hash_int x = hash_float (float_of_int x)

let hash = function
  | Null -> 0
  | Int x -> hash_int x
  | Float x -> hash_float x
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

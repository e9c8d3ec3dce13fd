(* Each distinct string's code: the number of strings coded before it. *)
type dictionary = (string, int) Hashtbl.t

type vector =
  | Ints of int array
  | Strings of int array * dictionary
  | Boxed

type t = {
  schema : Schema.t;
  block_size : int;
  per_block : int;
  mutable data : Tuple.t array;
  vectors : vector array;
  mutable len : int;
}

let default_block_size = 8192

let per_block_of schema block_size =
  max 1 (block_size / max 1 (Schema.tuple_width schema))

let with_capacity block_size schema capacity =
  {
    schema;
    block_size;
    per_block = per_block_of schema block_size;
    data = Array.make capacity [||];
    vectors = Array.make (Schema.arity schema) Boxed;
    len = 0;
  }

let create ?(block_size = default_block_size) schema =
  with_capacity block_size schema 16

let schema r = r.schema
let block_size r = r.block_size
let cardinality r = r.len
let tuples_per_block r = r.per_block

let blocks r =
  if r.len = 0 then 0 else ((r.len + r.per_block - 1) / r.per_block)

let grow a len fill =
  let bigger = Array.make (max 32 (2 * len)) fill in
  Array.blit a 0 bigger 0 len;
  bigger

let code d s =
  match Hashtbl.find_opt d s with
  | Some c -> c
  | None ->
      let c = Hashtbl.length d in
      Hashtbl.add d s c;
      c

(* The vector of a column whose first cell is [v]. *)
let fresh capacity = function
  | Value.Int _ -> Ints (Array.make capacity 0)
  | Value.String _ -> Strings (Array.make capacity 0, Hashtbl.create 16)
  | _ -> Boxed

(* Column [c]'s vector once row [r.len] holds [v]: the first row picks
   the vector's type, and a cell of another type drops it for good. *)
let store r c v =
  let i = r.len in
  let vec = if i = 0 then fresh (Array.length r.data) v else r.vectors.(c) in
  r.vectors.(c) <-
    (match vec, v with
    | Ints a, Value.Int x ->
        a.(i) <- x;
        vec
    | Strings (a, d), Value.String s ->
        a.(i) <- code d s;
        vec
    | _ -> Boxed)

let insert r t =
  if Tuple.arity t <> Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Relation.insert: arity %d, schema %s expects %d"
         (Tuple.arity t) r.schema.Schema.rel_name (Schema.arity r.schema));
  if r.len = Array.length r.data then begin
    r.data <- grow r.data r.len [||];
    Array.iteri
      (fun c -> function
        | Ints a -> r.vectors.(c) <- Ints (grow a r.len 0)
        | Strings (a, d) -> r.vectors.(c) <- Strings (grow a r.len 0, d)
        | Boxed -> ())
      r.vectors
  end;
  Array.iteri (store r) t;
  r.data.(r.len) <- t;
  r.len <- r.len + 1

(* Sized to [ts], so neither the tuples nor the vectors are copied as
   they grow. *)
let of_tuples ?(block_size = default_block_size) schema ts =
  let r = with_capacity block_size schema (List.length ts) in
  List.iter (insert r) ts;
  r

let iter f r =
  for i = 0 to r.len - 1 do
    f r.data.(i)
  done

let fold f init r =
  let acc = ref init in
  iter (fun t -> acc := f !acc t) r;
  !acc

let to_list r = List.rev (fold (fun acc t -> t :: acc) [] r)
let storage r = r.data
let vector r c = r.vectors.(c)
let find_code d s = Option.value (Hashtbl.find_opt d s) ~default:(-1)

let column r i = List.rev (fold (fun acc t -> Tuple.get t i :: acc) [] r)

let pp ppf r =
  Format.fprintf ppf "%a [%d tuples, %d blocks]" Schema.pp r.schema r.len
    (blocks r)

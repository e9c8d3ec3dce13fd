type t = {
  schema : Schema.t;
  block_size : int;
  per_block : int;
  mutable data : Tuple.t array;
  mutable len : int;
}

let default_block_size = 8192

let per_block_of schema block_size =
  max 1 (block_size / max 1 (Schema.tuple_width schema))

let create ?(block_size = default_block_size) schema =
  {
    schema;
    block_size;
    per_block = per_block_of schema block_size;
    data = Array.make 16 [||];
    len = 0;
  }

let schema r = r.schema
let block_size r = r.block_size
let cardinality r = r.len
let tuples_per_block r = r.per_block

let blocks r =
  if r.len = 0 then 0 else ((r.len + r.per_block - 1) / r.per_block)

let insert r t =
  if Tuple.arity t <> Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Relation.insert: arity %d, schema %s expects %d"
         (Tuple.arity t) r.schema.Schema.rel_name (Schema.arity r.schema));
  if r.len = Array.length r.data then begin
    let bigger = Array.make (max 32 (2 * r.len)) [||] in
    Array.blit r.data 0 bigger 0 r.len;
    r.data <- bigger
  end;
  r.data.(r.len) <- t;
  r.len <- r.len + 1

let of_tuples ?block_size schema ts =
  let r = create ?block_size schema in
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

let column r i = List.rev (fold (fun acc t -> Tuple.get t i :: acc) [] r)

let pp ppf r =
  Format.fprintf ppf "%a [%d tuples, %d blocks]" Schema.pp r.schema r.len
    (blocks r)

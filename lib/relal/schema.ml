type attribute = {
  attr_name : string;
  attr_ty : Value.ty;
  attr_width : int;
}

type t = { rel_name : string; attrs : attribute list }

let attribute name ty width =
  { attr_name = String.lowercase_ascii name; attr_ty = ty; attr_width = width }

let make name cols =
  if cols = [] then invalid_arg "Schema.make: empty attribute list";
  let attrs = List.map (fun (n, ty, w) -> attribute n ty w) cols in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.attr_name then
        invalid_arg ("Schema.make: duplicate attribute " ^ a.attr_name);
      Hashtbl.add seen a.attr_name ())
    attrs;
  { rel_name = String.lowercase_ascii name; attrs }

let arity s = List.length s.attrs
let attr_names s = List.map (fun a -> a.attr_name) s.attrs

let index_of s name =
  let name = String.lowercase_ascii name in
  let rec loop i = function
    | [] -> raise Not_found
    | a :: _ when a.attr_name = name -> i
    | _ :: rest -> loop (i + 1) rest
  in
  loop 0 s.attrs

let find s name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun a -> a.attr_name = name) s.attrs

let mem s name = find s name <> None
let tuple_width s = List.fold_left (fun acc a -> acc + a.attr_width) 0 s.attrs

let equal a b =
  a.rel_name = b.rel_name
  && List.length a.attrs = List.length b.attrs
  && List.for_all2
       (fun x y -> x.attr_name = y.attr_name && x.attr_ty = y.attr_ty)
       a.attrs b.attrs

let pp ppf s =
  Format.fprintf ppf "%s(%s)" s.rel_name
    (String.concat ", "
       (List.map
          (fun a -> a.attr_name ^ ":" ^ Value.ty_name a.attr_ty)
          s.attrs))

module Value = Cqp_relal.Value
module Ast = Cqp_sql.Ast

type selection = {
  s_rel : string;
  s_attr : string;
  s_op : Ast.binop;
  s_value : Value.t;
  s_doi : float;
}

type join = {
  j_from_rel : string;
  j_from_attr : string;
  j_to_rel : string;
  j_to_attr : string;
  j_doi : float;
}

type t = { sels : selection list; jns : join list }

let empty = { sels = []; jns = [] }

let selection rel attr ?(op = Ast.Eq) value doi =
  {
    s_rel = String.lowercase_ascii rel;
    s_attr = String.lowercase_ascii attr;
    s_op = op;
    s_value = value;
    s_doi = Doi.check doi;
  }

let join r1 a1 r2 a2 doi =
  {
    j_from_rel = String.lowercase_ascii r1;
    j_from_attr = String.lowercase_ascii a1;
    j_to_rel = String.lowercase_ascii r2;
    j_to_attr = String.lowercase_ascii a2;
    j_doi = Doi.check doi;
  }

let add_selection t s = { t with sels = t.sels @ [ s ] }
let add_join t j = { t with jns = t.jns @ [ j ] }

let of_list items =
  List.fold_left
    (fun t -> function
      | `Sel s -> add_selection t s
      | `Join j -> add_join t j)
    empty items

let parse_atom condition doi =
  match Cqp_sql.Parser.parse_predicate condition with
  | Ast.Cmp (Ast.Eq, Ast.Col (Some r1, a1), Ast.Col (Some r2, a2)) ->
      `Join (join r1 a1 r2 a2 doi)
  | Ast.Cmp (op, Ast.Col (Some r, a), Ast.Lit v) ->
      `Sel (selection r a ~op v doi)
  | Ast.Cmp (op, Ast.Lit v, Ast.Col (Some r, a)) ->
      `Sel (selection r a ~op:(Ast.mirror op) v doi)
  | _ ->
      invalid_arg
        ("Profile.parse_atom: not an atomic selection or equi-join: "
        ^ condition)

let of_strings lines =
  of_list (List.map (fun (cond, doi) -> parse_atom cond doi) lines)

let selections t = t.sels
let joins t = t.jns
let size t = List.length t.sels + List.length t.jns

let selections_on t rel =
  let rel = String.lowercase_ascii rel in
  List.filter (fun s -> s.s_rel = rel) t.sels

let joins_from t rel =
  let rel = String.lowercase_ascii rel in
  List.filter (fun j -> j.j_from_rel = rel) t.jns

let validate catalog t =
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let attr_ty rel attr =
    match Cqp_relal.Catalog.find catalog rel with
    | None ->
        problem "unknown relation %s" rel;
        None
    | Some r -> (
        match Cqp_relal.Schema.find (Cqp_relal.Relation.schema r) attr with
        | None ->
            problem "unknown attribute %s.%s" rel attr;
            None
        | Some a -> Some a.Cqp_relal.Schema.attr_ty)
  in
  List.iter
    (fun s ->
      match attr_ty s.s_rel s.s_attr with
      | Some ty when not (Value.compatible ty (Value.type_of s.s_value)) ->
          problem "type mismatch in %s.%s = %s" s.s_rel s.s_attr
            (Value.to_sql s.s_value)
      | _ -> ())
    t.sels;
  List.iter
    (fun j ->
      match attr_ty j.j_from_rel j.j_from_attr, attr_ty j.j_to_rel j.j_to_attr
      with
      | Some t1, Some t2 when not (Value.compatible t1 t2) ->
          problem "join type mismatch %s.%s = %s.%s" j.j_from_rel
            j.j_from_attr j.j_to_rel j.j_to_attr
      | _ -> ())
    t.jns;
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)

let fingerprint t =
  (* Canonical full-precision dump: floats in hex so the digest changes
     iff the profile changes semantically.  Preference order is part of
     the identity — it is cheap, and a reordered profile is a different
     profile object anyway. *)
  let buf = Buffer.create 256 in
  let value_repr = function
    | Value.Null -> "n"
    | Value.Int i -> Printf.sprintf "i%d" i
    | Value.Float f -> Printf.sprintf "f%h" f
    | Value.String s -> Printf.sprintf "s%d:%s" (String.length s) s
    | Value.Bool b -> if b then "bt" else "bf"
  in
  let op_repr = function
    | Ast.Eq -> "eq"
    | Ast.Neq -> "ne"
    | Ast.Lt -> "lt"
    | Ast.Le -> "le"
    | Ast.Gt -> "gt"
    | Ast.Ge -> "ge"
  in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "s|%s|%s|%s|%s|%h\n" s.s_rel s.s_attr
           (op_repr s.s_op) (value_repr s.s_value) s.s_doi))
    t.sels;
  List.iter
    (fun j ->
      Buffer.add_string buf
        (Printf.sprintf "j|%s|%s|%s|%s|%h\n" j.j_from_rel j.j_from_attr
           j.j_to_rel j.j_to_attr j.j_doi))
    t.jns;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let op_to_string = function
  | Ast.Eq -> "="
  | Ast.Neq -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let pp_selection ppf s =
  Format.fprintf ppf "doi(%s.%s %s %s) = %g" s.s_rel s.s_attr
    (op_to_string s.s_op) (Value.to_sql s.s_value) s.s_doi

let pp_join ppf j =
  Format.fprintf ppf "doi(%s.%s = %s.%s) = %g" j.j_from_rel j.j_from_attr
    j.j_to_rel j.j_to_attr j.j_doi

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter (fun s -> Format.fprintf ppf "%a@ " pp_selection s) t.sels;
  List.iter (fun j -> Format.fprintf ppf "%a@ " pp_join j) t.jns;
  Format.pp_close_box ppf ()

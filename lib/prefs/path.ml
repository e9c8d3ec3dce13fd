module Ast = Cqp_sql.Ast

type t = { joins : Profile.join list; sel : Profile.selection }

let atomic sel = { joins = []; sel }

let anchor t =
  match t.joins with
  | j :: _ -> j.Profile.j_from_rel
  | [] -> t.sel.Profile.s_rel

let extend j t =
  if j.Profile.j_to_rel <> anchor t then
    invalid_arg
      (Printf.sprintf "Path.extend: join targets %s but path anchors at %s"
         j.Profile.j_to_rel (anchor t));
  { t with joins = j :: t.joins }

let length t = List.length t.joins + 1

let relations t =
  match t.joins with
  | [] -> [ t.sel.Profile.s_rel ]
  | j :: _ ->
      j.Profile.j_from_rel
      :: List.map (fun jn -> jn.Profile.j_to_rel) t.joins

let doi t =
  Doi.compose
    (List.map (fun j -> j.Profile.j_doi) t.joins @ [ t.sel.Profile.s_doi ])

let is_acyclic t =
  let rels = relations t in
  List.length (List.sort_uniq String.compare rels) = List.length rels

let would_cycle j t = List.mem j.Profile.j_from_rel (relations t)

let condition t =
  let join_pred (j : Profile.join) =
    Ast.Cmp
      ( Ast.Eq,
        Ast.Col (Some j.Profile.j_from_rel, j.Profile.j_from_attr),
        Ast.Col (Some j.Profile.j_to_rel, j.Profile.j_to_attr) )
  in
  let sel_pred (s : Profile.selection) =
    Ast.Cmp
      ( s.Profile.s_op,
        Ast.Col (Some s.Profile.s_rel, s.Profile.s_attr),
        Ast.Lit s.Profile.s_value )
  in
  Ast.conj (List.map join_pred t.joins @ [ sel_pred t.sel ])

let compare a b =
  Stdlib.compare
    ( List.map
        (fun (j : Profile.join) ->
          (j.j_from_rel, j.j_from_attr, j.j_to_rel, j.j_to_attr))
        a.joins,
      a.sel.Profile.s_rel,
      a.sel.Profile.s_attr,
      a.sel.Profile.s_op,
      Cqp_relal.Value.to_sql a.sel.Profile.s_value )
    ( List.map
        (fun (j : Profile.join) ->
          (j.j_from_rel, j.j_from_attr, j.j_to_rel, j.j_to_attr))
        b.joins,
      b.sel.Profile.s_rel,
      b.sel.Profile.s_attr,
      b.sel.Profile.s_op,
      Cqp_relal.Value.to_sql b.sel.Profile.s_value )

let equal a b = compare a b = 0

let pp ppf t =
  Format.fprintf ppf "%s (doi %.3f)"
    (Cqp_sql.Printer.predicate_to_string (condition t))
    (doi t)

type col = { qualifier : string option; name : string }
type t = { cols : col list; rows : Cqp_relal.Tuple.t array }

exception Column_error of string

let col ?qualifier name =
  {
    qualifier = Option.map String.lowercase_ascii qualifier;
    name = String.lowercase_ascii name;
  }

let make cols rows = { cols; rows }
let of_list cols rows = { cols; rows = Array.of_list rows }
let to_list t = Array.to_list t.rows
let arity t = List.length t.cols
let cardinality t = Array.length t.rows

let find_col cols qualifier name =
  let name = String.lowercase_ascii name in
  let qualifier = Option.map String.lowercase_ascii qualifier in
  let matches c =
    c.name = name
    &&
    match qualifier with None -> true | Some q -> c.qualifier = Some q
  in
  let hits =
    List.concat (List.mapi (fun i c -> if matches c then [ i ] else []) cols)
  in
  match hits with
  | [ i ] -> i
  | [] ->
      raise
        (Column_error
           (Printf.sprintf "unknown column %s%s"
              (match qualifier with Some q -> q ^ "." | None -> "")
              name))
  | _ ->
      raise
        (Column_error (Printf.sprintf "ambiguous column reference %s" name))

let concat = function
  | [] -> invalid_arg "Rowset.concat: no rowsets"
  | first :: _ as all ->
      if List.exists (fun t -> arity t <> arity first) all then
        raise (Column_error "append: arity mismatch between union branches");
      { cols = first.cols; rows = Array.concat (List.map (fun t -> t.rows) all) }

let product_cols a b = a.cols @ b.cols

let pp ppf t =
  let header =
    List.map
      (fun c ->
        match c.qualifier with
        | Some q -> q ^ "." ^ c.name
        | None -> c.name)
      t.cols
  in
  let cells =
    List.map
      (fun row -> List.map Cqp_relal.Value.to_string (Array.to_list row))
      (to_list t)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w r -> max w (String.length (List.nth r i)))
          (String.length h) cells)
      header
  in
  let line parts =
    Format.fprintf ppf "| %s |@ "
      (String.concat " | "
         (List.map2
            (fun s w -> s ^ String.make (w - String.length s) ' ')
            parts widths))
  in
  Format.pp_open_vbox ppf 0;
  line header;
  Format.fprintf ppf "|%s|@ "
    (String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter line cells;
  Format.fprintf ppf "(%d rows)" (Array.length t.rows);
  Format.pp_close_box ppf ()

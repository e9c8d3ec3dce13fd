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

type lookup = Found of int | Missing | Ambiguous

(* [s] spells [lower], a lowercase name, up to ASCII case. *)
let rec spells_from lower s i =
  i = String.length s
  || (lower.[i] = Char.lowercase_ascii s.[i] && spells_from lower s (i + 1))

let spells lower s =
  String.length lower = String.length s && spells_from lower s 0

let lookup cols qualifier name =
  let matches c =
    spells c.name name
    &&
    match qualifier, c.qualifier with
    | None, _ -> true
    | Some q, Some cq -> spells cq q
    | Some _, None -> false
  in
  let rec scan i hit = function
    | [] -> hit
    | c :: rest when matches c -> (
        match hit with Missing -> scan (i + 1) (Found i) rest | _ -> Ambiguous)
    | _ :: rest -> scan (i + 1) hit rest
  in
  scan 0 Missing cols

let find_col cols qualifier name =
  match lookup cols qualifier name with
  | Found i -> i
  | Missing ->
      raise
        (Column_error
           (Printf.sprintf "unknown column %s%s"
              (match qualifier with
              | Some q -> String.lowercase_ascii q ^ "."
              | None -> "")
              (String.lowercase_ascii name)))
  | Ambiguous ->
      raise
        (Column_error
           (Printf.sprintf "ambiguous column reference %s"
              (String.lowercase_ascii name)))

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

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Kw of string
  | Punct of string
  | Eof

exception Lex_error of string * int

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "GROUP";
    "BY"; "HAVING"; "ORDER"; "ASC"; "DESC"; "LIMIT"; "UNION"; "ALL";
    "COUNT"; "MIN"; "MAX"; "SUM"; "AVG"; "AS"; "IN"; "LIKE"; "IS"; "NULL";
    "TRUE"; "FALSE"; "BETWEEN";
  ]

let is_keyword s = List.mem (String.uppercase_ascii s) keywords
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit tok pos = tokens := (tok, pos) :: !tokens in
  let rec skip_ws i =
    if i < n then
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
          (* line comment *)
          let rec eol j = if j < n && input.[j] <> '\n' then eol (j + 1) else j in
          skip_ws (eol (i + 2))
      | _ -> i
    else i
  in
  let rec lex i =
    let i = skip_ws i in
    if i >= n then emit Eof i
    else begin
      let c = input.[i] in
      if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char input.[!j] do
          incr j
        done;
        let word = String.sub input i (!j - i) in
        if is_keyword word then emit (Kw (String.uppercase_ascii word)) i
        else emit (Ident (String.lowercase_ascii word)) i;
        lex !j
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit input.[i + 1])
      then begin
        (* The grammar has no binary arithmetic, so '-' before a digit
           is always a negative literal ('--' comments were handled by
           the whitespace skipper above). *)
        let j = ref (if c = '-' then i + 1 else i) in
        while !j < n && is_digit input.[!j] do
          incr j
        done;
        if
          !j < n
          && input.[!j] = '.'
          && !j + 1 < n
          && is_digit input.[!j + 1]
        then begin
          incr j;
          while !j < n && is_digit input.[!j] do
            incr j
          done;
          let s = String.sub input i (!j - i) in
          emit (Float_lit (float_of_string s)) i
        end
        else emit (Int_lit (int_of_string (String.sub input i (!j - i)))) i;
        lex !j
      end
      else if c = '\'' then begin
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then raise (Lex_error ("unterminated string literal", i))
          else if input.[j] = '\'' then
            if j + 1 < n && input.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              str (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf input.[j];
            str (j + 1)
          end
        in
        let next = str (i + 1) in
        emit (String_lit (Buffer.contents buf)) i;
        lex next
      end
      else begin
        let two =
          if i + 1 < n then Some (String.sub input i 2) else None
        in
        match two with
        | Some (("<>" | "!=" | "<=" | ">=") as op) ->
            emit (Punct op) i;
            lex (i + 2)
        | _ -> (
            match c with
            | '(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' ->
                emit (Punct (String.make 1 c)) i;
                lex (i + 1)
            | _ ->
                raise
                  (Lex_error
                     (Printf.sprintf "unexpected character %C" c, i)))
      end
    end
  in
  lex 0;
  List.rev !tokens

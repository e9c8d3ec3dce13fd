(** Hand-rolled SQL lexer.

    Produces a token stream over an input string.  Keywords are
    case-insensitive; identifiers are lowercased; string literals use
    single quotes with [''] as the escape for a quote. *)

type token =
  | Ident of string  (** lowercased identifier *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Kw of string  (** uppercase keyword, e.g. ["SELECT"] *)
  | Punct of string  (** one of [( ) , . * = <> != < <= > >=] *)
  | Eof

exception Lex_error of string * int  (** message, byte position *)

val tokenize : string -> (token * int) list
(** All tokens with their starting byte positions, ending with [Eof].
    @raise Lex_error on an unexpected character or unterminated
    string. *)

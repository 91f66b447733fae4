(* Hand-written lexer for the petit language. *)

type token =
  | IDENT of string
  | INT of int
  | KW_FOR
  | KW_TO
  | KW_DO
  | KW_BY
  | KW_ENDFOR
  | KW_SYMBOLIC
  | KW_REAL
  | KW_ASSUME
  | KW_MAX
  | KW_MIN
  | KW_AND
  | ASSIGN (* := *)
  | COLON
  | SEMI
  | COMMA
  | LPAREN
  | RPAREN
  | LBRACK
  | RBRACK
  | PLUS
  | MINUS
  | STAR
  | EQ
  | NE
  | LE
  | LT
  | GE
  | GT
  | EOF

exception Error of string * Ast.pos

type t = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  mutable peeked : (token * Ast.pos) option;
}

let create src = { src; off = 0; line = 1; bol = 0; peeked = None }

let pos lx : Ast.pos = { line = lx.line; col = lx.off - lx.bol + 1 }

let error lx msg = raise (Error (msg, pos lx))

let keyword = function
  | "for" | "doall" -> Some KW_FOR
  | "to" -> Some KW_TO
  | "do" -> Some KW_DO
  | "by" -> Some KW_BY
  | "endfor" | "end" -> Some KW_ENDFOR
  | "symbolic" -> Some KW_SYMBOLIC
  | "real" | "int" | "array" -> Some KW_REAL
  | "assume" | "assert" -> Some KW_ASSUME
  | "max" -> Some KW_MAX
  | "min" -> Some KW_MIN
  | "and" -> Some KW_AND
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_ws lx =
  let n = String.length lx.src in
  if lx.off >= n then ()
  else
    match lx.src.[lx.off] with
    | ' ' | '\t' | '\r' ->
      lx.off <- lx.off + 1;
      skip_ws lx
    | '\n' ->
      lx.off <- lx.off + 1;
      lx.line <- lx.line + 1;
      lx.bol <- lx.off;
      skip_ws lx
    | '/' when lx.off + 1 < n && lx.src.[lx.off + 1] = '/' ->
      while lx.off < n && lx.src.[lx.off] <> '\n' do
        lx.off <- lx.off + 1
      done;
      skip_ws lx
    | _ -> ()

let lex_token lx : token * Ast.pos =
  skip_ws lx;
  let p = pos lx in
  let n = String.length lx.src in
  if lx.off >= n then (EOF, p)
  else begin
    let c = lx.src.[lx.off] in
    let two what =
      lx.off <- lx.off + 2;
      what
    in
    let one what =
      lx.off <- lx.off + 1;
      what
    in
    let tok =
      if is_ident_start c then begin
        let start = lx.off in
        while lx.off < n && is_ident_char lx.src.[lx.off] do
          lx.off <- lx.off + 1
        done;
        let word = String.sub lx.src start (lx.off - start) in
        match keyword word with Some k -> k | None -> IDENT word
      end
      else if is_digit c then begin
        let start = lx.off in
        while lx.off < n && is_digit lx.src.[lx.off] do
          lx.off <- lx.off + 1
        done;
        match int_of_string_opt (String.sub lx.src start (lx.off - start)) with
        | Some v -> INT v
        | None -> raise (Error ("integer literal out of range", p))
      end
      else begin
        let next = if lx.off + 1 < n then Some lx.src.[lx.off + 1] else None in
        match c, next with
        | ':', Some '=' -> two ASSIGN
        | ':', _ -> one COLON
        | ';', _ -> one SEMI
        | ',', _ -> one COMMA
        | '(', _ -> one LPAREN
        | ')', _ -> one RPAREN
        | '[', _ -> one LBRACK
        | ']', _ -> one RBRACK
        | '+', _ -> one PLUS
        | '-', _ -> one MINUS
        | '*', _ -> one STAR
        | '=', _ -> one EQ
        | '!', Some '=' -> two NE
        | '<', Some '>' -> two NE
        | '<', Some '=' -> two LE
        | '<', _ -> one LT
        | '>', Some '=' -> two GE
        | '>', _ -> one GT
        | '&', Some '&' -> two KW_AND
        | _ -> error lx (Printf.sprintf "unexpected character %C" c)
      end
    in
    (tok, p)
  end

let next lx =
  match lx.peeked with
  | Some tp ->
    lx.peeked <- None;
    tp
  | None -> lex_token lx

let peek lx =
  match lx.peeked with
  | Some tp -> tp
  | None ->
    let tp = lex_token lx in
    lx.peeked <- Some tp;
    tp

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | KW_FOR -> "'for'"
  | KW_TO -> "'to'"
  | KW_DO -> "'do'"
  | KW_BY -> "'by'"
  | KW_ENDFOR -> "'endfor'"
  | KW_SYMBOLIC -> "'symbolic'"
  | KW_REAL -> "'real'"
  | KW_ASSUME -> "'assume'"
  | KW_MAX -> "'max'"
  | KW_MIN -> "'min'"
  | KW_AND -> "'and'"
  | ASSIGN -> "':='"
  | COLON -> "':'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACK -> "'['"
  | RBRACK -> "']'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | EQ -> "'='"
  | NE -> "'!='"
  | LE -> "'<='"
  | LT -> "'<'"
  | GE -> "'>='"
  | GT -> "'>'"
  | EOF -> "end of input"

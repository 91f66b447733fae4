(** Surface syntax of the "petit" mini-language, our stand-in for Michael
    Wolfe's tiny tool: nested for-loops over arrays with affine
    subscripts, scalar variables, symbolic constants and user assertions.

    Grammar sketch:
    {v
     program  := decl* stmt*
     decl     := "symbolic" id ("," id)* ";"
               | "real" id ["[" range ("," range)* "]"] ("," ...)* ";"
               | "assume" cond ("," cond)* ";"
     range    := expr ":" expr
     stmt     := [label ":"] access ":=" expr ";"
               | id ":=" expr ";"                       (scalar assignment)
               | "for" id ":=" expr "to" expr ["by" int] "do" stmt* "endfor"
     access   := id "(" expr ("," expr)* ")"  |  id "[" ... "]"
     cond     := expr relop expr [relop expr]  ("and" | "," chains)
    v} *)

type pos = { line : int; col : int }

type expr =
  | Int of int
  | Name of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Max of expr * expr  (** only in lower loop bounds *)
  | Min of expr * expr  (** only in upper loop bounds *)
  | Ref of string * expr list
      (** array read [a(i,j)] / [Q\[i\]]; empty subscripts = scalar read *)

type relop = Eq | Ne | Le | Lt | Ge | Gt

type cond = { left : expr; op : relop; right : expr }

type stmt =
  | Assign of {
      label : string option;
      lhs : string * expr list;
      rhs : expr;
      pos : pos;
    }
  | For of {
      var : string;
      lo : expr;
      hi : expr;
      step : int;  (** non-zero; negative counts down *)
      body : stmt list;
      pos : pos;
    }

type decl =
  | Symbolic of string list
  | Array of (string * (expr * expr) list) list
      (** declared index ranges; an empty range list declares a scalar *)
  | Assume of cond list

type program = { decls : decl list; stmts : stmt list }

val pp_expr : Format.formatter -> expr -> unit

val program_to_string : program -> string
(** Re-parseable rendering: [parse (program_to_string p)] pretty-prints
    to the same string (after one normalization cycle). *)

(** Semantic analysis: surface AST -> IR.

    Resolves names to loop variables (by nest position) or declared
    symbolic constants; extracts affine forms of subscripts and loop
    bounds (distributing [max]/[min] into lower/upper bound arms);
    demotes non-affine subexpressions (products of variables, index-array
    reads) to opaque terms; flattens every array access into the
    program-wide access table. *)

exception Error of string

val analyze : Ast.program -> Ir.program
(** @raise Error on undeclared names, misplaced [max]/[min], an array
    used at the wrong number of subscripts, etc. *)

val parse_and_analyze : string -> Ir.program
(** Parse then analyze.  @raise Parser.Error @raise Error *)

val collect_reads : Ast.expr -> (string * Ast.expr list) list -> (string * Ast.expr list) list
(** Every array read inside an expression, accumulated in reverse
    evaluation order (exposed so the interpreter splits read queues the
    same way). *)

(** Normalized intermediate representation of a petit program: the input
    to dependence analysis.

    Every array access is flattened into an {!access} record carrying its
    subscripts as affine functions of the enclosing (normalized) loop
    counters, symbolic constants and opaque terms; its loop nest with
    max/min bound arms; and tree coordinates deciding execution order. *)

(** A variable reference inside an affine form. *)
type varref =
  | Loop of int  (** nest position of the access, 0 = outermost *)
  | Symc of string  (** symbolic constant *)
  | Opq of int  (** opaque (non-affine) term, by id *)

(** Affine form: constant + sorted coefficient list, no zero
    coefficients. *)
type affine = { const : int; terms : (varref * int) list }

val aff_const : int -> affine
val aff_var : varref -> affine

(** [aff_add], [aff_scale], [aff_neg] and [aff_sub] are checked: they
    raise [Zint.Overflow] when an exact coefficient or constant does not
    fit a native [int]. *)

val aff_add : affine -> affine -> affine
val aff_scale : int -> affine -> affine
val aff_neg : affine -> affine
val aff_sub : affine -> affine -> affine
val aff_is_const : affine -> bool
val aff_coeff : affine -> varref -> int

(** An opaque term: a non-affine subexpression (index-array read, scalar
    read, product of variables) kept for the section-5 symbolic
    analysis. *)
type opaque = {
  opq_id : int;
  repr : Ast.expr;  (** original syntax *)
  base : string option;  (** array name when the term is an array read *)
  args : affine list;  (** affine arguments, over the same nest *)
}

type bound = affine list
(** lower bound: max of the arms; upper bound: min of the arms *)

type loop = {
  lvar : string;
  lo : bound;
  hi : bound;
  step : int;
      (** The IR loop counter is normalized: it counts 0,1,2,... in
          execution order regardless of the surface step.  For [step = 1]
          the counter is the surface variable, bounded by [lo]/[hi]
          directly.  For [step <> 1] (single bound arms) the surface value
          is [lo + step*counter]. *)
}

type acc_kind = Read | Write

type access = {
  acc_id : int;
  stmt_id : int;
  label : string;
  array : string;
  kind : acc_kind;
  subs : affine list;
  loops : loop list;  (** outermost first *)
  loop_nodes : int list;  (** ids of the enclosing loop AST nodes *)
  path : int list;  (** sibling-index coordinates for textual order *)
  opaques : opaque list;
}

type sym_cond = { sc_left : affine; sc_op : Ast.relop; sc_right : affine }

(** IR statement tree (used by the interpreter and induction
    recognition). *)
type istmt =
  | IFor of {
      node_id : int;
      var : string;
      lo : Ast.expr;
      hi : Ast.expr;
      step : int;
      body : istmt list;
    }
  | IAssign of {
      stmt_id : int;
      label : string;
      write : access;
      reads : access list;  (** in evaluation order *)
      lhs : string * Ast.expr list;
      rhs : Ast.expr;
    }

type program = {
  source : Ast.program;
  symbolics : string list;
  arrays : (string * (affine * affine) list) list;
      (** declared ranges over symbolic constants; empty = scalar *)
  assumes : sym_cond list;
  accesses : access array;  (** indexed by [acc_id] *)
  stmts : istmt list;
}

val access_count : program -> int
val access : program -> int -> access
val writes : program -> access list
val reads : program -> access list
val depth : access -> int

val common_loops : access -> access -> int
(** Number of loops common to two accesses (shared ancestor loop
    nodes). *)

val textually_before : access -> access -> bool
(** Is the first access textually before the second (at the point where
    their nests diverge)?  Reads of a statement precede its write. *)

val access_to_string : access -> string

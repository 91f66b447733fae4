(** Symbolic dependence analysis (section 5).

    A dependence may exist only for particular values of symbolic
    constants or of opaque terms (index arrays, non-linear expressions).
    The exact condition is the projection of the dependence problem onto
    those variables; the {e new} information relative to what is already
    known (assumptions, bounds) is computed with a gist - that is the
    concise query to put to the user. *)

open Omega

type restraint = Dirvec.sign list
(** A restraint vector (section 2.1.2): per common loop, a constraint on
    the sign of the dependence distance, chosen so the conjunction forces
    lexicographically forward dependences. *)

val restraint_constraints :
  Depctx.inst -> Depctx.inst -> restraint -> Constr.t list

type condition =
  | Always  (** the gist was a tautology: no extra condition *)
  | Never  (** the dependence cannot exist *)
  | When of Problem.t  (** the new information *)
  | Unknown of Budget.reason
      (** the analysis gave up within its resource budget; the
          dependence must conservatively be assumed to exist *)

type analysis = {
  cond : condition;
  known : Problem.t;
      (** what is already known, projected onto the same variables: the
          "such that" part of a rendered query *)
  inst_a : Depctx.inst;
  inst_b : Depctx.inst;
  ctx : Depctx.t;
}

val analyze :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  restraint:restraint ->
  ?hide:string list ->
  unit ->
  analysis
(** The condition under which a dependence from [src] to [dst] with the
    given restraint vector exists.  [hide] lists symbolic constants to
    project away (those with known ranges, as with [n] in Example 7). *)

val render_query : analysis -> string
(** The user query, in the paper's style: opaque index-array terms render
    as [q\[a\]] with fresh letters for their subscript positions. *)

type array_property =
  | Injective  (** distinct subscripts give distinct values *)
  | Strictly_increasing
  | Accumulator of Ir.access
      (** a scalar written only by [x := x + e] with [e >= 1] (the given
          increment access): its values never decrease over time and
          strictly increase across an intervening increment.  Produced by
          {!Induction.detect}. *)

val dependence_exists_with :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  props:(string * array_property) list ->
  bool
(** Does a dependence survive once the user asserts [props] about the
    named (index) arrays?  Properties are instantiated pairwise over the
    opaque occurrences and the query decided by the Presburger engine. *)

(** A decision procedure for Presburger formulas (section 3.2).

    Quantifier elimination by exact projection over a DNF; congruence
    atoms ([m] divides [e]) close the language under negation of projected
    formulas, so the procedure is complete for all of Presburger
    arithmetic (with the usual worst-case blowup).  The dependence
    analyses use it as the fallback behind the paper's efficient special
    cases (dark-shadow implication and gists). *)

(** The DNF is never materialized: it is enumerated depth-first, one
    partial conjunction at a time, and [satisfiable] stops at the first
    satisfiable leaf.  Enumeration and projection are metered against the
    ambient {!Budget} limits; entering more [Or] alternatives per DNF
    enumeration (or projecting more pieces) than the disjunct limit allows
    raises [Budget.Exhausted Disjuncts].  Callers using the procedure to
    {e prove} a fact treat a give-up as "not proved" (conservative for
    elimination queries).

    The outer enumeration of {!satisfiable} and {!valid} stalls at a
    fixed count: after entering {!stall_point} alternatives without a
    satisfiable leaf it calls its hook ([witness], [refute]) once, and
    a [true] answer decides the formula satisfiable (not valid) at once.
    The count does not scale with the disjunct limit, so a query decided
    under some limit is decided the same way under every larger one; a
    limit below {!stall_point} gives up before the hook runs. *)

type t =
  | True
  | False
  | Atom of Constr.t
  | Cong of Zint.t * Linexpr.t  (** [Cong (m, e)]: [m] divides [e]. *)
  | And of t list
  | Or of t list
  | Not of t
  | Exists of Var.t list * t
  | Forall of Var.t list * t

(** {1 Smart constructors} (they simplify on the fly) *)

val atom : Constr.t -> t
val ge : Linexpr.t -> Linexpr.t -> t
val gt : Linexpr.t -> Linexpr.t -> t
val le : Linexpr.t -> Linexpr.t -> t
val lt : Linexpr.t -> Linexpr.t -> t
val eq : Linexpr.t -> Linexpr.t -> t
val and_ : t list -> t
val or_ : t list -> t
val not_ : t -> t
val exists : Var.t list -> t -> t
val forall : Var.t list -> t -> t
val implies_ : t -> t -> t
val cong : Zint.t -> Linexpr.t -> t

(** {1 Conversions} *)

val of_problem : Problem.t -> t

val problem_of_conjuncts : t list -> Problem.t
(** The atoms (and only atoms) of one DNF disjunct as a problem;
    congruences become fresh-wildcard equalities.
    @raise Invalid_argument on non-atoms. *)

val dnf : t -> t list list
(** Disjunctive normal form of a quantifier-free formula: every leaf of
    the enumeration, in cross-product order, as a conjunction of atoms,
    with contradictory disjuncts pruned.  Collecting every leaf is charged
    like any enumeration, so a wide DNF raises
    [Budget.Exhausted Disjuncts]. *)

(** {1 Decision} *)

val qe : t -> t
(** Quantifier elimination: the result is quantifier-free over the free
    variables (plus [Cong] atoms). *)

val stall_point : int
(** [Or] alternatives the outer enumeration enters before it asks its
    hook: 64, above the most that any decided query of the corpus
    enters. *)

val satisfiable : ?witness:(unit -> bool) -> t -> bool
(** Satisfiability, free variables read existentially.  [witness ()]
    runs at most once, at the {!stall_point}; it must answer [true] only
    when it has checked a point satisfying the formula. *)

val valid : ?refute:(unit -> bool) -> t -> bool
(** Validity, free variables read universally.  [refute ()] runs at most
    once, at the {!stall_point}; it must answer [true] only when it has
    checked a point falsifying the formula. *)

val implies : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

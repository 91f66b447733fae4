(** Conjunctions of linear constraints: the basic object the Omega test
    manipulates.

    A problem denotes the set of assignments to its non-wildcard variables
    for which integer values of the wildcard variables exist satisfying
    every constraint.  After simplification and elimination, wildcards
    appear only in "inert congruence" position: a wildcard [s] occurring
    in exactly one equality [e + g*s = 0], denoting [e = 0 (mod g)]. *)

type t

type simplified = Contra | Ok of t

val trivial : t
(** The empty conjunction (all integer assignments). *)

val of_list : Constr.t list -> t
val constraints : t -> Constr.t list
val is_trivial : t -> bool

val add : Constr.t -> t -> t
val add_list : Constr.t list -> t -> t
val conj : t -> t -> t

val mark_grown : t -> unit
(** Hint that this problem just came out of a multiplicative
    Fourier-Motzkin step (the lower x upper cross product multiplied the
    inequality count): the next {!simplify} additionally runs the
    interval-redundancy screen on it.  Purely a performance hint — the
    screen is equivalence-preserving either way. *)

val vars : t -> Var.Set.t

val map_constraints : (Constr.t -> Constr.t) -> t -> t
val filter : (Constr.t -> bool) -> t -> t

val subst : Var.t -> Linexpr.t -> t -> t
(** [subst v def t] replaces [v] by the affine expression [def] in every
    constraint. *)

val subst_colored : Var.t -> Linexpr.t -> Constr.color -> t -> t
(** Like {!subst}, but constraints mentioning the variable absorb the
    color of the equality driving the substitution (section 3.3.2's
    red/black tracking). *)

val eval : (Var.t -> Zint.t) -> t -> bool
(** Evaluate under an assignment (which must cover every variable,
    including wildcards). *)

val simplify : t -> simplified
(** Normalize every constraint (gcd reduction with integer tightening),
    drop tautologies and duplicates, keep only the tightest parallel
    bounds, promote touching opposite inequalities to equalities, and
    detect single- and two-constraint contradictions. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

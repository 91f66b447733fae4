(** Individual constraints: [expr = 0] or [expr >= 0].

    The [color] supports the paper's red/black scheme (section 3.3.2) for
    combined projection + gist: constraints from [p] are tagged [Red],
    constraints from [q] [Black], and derived constraints are red iff any
    parent is red. *)

type kind = Eq | Geq
type color = Black | Red

type t

val make : ?color:color -> kind -> Linexpr.t -> t
val eq : ?color:color -> Linexpr.t -> t
val geq : ?color:color -> Linexpr.t -> t

val ge : ?color:color -> Linexpr.t -> Linexpr.t -> t
(** [ge a b] is [a >= b]; similarly [le], [gt], [lt], and [eq2] for
    [a = b]. *)

val le : ?color:color -> Linexpr.t -> Linexpr.t -> t
val gt : ?color:color -> Linexpr.t -> Linexpr.t -> t
val lt : ?color:color -> Linexpr.t -> Linexpr.t -> t
val eq2 : ?color:color -> Linexpr.t -> Linexpr.t -> t

val kind : t -> kind
val expr : t -> Linexpr.t
val color : t -> color
val is_red : t -> bool
val with_color : color -> t -> t
val combine_colors : color -> color -> color

val negate_geq : t -> t
(** Negation of an inequality: [not (e >= 0)] is [-e - 1 >= 0].
    Equalities negate to a disjunction; see {!Presburger}. *)

type norm_result = Tauto | Contra | Ok of t

val normalize : t -> norm_result
(** Divide by the gcd of the coefficients; inequality constants are
    tightened with floor division (an integer-only strengthening); an
    equality whose constant is not divisible is a contradiction. *)

val subst : t -> Var.t -> Linexpr.t -> t
val vars : t -> Var.Set.t
val mentions : t -> Var.t -> bool
val eval : (Var.t -> Zint.t) -> t -> bool

val implies : t -> t -> bool
(** Single-constraint implication; detects only the parallel /
    anti-parallel cases (used as a fast screen). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

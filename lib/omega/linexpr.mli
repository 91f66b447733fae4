(** Affine expressions: a constant plus a linear combination of variables
    with exact integer coefficients. *)

type t

val zero : t
val const : Zint.t -> t
val of_int : int -> t

val term : Zint.t -> Var.t -> t
(** [term c v] is [c * v]. *)

val var : Var.t -> t

val coeff : t -> Var.t -> Zint.t
(** Zero when the variable does not occur. *)

val constant : t -> Zint.t
val mem : t -> Var.t -> bool
val is_const : t -> bool

val set_coeff : t -> Var.t -> Zint.t -> t
val add_term : t -> Zint.t -> Var.t -> t
val add_const : t -> Zint.t -> t

val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val scale : Zint.t -> t -> t
val scale_int : int -> t -> t

val subst : t -> Var.t -> t -> t
(** [subst e v def] replaces [v] by [def] in [e]. *)

val vars : t -> Var.Set.t
val iter_terms : (Var.t -> Zint.t -> unit) -> t -> unit
val fold_terms : (Var.t -> Zint.t -> 'a -> 'a) -> t -> 'a -> 'a
val num_terms : t -> int

val content : t -> Zint.t
(** Gcd of the variable coefficients (not the constant); zero for a
    constant expression. *)

val divexact : t -> Zint.t -> t
val map_coeffs : (Zint.t -> Zint.t) -> t -> t
(** Applies to the coefficients {e and} the constant. *)

val eval : (Var.t -> Zint.t) -> t -> Zint.t

val compare : t -> t -> int
val compare_terms : t -> t -> int
(** Linear parts only (ignoring the constants): equal iff parallel with
    the same scale. *)

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash (constant included), cached on the expression. *)

val canon : t -> (Var.t * Zint.t) list * bool * int
(** [canon e] is [(key, flipped, khash)]: the linear part in ascending
    variable order with the leading coefficient made positive, whether
    the sign was flipped to achieve that, and a hash of the key.  Two
    expressions share a key iff their linear parts are equal or
    opposite.  Cached on the expression. *)

val dot : t -> t -> Zint.t
(** Inner product of the coefficient vectors (used by the gist fast
    checks). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

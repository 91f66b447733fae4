(** Affine expressions: a constant plus a linear combination of variables
    with exact integer coefficients. *)

type t

val zero : t
val const : Zint.t -> t
val of_int : int -> t

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

val lincomb : Zint.t -> t -> Zint.t -> t -> t
(** [lincomb a x b y] is [a*x + b*y]. *)

val subst : t -> Var.t -> t -> t
(** [subst e v def] replaces [v] by [def] in [e]. *)

val vars : t -> Var.Set.t
val exists_var : (Var.t -> bool) -> t -> bool
val iter_terms : (Var.t -> Zint.t -> unit) -> t -> unit
val fold_terms : (Var.t -> Zint.t -> 'a -> 'a) -> t -> 'a -> 'a

val content : t -> Zint.t
(** Gcd of the variable coefficients (not the constant); zero for a
    constant expression. *)

val divexact : t -> Zint.t -> t
val map_coeffs : (Zint.t -> Zint.t) -> t -> t
(** Applies to the coefficients {e and} the constant. *)

val eval : (Var.t -> Zint.t) -> t -> Zint.t

val compare : t -> t -> int
type key
(** The canonical key of a linear part: its (variable, coefficient)
    pairs in ascending variable order with the leading coefficient made
    positive.  Two expressions share a key iff their linear parts are
    equal or opposite. *)

val canon : t -> key
(** Computed once and cached on the expression. *)

val key_flipped : key -> bool
(** Whether the key negated the expression's coefficients. *)

val key_hash : key -> int
(** Equal keys hash equally. *)

val compare_key : key -> key -> int
(** Lexicographic over the pairs (variable id, then coefficient), a
    proper prefix first. *)

val key_length : key -> int
val key_var_id : key -> int -> int
(** [key_var_id k i] is the id of the [i]th variable of [k]. *)

val key_coeff : key -> int -> Zint.t
(** [key_coeff k i] is the [i]th coefficient of [k]. *)

val dot : t -> t -> Zint.t
(** Inner product of the coefficient vectors (used by the gist fast
    checks). *)

val pp : Format.formatter -> t -> unit

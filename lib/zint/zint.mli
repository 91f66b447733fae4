(** Checked native integers.

    Fourier–Motzkin elimination multiplies constraint coefficients
    together, so on hostile input a coefficient can outgrow a native
    [int].  Like the original Omega library we compute on native
    integers; instead of aborting, every operation whose exact result
    does not fit raises {!Overflow}.  The solver's query boundary turns
    that into a conservative give-up ({!Omega.Budget.run}), so a wrapped
    value can never reach a verdict.

    [t] is an [int] behind an abstract type: values are immediates, and
    the abstraction keeps unchecked [int] arithmetic out of the solver. *)

type t [@@immediate]

exception Overflow
(** The exact result of an operation does not fit a native [int]. *)

val zero : t
val one : t
val minus_one : t
val two : t

val of_int : int -> t
val to_int : t -> int

val of_string : string -> t
(** Accepts an optional leading [-] or [+] followed by decimal digits.
    @raise Invalid_argument on malformed input.
    @raise Overflow when the value does not fit. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool

(** {1 Checked arithmetic: the exact result, or {!Overflow}} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t
val min : t -> t -> t
val max : t -> t -> t

val fdiv : t -> t -> t
(** Floor division: rounds toward negative infinity.
    @raise Division_by_zero *)

val cdiv : t -> t -> t
(** Ceiling division: rounds toward positive infinity.
    @raise Division_by_zero *)

val tdiv : t -> t -> t
(** Truncating division: rounds toward zero (like OCaml [/]).
    @raise Division_by_zero *)

val frem : t -> t -> t
(** Remainder of [fdiv]: [frem a b] has the sign of [b] (or is zero), and
    [add (mul (fdiv a b) b) (frem a b) = a]. *)

val trem : t -> t -> t
(** Remainder of [tdiv]: has the sign of the dividend (or is zero). *)

val divisible : t -> t -> bool
(** [divisible a b] iff [b] divides [a] exactly. [divisible a zero] iff
    [a = zero]. *)

val divexact : t -> t -> t
(** Division known to be exact; checked with an assertion. *)

val mod_hat : t -> t -> t
(** Pugh's symmetric residue: [mod_hat a b = a - b * floor(a/b + 1/2)] for
    [b > 0]; the result lies in [(-b/2, b/2]].  Used by exact equality
    elimination. @raise Division_by_zero *)

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative. [gcd zero zero = zero]. *)

val lcm : t -> t -> t

(** The same checked operations on plain [int]s, for code that keeps
    native integers (Lang's affine forms and array extents). *)
module Int : sig
  val add : int -> int -> int
  val sub : int -> int -> int
  val mul : int -> int -> int
  val neg : int -> int
end

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

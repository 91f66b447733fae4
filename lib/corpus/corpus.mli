(** The bundled program corpus: the paper's Examples 1-11, the CHOLSKY
    kernel of Figure 2 (translated statement-for-statement, with the
    paper's own forward-substitution and loop normalization), and
    tiny-distribution-style kernels (Cholesky, LU, wavefronts, stencils,
    contrived kill/cover programs) used by the tests, examples and the
    Figure 6/7 timing population. *)

val example1 : string
val example1m : assert_m:bool -> string
(** The [a(m)] variant of Example 1; with [assert_m] the program carries
    the assertion [n <= m <= n+10] that makes the kill verifiable. *)

val example2 : string
val example3 : string
val example4 : string
val example5 : string
val example6 : string

val example7 : ?assumes:string -> unit -> string
(** Symbolic analysis example; [assumes] defaults to the paper's
    [50 <= n <= 100]. *)

val example8 : string
val example9 : string
val example10 : string
val example11 : string
val cholsky : string

val copyin : string
(** A [temp_reuse] variant whose temporary has one element written
    before the loop and only read inside it: privatization is legal only
    with copy-in. *)

val row_dot_private : string
(** Row dot products accumulated in a one-cell temporary that every
    outer iteration reinitializes: the outer loop is an extended doall
    with the accumulator privatized. *)

val all : (string * string) list
(** Every corpus program, by name. *)

val timing_population : string list
(** The programs swept by the Figure 6/7 benches. *)

val stress : (string * string) list
(** Adversarial analysis-stress nests (coupled large-coefficient
    subscripts, splinter-heavy strides, DNF-wide kill chains, max/min
    bound case splits).  Not part of {!all}: they exist to exhaust
    solver budgets, and the execution harnesses that sweep [all] have
    nothing to learn from them. *)

val find : string -> string
(** A program of {!all} or {!stress}, by name.
    @raise Invalid_argument on an unknown name. *)

(** The bundled program corpus: the paper's Examples 1-11, the CHOLSKY
    kernel of Figure 2 (translated statement-for-statement, with the
    paper's own forward-substitution and loop normalization), and
    tiny-distribution-style kernels (Cholesky, LU, wavefronts, stencils,
    contrived kill/cover programs) used by the tests, examples and the
    Figure 6/7 timing population. *)

val cholsky : string

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

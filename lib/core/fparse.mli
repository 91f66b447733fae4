(** A small textual front end for Presburger formulas (the omega_calc
    input language):

    {v
     formula := "forall" ids ":" formula
              | "exists" ids ":" formula
              | disj [ "=>" formula ]
     disj    := conj { "or" conj }
     conj    := chained comparisons separated by "and"
    v}

    e.g. ["forall x: 0 <= x and x <= 10 => exists y: x = 2*y or x = 2*y + 1"]. *)

open Omega

exception Error of string

val formula_of_string : string -> Presburger.t
(** @raise Error on malformed input. *)

val problems_of_strings : string list -> Problem.t list * (string * Var.t) list
(** Bare conjunctions as problems over one shared set of variables (the
    omega_calc operands), with the bindings created for their names.
    @raise Error on malformed input, a non-linear term, [!=], or a
    coefficient that overflows a native integer. *)

val problem_of_string : string -> Problem.t * (string * Var.t) list
(** [problems_of_strings] of one conjunction. *)

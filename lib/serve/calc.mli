(** The omega_calc operations as one shared evaluation path: the
    [omega_calc] CLI (plain and [--json]) and the daemon's [omega_calc]
    requests all answer through {!eval}, so their results are
    structurally identical by construction. *)

type result =
  | R_sat of bool
  | R_implies of bool
  | R_project of string list
      (** rendered disjuncts of the projection; [[]] means FALSE *)
  | R_gist of [ `Tautology | `False | `Gist of string ]
  | R_opt of [ `Val of string | `Unsat | `Unbounded ]

val eval : Protocol.calc_op -> (result, string) Stdlib.result
(** [Error msg] covers parse failures, unknown variables and an input
    coefficient that overflows a native integer.  Each operation is one
    governed query ({!Omega.Budget.run}); when it gives up, the reason
    escapes as {!Omega.Budget.Exhausted}, and callers map it to their
    gave-up surface. *)

val governed : label:string -> (unit -> 'a) -> 'a
(** Run solver work as one governed query, raising
    {!Omega.Budget.Exhausted} when it gives up. *)

val result_json : result -> Json.t
val result_plain : result -> string
(** The CLI's historical one-answer-per-line rendering. *)

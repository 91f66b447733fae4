(** Interpreter-based validation of [doall] claims.

    The program is executed with concrete symbolic-constant values (found
    automatically so the user's [assume] assertions hold) and its dynamic
    dependences checked against every loop marked [doall] by the extended
    analysis:

    - no dynamic {e value-based} flow dependence may be carried by the
      loop (values never cross iterations);
    - every dynamic {e memory-based} conflict (flow, anti or output)
      carried by the loop must be on an array the verdict privatizes
      (the conflict is storage reuse, removed by the private copy). *)

type violation = {
  o_loop : Graph.loop_info;
  o_what : string;  (** human-readable description of the offense *)
}

type report = {
  o_syms : (string * int) list;
  o_events : int;  (** trace length *)
  o_checked : int;  (** number of doall claims examined *)
  o_violations : violation list;
}

val pick_syms :
  ?candidates:int list -> Ir.program -> (string * int) list option
(** Small values for the program's symbolic constants satisfying its
    [assume] conditions, by backtracking search over [candidates]
    (default: small positive values, then 10/50/100 for assertions such
    as [50 <= n]).  [None] when no assignment in the grid works. *)

val scaled_syms : target:int -> Ir.program -> (string * int) list option
(** {!pick_syms} sized for execution: the candidates start near
    [max 4 (target ** (1 / depth))] for the deepest loop nest of
    [depth] loops, so a run does about [target] innermost iterations
    whatever the nesting. *)

type outcome =
  | Report of report
  | No_assignment  (** no symbolic-constant values satisfy the assumptions *)
  | Not_executable of string
      (** the interpreter cannot run the program (e.g. opaque index-array
          reads in loop bounds) *)

val check :
  ?syms:(string * int) list -> Graph.t -> Parallel.verdict list -> outcome
(** Run the program and check every extended-analysis [doall] claim. *)

(** Gist computation and implication testing (section 3.3 of the paper).

    [gist p ~given:q] is a conjunction of a minimal subset of the
    constraints of [p] such that [(gist p given q) && q  ==  p && q]: the
    "new information" in [p] for someone who already knows [q]. *)

type result =
  | Tautology  (** [q] already implies [p]: the gist is [True]. *)
  | False  (** [p] and [q] are inconsistent. *)
  | Gist of Problem.t

val gist : Problem.t -> given:Problem.t -> result
(** The paper's screening checks (single-constraint implications and the
    "no positively-correlated normal" must-keep test) run before the
    satisfiability test per remaining constraint. *)

val implies : Problem.t -> Problem.t -> bool
(** [implies p q]: is [p => q] a tautology?  (Section 3.3.1: each
    constraint of [q] is checked against [p], with a parallel-constraint
    screen before the satisfiability test.) *)

(**/**)

val gist_project :
  keep:(Var.t -> bool) -> Problem.t -> given:Problem.t -> result
(** [gist_project ~keep p ~given:q] is
    [gist (project ~keep (p && q)) ~given:(project ~keep q)] computed with
    a single red/black joint elimination (section 3.3.2), falling back to
    dark-shadow projections when the joint projection splinters. *)

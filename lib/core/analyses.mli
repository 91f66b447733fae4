(** The four section-4 analyses - killing (4.1), covering (4.2),
    terminating (4.3) and refinement (4.4) - each phrased as the validity
    of a Presburger formula [forall (p => exists q)].

    Queries run through the {!Omega.Portfolio}: the paper's efficient
    route first (project the existential side with the dark shadow,
    check the implication with gists), and only when it passes does the
    complete Presburger decision procedure run.  Per-tier attempts /
    decides / time are recorded in {!Omega.Metrics} (merged across
    domains by {!Par.map}, so sharded analyses report the same totals as
    serial ones). *)

open Omega

module Memo = Memo
(** The solver-result cache: {!implies_exists} verdicts, plus the
    completed per-level vectors of {!Deps.level_vectors} (read by
    {!Deps.compute}, {!Deps.exists} and {!refine}), in one bounded
    table keyed by canonical ({!Canon.key}) serializations.  One [enabled] switch,
    one [capacity], one [reset] for every kind of entry; fault-injected
    runs bypass it.  See {!Depend.Memo}. *)

val fast_tier :
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  unit ->
  bool
(** The fast path of {!implies_exists_decide}: every [lhs] disjunct
    (under [hyp]) is unsatisfiable or implies the dark-shadow projection
    of some [rhs] disjunct with [evars] eliminated.  [true] proves the
    query, [false] passes it to {!complete_tier}: it never disproves.
    The dark shadow under-approximates, so a proof over it holds over
    the integers. *)

val complete_tier :
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  unit ->
  bool
(** The complete Presburger decision.
    Its refutation hook ({!Omega.Presburger.valid}'s [refute]) is
    {!counterexample}. *)

val counterexample :
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  unit ->
  (Var.t * Zint.t) list option
(** A checked counterexample to [hyp => (lhs => exists evars. rhs)]:
    for each [lhs] disjunct (under [hyp]), its low then its high corner
    ({!Omega.corner}), the first point at which the pinned disjunct is
    satisfiable and every [rhs] disjunct, with the point's non-[evars]
    values pinned, is unsatisfiable.  The point fixes every non-wildcard
    variable of [hyp] and the disjunct.  [None] proves nothing. *)

val implies_exists_decide :
  ?label:string ->
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  Budget.verdict * Portfolio.tier option
(** [implies_exists_decide ~hyp lhs ~evars rhs]: is
    [hyp => (lhs => exists evars. rhs)] valid (disjunction over each
    list)?  One governed portfolio query: a blown budget (or an injected
    fault) surfaces as [Gave_up], never as an exception.  Also returns the tier that decided ([None]
    for give-ups).  [label] names the query in governance telemetry. *)

val implies_exists_verdict :
  ?label:string ->
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  Budget.verdict
(** {!implies_exists_decide} without the tier attribution. *)

val implies_exists :
  ?label:string ->
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  bool
(** {!implies_exists_verdict} collapsed to a boolean: [Gave_up] maps to
    [false], which is conservative because every caller uses a positive
    answer to eliminate or refine a dependence. *)

val dep_problems :
  ?in_bounds:bool -> Depctx.t -> Depctx.inst -> Depctx.inst -> Problem.t list
(** The dependence problems from one instance to another, one per
    ordering level. *)

val covers_verdict :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  Budget.verdict

val covers :
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> bool
(** Does the write [src] cover [dst] (write every element [dst] accesses,
    earlier)?  Section 4.2.  [Gave_up] maps to [false]. *)

val terminates_verdict :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  Budget.verdict

val terminates :
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> bool
(** Does the write [dst] terminate [src] (overwrite every element [src]
    accesses, later)?  Section 4.3.  [Gave_up] maps to [false]. *)

val kills_verdict :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  killer:Ir.access ->
  dst:Ir.access ->
  Budget.verdict

val kills :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  killer:Ir.access ->
  dst:Ir.access ->
  bool
(** Is the dependence from [src] to [dst] killed by the intervening write
    [killer]?  Section 4.1.  [Gave_up] maps to [false]. *)

type candidate = (int option * int option) list
(** A candidate refinement: per common loop, an optional inclusive
    distance range. *)

val check_refinement :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  candidate ->
  bool
(** The general refinement test of section 4.4: every instance of [dst]
    receiving the dependence also receives it from an instance of [src]
    within the candidate distance. *)

val refine :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  int list * Dirvec.t list
(** The paper's candidate generator: pin the distance of each common
    loop, outermost first, to its minimum possible value, stopping at the
    first failure.  Returns the pinned distances and the direction
    vectors of the dependence under them.  Each step reads
    {!Deps.level_vectors} under the pins so far: with the earlier
    distances pinned, the least lower bound of the next loop's entries
    over a level's vectors is that level's minimum distance (a level
    with no vectors, an unbounded entry or a give-up is left out).  So
    every step is one {!Memo} entry, step 0 is the entry {!Deps.compute}
    stored, and the candidate checks are memoized verdicts.  A level
    whose vectors give up under the final pins contributes its weakest
    (conservative) vectors. *)

val set_fault_injection : seed:int -> rate:float -> unit
(** Deterministically force a pseudo-random fraction [rate] of solver
    queries to [Gave_up Injected] (see {!Budget.set_fault_injection}).
    While active the verdict cache is bypassed.  For the differential
    soundness harness: fault-injected analyses must only ever {e lose}
    precision relative to clean runs. *)

val clear_fault_injection : unit -> unit

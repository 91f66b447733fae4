(** The four section-4 analyses - killing (4.1), covering (4.2),
    terminating (4.3) and refinement (4.4) - each phrased as the validity
    of a Presburger formula [forall (p => exists q)].

    Queries run through the tiered {!Omega.Portfolio}: the incomplete
    O(constraints) {!Omega.Screen} first, then the paper's efficient
    route (project the existential side with the dark shadow, check the
    implication with gists), and only when both pass does the complete
    Presburger decision procedure run.  Per-tier attempts / decides /
    time are recorded in {!Omega.Metrics} (merged across domains by
    {!Par.map}, so sharded analyses report the same totals as serial
    ones). *)

open Omega

val use_fast_path : bool ref
(** Ablation switch: when [false], the portfolio plan omits the
    dark-shadow fast path (tier 1). *)

module Memo = Memo
(** The solver-result cache: {!implies_exists} verdicts, plus the
    completed per-level vectors of {!Deps.compute} and {!refined_vectors}
    and the minimum distances of {!refine}, in one bounded table keyed
    by canonical ({!Canon.key}) serializations.  One [enabled] switch,
    one [capacity], one [reset] for every kind of entry; fault-injected
    runs bypass it.  See {!Depend.Memo}. *)

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
    fault, or an exhausted screen-only plan) surfaces as [Gave_up],
    never as an exception.  Also returns the tier that decided ([None]
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
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> int list
(** The paper's candidate generator: pin the distance of each common
    loop, outermost first, to its minimum possible value, stopping at the
    first failure.  Returns the pinned distances.  Each step's per-level
    minimums are one {!Memo} entry, keyed over the minimized distance
    variable; the candidate checks are memoized verdicts. *)

val refined_vectors :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  int list ->
  Dirvec.t list
(** Direction vectors of the dependence under the pinned distances
    ({!Deps.level_vectors} with the pins as extra constraints, so the
    completed levels are one {!Memo} entry).  A level whose vector
    analysis gives up contributes its weakest (conservative) vectors
    instead. *)

val set_fault_injection : seed:int -> rate:float -> unit
(** Deterministically force a pseudo-random fraction [rate] of solver
    queries to [Gave_up Injected] (see {!Budget.set_fault_injection}).
    While active the verdict cache is bypassed.  For the differential
    soundness harness: fault-injected analyses must only ever {e lose}
    precision relative to clean runs. *)

val clear_fault_injection : unit -> unit

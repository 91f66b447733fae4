(** The four section-4 analyses - killing (4.1), covering (4.2),
    terminating (4.3) and refinement (4.4) - each phrased as the validity
    of a Presburger formula [forall (p => exists q)].

    Queries run through the {!Omega.Portfolio}: the paper's efficient
    route first (project the existential side with the dark shadow,
    check the implication with gists), and only when it passes does the
    complete Presburger decision procedure run.  Per-tier attempts /
    decides / time are recorded in {!Omega.Metrics} (merged across
    domains by {!Par.map}, so sharded analyses report the same totals as
    serial ones).  The structural screens that settle a question with no
    query - the driver's section-4.5 quick tests and {!refine}'s
    {!refinement_screen} - count as its [quick] row, through
    {!quick_screen}. *)

open Omega

val quick_screen : bool -> bool
(** [quick_screen hit]: one consultation of a structural screen, counted
    in the [quick] tier row of {!Omega.Metrics} (an attempt, and a
    decide when [hit]: a solver query avoided).  Returns [hit].  The one
    counting path of every screen. *)

module Memo = Memo
(** The solver-result cache: the verdicts of {!covers}, {!terminates},
    {!kills} and {!check_refinement}, plus the completed per-level
    vectors of {!Deps.level_vectors} (read by {!Deps.compute} and
    {!refine}), in one bounded table keyed by canonical ({!Canon.key})
    serializations.  One [enabled] switch, one [capacity], one [reset]
    for every kind of entry; fault-injected runs bypass it.  The four
    queries find their key by recipe ({!Memo.keyed}: the query family,
    the accesses, the [levels], the candidate and [in_bounds]) and build
    their query only for a new recipe or a memo miss.  See
    {!Depend.Memo}. *)

val fast_tier :
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  unit ->
  bool
(** The fast path of every section-4 query: every [lhs] disjunct
    (under [hyp]) implies the dark-shadow projection of some [rhs]
    disjunct with [evars] eliminated.  [true] proves the query, [false]
    passes it to {!complete_tier}: it never disproves.  An [lhs]
    disjunct is not tested for points first: the driver poses
    satisfiable ones, and an empty one with no [rhs] dark shadow is
    left to the complete tier.
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

(** {1 Queries over carried levels}

    Each query below quantifies over the ordering levels of
    {!Depctx.levels} (one disjunct per level), restricted to the
    carried levels its [levels] arguments name: the [levels] of a
    {!Deps.dep} ([0] = loop-independent), the levels at which the
    standard analysis found the dependence, or assumed it after a
    give-up.  At any other level the dependence problem is empty, so the
    dropped disjuncts change no verdict (section 4.5: the analysis does
    not ask the Omega test again what it already knows).

    Precondition: the levels come from dependences computed in the same
    {!Depctx.t}, under the same [in_bounds], as the query.  A list that
    leaves out a non-empty level shrinks a left-hand side, so {!kills}
    and {!check_refinement} could prove what does not hold; on a
    right-hand side alone ({!covers}, {!terminates}) it only loses
    proofs. *)

val covers :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  levels:int list ->
  bool
(** Does the write [src] cover [dst] (write every element [dst] accesses,
    earlier)?  Section 4.2.  [levels]: those of the dependence from
    [src] to [dst].  [Gave_up] maps to [false]. *)

val terminates :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  levels:int list ->
  bool
(** Does the write [dst] terminate [src] (overwrite every element [src]
    accesses, later)?  Section 4.3.  [levels]: those of the output
    dependence from [src] to [dst] ([[]] when there is none: the query
    then proves only for a [src] that never runs).  [Gave_up] maps to
    [false]. *)

val kills :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  killer:Ir.access ->
  dst:Ir.access ->
  ac:int list ->
  ab:int list ->
  bc:int list ->
  bool
(** Is the dependence from [src] to [dst] killed by the intervening write
    [killer]?  Section 4.1.  [ac], [ab] and [bc]: the levels of the
    dependences from [src] to [dst], from [src] to [killer] and from
    [killer] to [dst]; the right-hand side is their [ab] x [bc] product.
    [Gave_up] maps to [false]. *)

type candidate = (int option * int option) list
(** A candidate refinement: per common loop, an optional inclusive
    distance range. *)

val check_refinement :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  levels:int list ->
  candidate ->
  bool
(** The general refinement test of section 4.4: every instance of [dst]
    receiving the dependence also receives it from an instance of [src]
    within the candidate distance.  Both sides range over [levels], the
    dependence's. *)

val refinement_screen :
  (Dirvec.t list, Budget.reason) result list -> int list -> bool
(** [refinement_screen results pins]: the section-4.4 screen.  [results]
    are a pair's unpinned per-level vectors ({!Deps.level_vectors}); it
    holds when every level completed and each of its vectors states the
    distances [pins] of the first loops exactly ([lo = hi]).  Then every
    dependence instance has the pinned distances, so the candidate
    pinning them is a valid refinement ({!check_refinement} proves it,
    with the source instance as its own witness).  A level that gave up
    never screens. *)

val refine :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  levels:int list ->
  int list * Dirvec.t list
(** The paper's candidate generator: pin the distance of each common
    loop, outermost first, to its minimum possible value, stopping at the
    first failure.  Returns the pinned distances and the direction
    vectors of the dependence under them.  With the earlier distances
    pinned, the least lower bound of the next loop's entries over a
    level's vectors is that level's minimum distance (a level with no
    vectors, an unbounded entry or a give-up is left out).  Step 0 reads
    the unpinned vectors, the {!Memo} entry {!Deps.compute} stored.
    While {!refinement_screen} settles the pins, a step asks no query:
    no {!check_refinement}, and the next step reads the same unpinned
    vectors.  After the first step it does not settle, each step checks
    its candidate (a memoized verdict) and reads {!Deps.level_vectors}
    under the pins so far (one memo entry).  A level whose vectors give
    up under the final pins contributes its weakest (conservative)
    vectors.  Each candidate is checked over [levels], those of the
    dependence from [src] to [dst].  While {!Omega.Portfolio.Oracle} is
    on, every screened step is replayed
    ({!Omega.Portfolio.Oracle.replay}, under [refinement/screen]): the
    query of {!check_refinement} over the same [levels], decided by
    {!complete_tier} alone. *)

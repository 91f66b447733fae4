(** The solver-result cache shared by every request: section-4 verdicts
    ({!Analyses.covers}, {!Analyses.terminates}, {!Analyses.kills},
    {!Analyses.check_refinement}) and the completed per-level
    direction vectors of a dependence pair under pinned distances
    ({!Deps.level_vectors}, which {!Deps.compute} and {!Analyses.refine}
    read), in one bounded table behind one lock.

    Every key is a canonical (alpha-renamed) serialization of the query
    ({!Canon.key}) with its distinguished variables listed explicitly,
    which also erases variable-id slots, so entries are shareable across
    allocating domains.  Sound because every cached answer is invariant
    under variable renaming.  A warm lookup finds its key from a
    {!recipe} in its program's {!recipes} table, without building the
    query.  {!Analyses.Memo} is this module. *)

open Omega

type t = {
  mutable hits : int;  (** verdict hits *)
  mutable misses : int;  (** verdict misses *)
  mutable evictions : int;  (** entries of any kind evicted *)
  mutable hits_fast : int;
      (** verdict hits whose cached verdict was decided by the
          dark-shadow fast path *)
  mutable hits_complete : int;  (** ... by the complete procedure *)
  mutable vec_hits : int;  (** per-level vector hits *)
  mutable vec_misses : int;  (** per-level vector misses *)
}

val enabled : bool ref
(** Turns the whole cache on or off.  Verdict entries record the
    {!Budget.current_limits} they were computed under: completed
    verdicts replay at any budget, a [Gave_up] only while the current
    budget is no larger than the recorded one.  Vector entries are
    stored only when every level completed, and replay at any budget.  Fault-injected runs bypass the cache.  Disable in
    timing benches that reproduce per-query figures — a hit would
    measure a hash lookup, not an elimination. *)

val active : unit -> bool
(** [enabled] and no fault injection active: whether lookups and
    insertions happen at all. *)

val capacity : int ref
(** Maximum number of cached entries of all kinds; beyond it the oldest
    entries are evicted first-in-first-out, so long-running sessions
    hold a bounded table instead of growing without limit. *)

val size : unit -> int
(** Entries currently cached. *)

val stats : t

val reset : unit -> unit
(** Clears the table (every kind of entry), the eviction queue, every
    program's recipe table, and all counters. *)

val hit_rate : unit -> float
(** Verdict hits over verdict lookups since the last [reset]; [0.] when
    none ran. *)

(** {2 Concurrency}

    The table, the eviction queue, and the counters are guarded by an
    internal mutex, so the cache is safe to share across threads (the
    petitd daemon keeps one warm across every connection).  The lock
    covers lookups and insertions only — never solver work — and the
    counter fields of {!stats} must be read, not written, by clients. *)

(** {2 Verdicts} *)

val verdict :
  string ->
  (unit -> Budget.verdict * Portfolio.tier option) ->
  Budget.verdict * Portfolio.tier option
(** [verdict key compute]: the replayable cached verdict under [key]
    (under the current domain's {!Budget.current_limits}), with the tier
    that computed it; otherwise [compute ()]'s result, recorded under
    the current limits and evicting FIFO beyond {!capacity}.  Counts one
    hit or one miss, both in {!stats} and in the calling domain's
    {!Omega.Metrics} record ([memo_hits]/[memo_misses]).

    While one caller computes a key, a second asker of the same key
    waits for it, then replays its entry, or computes itself when the
    entry is missing or not replayable under its own budget.  The claim
    is released on every exit path, exceptions included.  So a key is
    computed once however many domains or threads ask, and sharded hit
    and miss counts equal serial ones.  [compute] must not consult the
    memo. *)

(** {2 Per-level vectors} *)

val per_level :
  key:(unit -> string option) ->
  ('l -> (Dirvec.t list, Budget.reason) result) ->
  'l list ->
  (Dirvec.t list, Budget.reason) result list
(** [per_level ~key solve levels]: [List.map solve levels], answered
    from one cache entry under [key ()] when there is one (a vector hit)
    and stored there when every level returned [Ok] (a vector miss).  A
    concurrent asker of the same key waits for the first, as in
    {!verdict}.  When the cache is not {!active} or [levels] is empty,
    [key] is never forced; then, and when [key ()] is [None] (a query
    that could not be built), nothing is looked up or counted. *)

(** {2 Recipes}

    A warm lookup finds its key without building the query: each
    program has a table from {!recipe} to the key its first build
    produced.  A key is a pure function of the program and the recipe,
    since every {!Depctx.create} mints its variables in the same
    relative id order, so a key found by recipe is the key a rebuild
    would serialize: the same keys are looked up in the same order, and
    every verdict, vector and counter stays the same. *)

type recipe = string
(** An exact encoding of a query's recipe: the query family, the
    [acc_id]s of the accesses it names, the carried levels it ranges
    over, the distance pins or candidate, and [in_bounds]
    ({!Depctx.recipe} builds it). *)

type recipes
(** One program's recipe table. *)

val recipes : (unit -> string) -> recipes
(** [recipes fingerprint]: the table of the program whose exact
    fingerprint is [fingerprint ()].  A program's table is registered
    with the cache only when its first recipe is recorded, so a program
    that never records one holds nothing.  While the cache is not
    {!active}, [fingerprint] is not forced and the table is detached: it
    never holds a recipe.  Tables are held by the cache: at most
    {!capacity} recipes in all (so at most {!capacity} programs), whole
    tables evicted oldest first (neither counted in {!size} nor in
    [evictions]), all dropped by {!reset}.  An evicted or dropped table
    is detached. *)

val keyed : recipes -> recipe -> (unit -> string option) -> string option
(** [keyed table recipe key]: the key [table] records under [recipe];
    otherwise [key ()], recorded there when it is [Some].  [key] must be
    the canonical key of the query the recipe names ([None]: the query
    cannot be built).  Ask only while the cache is {!active}: a run the
    cache does not serve neither reads nor records a recipe. *)

val recipe_count : unit -> int
(** Recipes held in all attached tables. *)

val program_count : unit -> int
(** Programs with a registered recipe table. *)

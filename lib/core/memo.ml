(* Memoized solver results, shared across requests.

   Repeated kill/cover/refinement queries over a corpus are often
   textually identical problems in fresh variables ([Depctx.instantiate]
   allocates per call, so raw ids never match).  Every key is a
   canonical serialization ([Canon.key]): variables renumbered by first
   occurrence in a fixed traversal order and tagged with their kind, the
   distinguished variables listed explicitly.  Alpha-equivalent queries
   in the same allocation order therefore share a key, and every cached
   answer is invariant under renaming, so a hit is always sound.

   One table holds two kinds of entry:

   - a section-4 verdict ([Analyses.implies_exists_decide]) with the
     portfolio tier that decided it and the budget limits it was
     computed under.  [Proved] and [Disproved] replay at any budget (the
     solver is deterministic, so a completed verdict is a fact).  A
     [Gave_up] replays only while the current budget is no larger than
     the recorded one: raising the budget invalidates cached give-ups,
     which then recompute;
   - the per-level direction vectors of a dependence pair under a list
     of pinned distances ([Deps.level_vectors]), one list per ordering
     level.  Every per-level question about a pair reads them: the
     vectors of [Deps.compute] (no pins), the existence test of
     [Deps.exists], and each step of [Analyses.refine], which takes the
     minimum distance of the next loop from the entries' lower bounds.

   Vector entries are stored only when every level completed: a
   completed result is a fact and replays at any budget, like a
   completed verdict, while a give-up recomputes.  Fault-injected
   runs bypass the cache entirely (a fault is a property of the run, not
   of the problem).

   Timing benches that reproduce the paper's per-query figures must
   disable the cache ([enabled := false]) or they would measure hash
   lookups instead of eliminations. *)

open Omega

type t = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* verdict hits attributed to the tier that computed the cached verdict *)
  mutable hits_fast : int;
  mutable hits_complete : int;
  (* vector lookups; kept apart so [hits]/[misses] and [hit_rate] stay
     verdict-only *)
  mutable vec_hits : int;
  mutable vec_misses : int;
}

let make_t () =
  {
    hits = 0;
    misses = 0;
    evictions = 0;
    hits_fast = 0;
    hits_complete = 0;
    vec_hits = 0;
    vec_misses = 0;
  }

(* Verdicts are tagged with the portfolio tier that decided them
   ([None] for a cached give-up), so replays keep the per-tier
   attribution honest. *)
type entry =
  | Verdict of Budget.verdict * Budget.limits * Portfolio.tier option
  | Vectors of Dirvec.t list list

let enabled = ref true
let stats = make_t ()

let active () = !enabled && not (Budget.fault_injection_active ())

let table : (string, entry) Hashtbl.t = Hashtbl.create 4096

(* The daemon shares one cache across connection threads, so the table,
   the eviction queue, and the counters live behind a mutex.  The lock
   covers only lookup and insertion — solver work happens outside it —
   so contention is a hash probe, not an elimination. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

(* The cache is bounded: beyond [capacity] entries the oldest keys are
   evicted first-in-first-out.  FIFO (rather than LRU) keeps hits O(1)
   with no bookkeeping on the hot path; corpus-shaped workloads re-ask a
   query soon after first posing it, so recency tracking buys little.
   [order] may retain keys whose entry was since replaced; eviction
   skips the stale ones. *)
let capacity = ref 32_768
let order : string Queue.t = Queue.create ()

let size () = locked (fun () -> Hashtbl.length table)

let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      Queue.clear order;
      stats.hits <- 0;
      stats.misses <- 0;
      stats.evictions <- 0;
      stats.hits_fast <- 0;
      stats.hits_complete <- 0;
      stats.vec_hits <- 0;
      stats.vec_misses <- 0)

let hit_rate () =
  locked (fun () ->
      let total = stats.hits + stats.misses in
      if total = 0 then 0.
      else float_of_int stats.hits /. float_of_int total)

let insert key entry =
  locked (fun () ->
      let fresh = not (Hashtbl.mem table key) in
      Hashtbl.replace table key entry;
      if fresh then begin
        Queue.push key order;
        while Hashtbl.length table > !capacity && not (Queue.is_empty order) do
          let victim = Queue.pop order in
          if Hashtbl.mem table victim then begin
            Hashtbl.remove table victim;
            stats.evictions <- stats.evictions + 1
          end
        done
      end)

(* Read the ambient limits before taking the lock: the entry records
   the budget the verdict was computed under. *)
let add key verdict tier =
  insert key (Verdict (verdict, Budget.current_limits (), tier))

let bump_tier s tier =
  match tier with
  | None -> ()
  | Some Portfolio.Tier_fast -> s.hits_fast <- s.hits_fast + 1
  | Some Portfolio.Tier_complete -> s.hits_complete <- s.hits_complete + 1

let replayable verdict lims =
  match verdict with
  | Budget.Proved | Budget.Disproved -> true
  | Budget.Gave_up _ -> Budget.le (Budget.current_limits ()) lims

(* In-flight keys.  The first asker of a fresh key claims it and runs
   the solver; a second asker (another domain or a daemon thread) waits
   on [settled] until the claim is released, then looks again: it
   replays the entry the first one stored, or, when there is none or it
   is not replayable under the waiter's budget, claims the key and
   computes itself.  So each completed result is computed once, and the
   hit/miss counts of a sharded run equal the serial ones.  Solver work
   never looks up the memo, so a claimant never waits on another claim.
   [reset] leaves the markers alone: each belongs to a running
   computation, which releases it. *)
let inflight : (string, unit) Hashtbl.t = Hashtbl.create 64
let settled = Condition.create ()

(* The cached answer ([lookup], under the lock) or the claim on [key]:
   [compute] runs outside the lock, [store] records its result, and the
   claim is released on every exit path.  [counted] tallies the
   resolved lookup once, as a hit or a miss, however long it waited. *)
let memoize key ~lookup ~counted ~store compute =
  let claimed =
    locked (fun () ->
        let rec go () =
          match lookup () with
          | Some r -> Some r
          | None when Hashtbl.mem inflight key ->
            Condition.wait settled lock;
            go ()
          | None ->
            Hashtbl.replace inflight key ();
            None
        in
        let r = go () in
        counted r;
        r)
  in
  match claimed with
  | Some r -> r
  | None ->
    Fun.protect
      ~finally:(fun () ->
        locked (fun () ->
            Hashtbl.remove inflight key;
            Condition.broadcast settled))
      (fun () ->
        let r = compute () in
        store r;
        r)

(* Besides the shared counters, every verdict lookup counts a hit or a
   miss in the calling domain's [Metrics] record (outside the lock: the
   record is domain-local).  That is how a petitd request reports exactly
   its own memo traffic while other sessions use the shared table. *)
let verdict key compute =
  let hit = ref false in
  let r =
    memoize key
      ~lookup:(fun () ->
        match Hashtbl.find_opt table key with
        | Some (Verdict (verdict, lims, tier)) when replayable verdict lims ->
          Some (verdict, tier)
        | _ -> None)
      ~counted:(function
        | Some (_, tier) ->
          hit := true;
          stats.hits <- stats.hits + 1;
          bump_tier stats tier
        | None -> stats.misses <- stats.misses + 1)
      ~store:(fun (verdict, tier) -> add key verdict tier)
      compute
  in
  let m = Metrics.current () in
  if !hit then m.memo_hits <- m.memo_hits + 1
  else m.memo_misses <- m.memo_misses + 1;
  r

let per_level ~key solve levels =
  if levels = [] || not (active ()) then List.map solve levels
  else begin
    let key = key () in
    memoize key
      ~lookup:(fun () ->
        match Hashtbl.find_opt table key with
        | Some (Vectors vs) -> Some (List.map Result.ok vs)
        | Some (Verdict _) | None -> None)
      ~counted:(function
        | Some _ -> stats.vec_hits <- stats.vec_hits + 1
        | None -> stats.vec_misses <- stats.vec_misses + 1)
      ~store:(fun rs ->
        if List.for_all Result.is_ok rs then
          insert key (Vectors (List.map Result.get_ok rs)))
      (fun () -> List.map solve levels)
  end

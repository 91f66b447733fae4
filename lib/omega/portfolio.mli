(** The decision portfolio: per-query cascade of procedures.

    A query is posed as at most one incomplete attempt, the paper's
    dark-shadow fast path, which proves or passes and never disproves,
    and the complete procedure that decides when the fast path passes.
    Because the fast path is sound, the cascade changes which procedure
    decides a query — never the verdict; {!Oracle} checks that claim
    query by query.

    The cascade runs inside a {!Budget} query boundary: a blown limit
    is the only way a query gives up. *)

type tier = Tier_fast | Tier_complete

(** {!Metrics} under its old name.  Kept only because the end-to-end
    benchmark harness (bench/e2e) still reads [Portfolio.Stats];
    everything else uses {!Metrics}. *)
module Stats = Metrics

(** The cascade-vs-complete gate.  While enabled, every query the fast
    path proves is replayed through the complete procedure of the same
    query and the verdicts compared (and a caller's own shortcut is
    replayed through {!replay}); contradictions are recorded
    (thread-safe) for the analysis bench and the pair-corpus test to
    assert empty.  A replay is the complete procedure alone, run after
    the query it checks, under its own meter at the current limits and
    on a throwaway {!Metrics} record: it poses no portfolio query, and
    never changes a verdict or a counter of the run.  A replay that
    gives up is counted and reported, not dropped.  Expensive — bench
    and test use only. *)
module Oracle : sig
  val enable : unit -> unit
  val disable : unit -> unit

  val checks : unit -> int
  (** Verdicts replayed since the last {!enable}, give-ups included. *)

  val divergences : unit -> string list
  (** The labels of the queries the fast path proved and the complete
      procedure disproved, and of the shortcuts whose {!replay}
      disproved them, in the order met. *)

  val gave_up : unit -> string list
  (** The labels of the replays that gave up, in the order met: checks
      that settled nothing. *)

  val replay : string -> (unit -> Budget.verdict) -> unit
  (** [replay label query]: while enabled, run [query] — the complete
      procedure's decision of a shortcut taken outside the portfolio,
      such as [Depend.Analyses.refine]'s screen — as a replay, counted
      in {!checks}; [Disproved] is a divergence under [label],
      [Gave_up] a {!gave_up} under it. *)
end

val decide :
  ?label:string ->
  ?fault_key:(unit -> string) ->
  ?fast:(unit -> bool) ->
  (unit -> bool) ->
  Budget.verdict * tier option
(** [decide ?fast complete]: run [fast] ([Tier_fast]; [true] proves,
    [false] passes), then [complete] ([Tier_complete]) when it passes or
    is absent, inside one {!Budget} query boundary.  Returns the verdict
    and the tier that decided ([None] for [Gave_up]).  Tier
    attempts/decides/elapsed are recorded in the current domain's
    {!Metrics} rows.  While the {!Oracle} is enabled, a [Tier_fast]
    proof is {!Oracle.replay}ed through [complete] once the query has
    ended. *)

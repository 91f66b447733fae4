(** The tiered decision portfolio: per-query cascade of procedures.

    A query is posed as a list of incomplete {e tiers}, each an attempt
    that may answer [Proved]/[Disproved] or pass with [Unknown], and the
    complete procedure that decides when every tier passes; the first
    definite answer wins.  Callers write the plan directly; the
    analyses cascade the incomplete O(constraints) {!Screen} (tier 0)
    into the dark-shadow fast path (tier 1) and finally the complete
    Presburger procedure (tier 2).  Because every tier is sound, the
    cascade changes which procedure decides a query — never the
    verdict; {!Oracle} checks that claim query by query.

    The cascade runs inside a {!Budget} query boundary: a blown limit
    is the only way a query gives up. *)

type tier = Tier_screen | Tier_fast | Tier_complete

val tier_to_string : tier -> string
(** ["screen"], ["fast"], ["complete"]. *)

val tier_of_string : string -> tier option

(** {!Metrics} under its old name.  Kept only because the end-to-end
    benchmark harness (bench/e2e) still reads [Portfolio.Stats];
    everything else uses {!Metrics}. *)
module Stats = Metrics

(** The cascade-vs-complete gate.  While enabled, every query an
    incomplete tier decides is replayed through the complete procedure
    of the same plan and the verdicts compared; contradictions are recorded
    (thread-safe) for the analysis bench and the pair-corpus test to
    assert empty.  A replay never changes the verdict returned.
    Expensive — bench and test use only. *)
module Oracle : sig
  type divergence = {
    label : string;
    tier : tier;  (** the incomplete tier that answered *)
    got : bool;  (** its verdict *)
    want : bool;  (** the complete procedure's verdict *)
  }

  val enable : unit -> unit
  val disable : unit -> unit
  val active : unit -> bool

  val checks : unit -> int
  (** Verdict pairs compared since the last {!enable}. *)

  val divergences : unit -> divergence list
end

val decide :
  ?label:string ->
  ?fault_key:(unit -> string) ->
  (tier * (unit -> Screen.answer)) list ->
  (unit -> bool) ->
  Budget.verdict * tier option
(** [decide tiers complete]: run the incomplete [tiers] in order, then
    [complete] (tier 2, [Tier_complete]) when all of them pass, inside
    one {!Budget} query boundary.  Returns the verdict and the tier that
    decided ([None] for [Gave_up]).  Tier attempts/decides/elapsed are
    recorded in the current domain's {!Metrics} rows. *)

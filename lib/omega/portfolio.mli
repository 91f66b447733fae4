(** The tiered decision portfolio: per-query cascade of backends.

    A query is posed as a list of {e tiers}, each an attempt that may
    answer [Proved]/[Disproved] or pass with [Unknown]; the first
    definite answer wins.  The standard plan cascades the incomplete
    O(constraints) {!Screen} (tier 0) into the dark-shadow fast path
    (tier 1) and finally the complete Presburger procedure (tier 2).
    Because every tier is sound, the cascade changes which procedure
    decides a query — never the verdict.

    The cascade runs inside a {!Budget} query boundary; when a tier
    list runs out with no definite answer (one built by hand of
    incomplete tiers only), the query gives up with
    {!Budget.Incomplete}, flowing through the same conservative
    degradation paths as a blown fuel limit. *)

type backend = Omega | Cascade
(** [Omega]: fast path + complete procedure, no screen.
    [Cascade]: screen first, then the [Omega] tiers (the default). *)

val backend : backend ref
(** Process-wide backend selection, an internal switch: no CLI sets it;
    the bench pins [Omega] to time the complete tier alone.  Set before
    fanning out parallel work; worker domains read it freely. *)

val backend_to_string : backend -> string

type tier = Tier_screen | Tier_fast | Tier_complete

val tier_to_string : tier -> string
(** ["screen"], ["fast"], ["complete"]. *)

val tier_of_string : string -> tier option

(** {!Metrics} under its old name.  Kept only because the end-to-end
    benchmark harness (bench/e2e) still reads [Portfolio.Stats];
    everything else uses {!Metrics}. *)
module Stats = Metrics

(** Cross-backend differential oracle.  While enabled, every query an
    incomplete tier decides is replayed through the complete tier of the
    same plan and the verdicts compared; contradictions are recorded
    (thread-safe) for the bench to assert empty.  Expensive — bench use
    only. *)
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

val plan :
  ?screen:(unit -> Screen.answer) ->
  ?fast:(unit -> Screen.answer) ->
  complete:(unit -> Screen.answer) ->
  unit ->
  (tier * (unit -> Screen.answer)) list
(** Assemble the tier list for the current {!backend}: [Omega] takes
    fast + complete, [Cascade] all three.  The fast tier is gated by
    the caller passing one (analyses gate it on their own
    [use_fast_path] switch), likewise the screen.  The list always ends
    in the complete tier. *)

val decide :
  ?label:string ->
  ?fault_key:(unit -> string) ->
  (tier * (unit -> Screen.answer)) list ->
  Budget.verdict * tier option
(** Run the tiers in order inside a {!Budget} query boundary, returning
    the verdict and the tier that decided ([None] for [Gave_up]).  Tier
    attempts/decides/elapsed are recorded in the current domain's
    {!Metrics} rows; an exhausted plan
    raises — and the boundary catches — [Exhausted Incomplete]. *)

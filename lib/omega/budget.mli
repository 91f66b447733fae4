(** Resource governance for the solver stack.

    Solver entry points run under an ambient {e meter} charged against
    the current limits: elimination steps draw fuel, splinter
    construction draws its own counter, DNF enumeration draws a branch
    counter, and an
    optional wall-clock deadline bounds the whole query.  Exhausting any
    limit raises {!Exhausted}; the query boundary ({!run} / {!decide})
    turns that into a structured {!verdict} so no resource blowup ever
    escapes as an exception.

    Clients must map [Gave_up] to their sound conservative answer: a
    dependence is assumed live, a kill/cover/refinement is not proved, a
    doall is illegal, privatization is refused.  The solver is
    deterministic, so a query that completes under a tight budget
    returns the same verdict under any looser deadline-free budget:
    tightening can only turn [Proved]/[Disproved] into [Gave_up], never
    flip them.

    Limits and the meter live in a {e per-domain world} (Domain.DLS):
    every domain can run queries concurrently without a lock, and nested
    entries within one domain share the outermost query's meter.  Each
    outermost query records its outcome in the domain's {!Metrics}
    record.  Note that systhreads share their domain's world — petitd
    session threads must ship solver work to worker domains rather than
    run it in place. *)

type reason = Fuel | Splinters | Disjuncts | Deadline | Injected | Incomplete
(** [Incomplete]: the query ran only incomplete tiers (a hand-built
    {!Portfolio.decide} list without the complete procedure) and none
    of them could decide it.  Unlike the resource reasons it signals a
    capability gap, not an exhausted meter, but clients degrade
    identically: map it to the sound conservative answer. *)

val reason_to_string : reason -> string

type verdict = Proved | Disproved | Gave_up of reason

val verdict_to_string : verdict -> string

exception Exhausted of reason
(** Raised inside the solver when the ambient meter blows a limit.
    Always caught by {!run}/{!decide}; escapes only code that enters the
    solver without a query boundary. *)

type limits = {
  fuel : int;  (** elimination / decision steps per query *)
  splinters : int;  (** splinter problems constructed per query *)
  disjuncts : int;  (** [Or] alternatives entered per DNF enumeration *)
  deadline_ms : float option;  (** wall-clock bound per query *)
}

val default : limits

val current_limits : unit -> limits
(** The current domain's limits. *)

val le : limits -> limits -> bool
(** [le a b]: [a] is no larger than [b] in every dimension, i.e. any
    query that completes under [a] completes under [b].  A finite
    deadline is tighter than none. *)

val with_limits : limits -> (unit -> 'a) -> 'a
(** Run with the current domain's limits temporarily replaced. *)

val with_wall_deadline : float option -> (unit -> 'a) -> 'a
(** Run with the current domain's {e wall deadline} — an absolute
    [Unix.gettimeofday] instant bounding a whole request — temporarily
    replaced.  Every meter created inside enforces whichever of the
    per-query deadline and the wall deadline comes first, so a query
    started late inside a deadlined request gets a correspondingly
    smaller time budget and degrades to [Gave_up Deadline] like any
    other blown limit.  petitd installs the per-request [deadline_ms]
    here before solving. *)

val wall_deadline : unit -> float option
(** The current domain's wall deadline, if any. *)

val wall_expired : unit -> bool
(** Whether the current domain's wall deadline has already passed
    ([false] when none is set).  Checked at admission points that want
    to refuse work outright rather than degrade query by query. *)

(** {1 Metering (solver internals)} *)

type meter

val with_meter : (meter -> 'a) -> 'a
(** Reuse the ambient meter when already inside a query, otherwise
    install a fresh one for the duration of the call.  Solver entry
    points wrap their body in this. *)

val tick : meter -> unit
(** Charge one step of work; raises {!Exhausted} on a blown limit. *)

val add_splinters : meter -> int -> unit
val disjunct_limit : unit -> int

(** {1 Query boundaries (clients)} *)

val run :
  ?label:string -> ?fault_key:(unit -> string) -> (unit -> 'a) ->
  ('a, reason) result
(** Run [f] as one governed query: counts it, draws a fault when
    injection is active and [fault_key] is given, meters the work, and
    maps {!Exhausted} to [Error].  The outcome is recorded in the
    current domain's {!Metrics}.  Nested inside another [run] it shares
    the outer meter and records nothing.

    [fault_key] (forced only while injection is active) must identify
    the query by {e content} — e.g. a canonical serialization of the
    problems — so the fault decision is a pure function of (seed, key),
    independent of scheduling and of which domain runs the query.
    Queries without a key never fault. *)

val decide :
  ?label:string -> ?fault_key:(unit -> string) -> (unit -> bool) -> verdict

(** {1 Fault injection} *)

val set_fault_injection : seed:int -> rate:float -> unit
(** Force a deterministic pseudo-random fraction [rate] of keyed query
    boundaries to [Gave_up Injected] before any solver work runs.
    Verdict caches must be bypassed while active.  The configuration is
    process-wide and read-only once parallel work is in flight: set it
    before fanning out. *)

val clear_fault_injection : unit -> unit
val fault_injection_active : unit -> bool

(** {1 Scoped worlds (parallel tasks)} *)

val scoped : limits:limits -> (unit -> 'a) -> 'a
(** Run [f] under the given limits with a fresh meter slot, restoring
    the previous limits and meter afterwards.  This is how a parallel
    task adopts its submitter's budget on whatever domain it lands on. *)

(** {1 Legacy name} *)

(** {!Metrics} under its old name, with [gave_up_total] for the current
    domain.  Kept only because the end-to-end benchmark harness
    (bench/e2e) still reads it; everything else uses {!Metrics}. *)
module Telemetry : sig
  include module type of struct
    include Metrics
  end

  val gave_up_total : unit -> int
end

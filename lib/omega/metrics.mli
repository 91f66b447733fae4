(** The solver's counters, in one record per domain.

    One record holds everything a run reports about its solver work:
    the governance counters of {!Budget.run} (queries, give-ups by
    reason, peaks, the worst query), the Fourier-Motzkin and
    interval-screen counters of {!Elim} and {!Problem.simplify}, the
    per-tier rows of {!Portfolio.decide} (fast path, complete procedure)
    and the driver's section-4.5 quick screens, and the verdict-memo
    hits and misses of this domain.

    The record lives in domain-local storage: every hot-path increment
    is a plain store on the current domain's record, with no lock and no
    allocation.  Work shipped to other domains ({!Depend.Par.map}) runs
    on a fresh record that is folded back with {!merge_into}, so a
    sharded run reports the serial run's totals. *)

type row = {
  mutable attempts : int;  (** times the tier was consulted *)
  mutable decides : int;  (** times it returned a definite answer *)
  mutable elapsed : float;  (** seconds spent inside the tier *)
}

type t = {
  (* governance: one query per outermost {!Budget.run} *)
  mutable queries : int;
  mutable gave_up_fuel : int;
  mutable gave_up_splinters : int;
  mutable gave_up_disjuncts : int;
  mutable gave_up_deadline : int;
  mutable gave_up_injected : int;
  mutable gave_up_overflow : int;
  mutable peak_fuel : int;
  mutable peak_splinters : int;
  mutable worst_label : string;
  mutable worst_fuel : int;
  (* solver hot paths *)
  mutable fm_eliminations : int;  (** variables eliminated by FM *)
  mutable fm_exact : int;  (** of which exact (incl. one-sided) *)
  mutable fm_split : int;  (** of which dark shadow + splinters *)
  mutable pruned_interval : int;
      (** constraints dropped by the interval screen *)
  (* decision tiers *)
  quick : row;
      (** the driver's structural section-4.5 screens, consulted before
          any solver query is built *)
  screen : row;
      (** always zero: no tier writes it.  Kept only because the
          end-to-end benchmark harness (bench/e2e) still reads
          [Portfolio.Stats.screen]; it goes with that reader. *)
  fast : row;  (** dark-shadow implication fast path *)
  complete : row;  (** complete Presburger procedure *)
  (* verdict memo traffic of this domain *)
  mutable memo_hits : int;
  mutable memo_misses : int;
}

val make : unit -> t
(** A fresh all-zero record. *)

val current : unit -> t
(** The current domain's record. *)

val reset : unit -> unit
(** Replace the current domain's record with a fresh one. *)

val exchange : t -> t
(** Install the given record as the current domain's and return the
    previous one: the scoping primitive behind {!Depend.Par.map}. *)

val merge_into : t -> t -> unit
(** [merge_into dst src]: fold [src] into [dst].  Counters and tier
    times add, peaks max, and the worst-query cell joins by (higher
    fuel, then least label).  The combine is commutative and
    associative, so per-domain records merge to the same totals in any
    order. *)

val note_worst : t -> fuel:int -> label:string -> unit
(** Join one query's fuel and label into the worst-query cell. *)

val gave_up_by_reason : t -> (string * int) list
(** Give-ups per reason, keyed by {!Budget.reason_to_string}: the one
    list every report (the [governance:] line, petitd's [gave_up]
    object) prints, in this order. *)

val gave_up : t -> int
(** Give-ups of every reason. *)

(** {1 Text renderers (CLI lines)} *)

val solver_summary : t -> string
(** The [solver:] line: FM eliminations and interval-pruned
    constraints. *)

val tiers_summary : t -> string
(** The [tiers (…)] line: attempts/decides of the quick screens, the
    fast path and the complete procedure, with times. *)

val governance_summary : t -> string
(** The [governance:] line: queries, give-ups by reason, peaks and the
    worst query. *)

(** Ablation switches and counters for the solver's hot paths (DESIGN.md
    section 9).  Every gated transform is equivalence-preserving: flipping
    a switch changes time, never results. *)

val order : bool ref
(** Pugh's elimination-variable ordering heuristic (exact eliminations
    first, then the smallest lower-bounds x upper-bounds product).  Off:
    the first eliminable variable in id order. *)

val redundancy : bool ref
(** Interval-subsumption pruning in {!Problem.simplify}. *)

val hashcons : bool ref
(** Cached hashes / canonical keys on expressions, cached normalization
    on constraints, and memo-key serialization caches. *)

val set : order:bool -> redundancy:bool -> hashcons:bool -> unit

val all_on : unit -> unit
(** All three switches on (the production configuration). *)

module Stats : sig
  type t = {
    mutable fm_eliminations : int;
    mutable fm_exact : int;
    mutable fm_split : int;
    mutable pruned_interval : int;
  }

  val make : unit -> t

  val current : unit -> t
  (** The current domain's counter record (hot-path increments are
      plain stores; cross-domain totals come from {!merge_into}). *)

  val reset : unit -> unit

  val exchange : t -> t
  (** Swap the current domain's record, returning the previous one. *)

  val merge_into : t -> t -> unit
  (** Fold [src] counters into [dst] (all sums — commutative). *)

  val summary : unit -> string
  (** One human-readable line for CLI output (current domain). *)
end

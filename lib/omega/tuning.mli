(** Counters for the solver's hot paths (DESIGN.md section 9): how many
    variables Fourier-Motzkin eliminated, exactly or by splitting, and
    how many constraints the interval screen dropped. *)

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

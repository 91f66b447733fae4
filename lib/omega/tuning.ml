(* Old name of the solver counters; see tuning.mli. *)

module Stats = Metrics

(** {!Metrics} under its old name.  Kept only because the end-to-end
    benchmark harness (bench/e2e) still reads [Tuning.Stats];
    everything else uses {!Metrics}. *)

module Stats = Metrics

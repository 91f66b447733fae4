(** Bytecode optimizer: the stage between {!Compile} and {!Vm}
    (DESIGN.md section 14).

    One bytecode-level pass runs here, gated behind an ablation flag in
    the style of [Omega.Tuning] (every optimizer pass is
    equivalence-preserving — flipping a flag changes time, never
    results, and the [speedup] bench enforces bit-identity over every
    flag subset):

    - {b superinstruction fusion} ({!superinst}): adjacent
      producer/consumer pairs on the corpus's hot decode chains
      collapse into single opcodes — address-compute + load/store
      ([MuladdLd], [AddiSt], ...), arithmetic + store ([AddSt], ...) —
      when the intermediate register is provably dead (a worklist walk
      over linear successors, forward branches and loop back-edges
      shows no other read can observe the value); counted-loop
      back-edges whose limit register has a unique [Li] definition
      take the immediate form ([LoopUpi]/[LoopDowni]).  Every fused
      memory opcode keeps the arena bounds check.

    The other two optimizer flags are consumed by [Xform.Restructure]
    (IR-level, dependence-licensed): {!restructure} gates loop fusion,
    {!writekill} gates redundant-store deletion.  They live here so one
    module governs the whole optimizer surface. *)

(** {1 Flags} *)

val restructure : bool ref
(** Loop fusion in [Xform.Restructure], licensed by the dependences
    that cross the two loop bodies. *)

val superinst : bool ref
(** Superinstruction fusion + immediate-limit loop back-edges. *)

val writekill : bool ref
(** Deletion of stores provably overwritten before any use
    ([Xform.Restructure], justified by [Core.Analyses.terminates]). *)

val set : restructure:bool -> superinst:bool -> writekill:bool -> unit

val all_on : unit -> unit
(** The production configuration. *)

val all_off : unit -> unit
(** The unoptimized baseline. *)

val flags : unit -> (string * bool ref) list
(** The three switches with their artifact names, in canonical order
    (restructure, superinst, writekill). *)

(** {1 Reports} *)

type report = {
  r_elided : int;
      (** always [0]: no pass elides bounds checks.  Kept because
          [bench/e2e] reads it for its per-layer [elided] count. *)
  r_fused : int;  (** instructions eliminated by superinstruction fusion *)
  r_loopi : int;  (** loop back-edges rewritten to immediate limits *)
}

(** {1 Entry points} *)

val optimize : Compile.unit_ -> Compile.unit_ * report
(** Apply the enabled bytecode pass ({!superinst}).  Registers, regions
    and the arena layout are untouched — only instructions change, so
    [Vm.equal_state] remains valid between optimized and unoptimized
    runs of the same compile. *)

(** {1 Inspection} *)

val opcode_name : Compile.instr -> string
(** Short mnemonic, the key of {!static_counts}. *)

val static_counts : Compile.unit_ -> (string * int) list
(** Static per-opcode instruction counts over the main code and every
    region body, sorted descending. *)

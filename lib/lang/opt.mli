(** Bytecode optimizer: the stage between {!Compile} and {!Vm}
    (DESIGN.md section 14).

    One bytecode-level pass runs here, always.  It is
    equivalence-preserving: the [speedup] bench checks that the
    optimized VM reproduces the interpreter's final memory, and its
    unoptimized baseline is the compiled unit before {!optimize}.

    - {b superinstruction fusion}: adjacent producer/consumer pairs on
      the corpus's hot decode chains collapse into single opcodes — address-compute + load/store
      ([MuladdLd], [AddiSt], ...), arithmetic + store ([AddSt], ...) —
      when the intermediate register is provably dead (a worklist walk
      over linear successors, forward branches and loop back-edges
      shows no other read can observe the value); counted-loop
      back-edges whose limit register has a unique [Li] definition
      take the immediate form ([LoopUpi]/[LoopDowni]).  Every fused
      memory opcode keeps the arena bounds check.

    The IR-level, dependence-licensed half of the optimizer (loop
    fusion, then redundant-store deletion) is [Xform.Restructure]. *)

(** {1 Reports} *)

type report = {
  r_elided : int;
      (** always [0]: no pass elides bounds checks.  Kept because
          [bench/e2e] reads it for its per-layer [elided] count. *)
  r_fused : int;  (** instructions eliminated by superinstruction fusion *)
  r_loopi : int;  (** loop back-edges rewritten to immediate limits *)
}

(** {1 Entry points} *)

val all_on : unit -> unit
(** Does nothing: the optimizer has one configuration, every pass on.
    Kept only because [bench/e2e] calls it. *)

val optimize : Compile.unit_ -> Compile.unit_ * report
(** Apply superinstruction fusion.  Registers, regions and the memory
    layout (arena and sparse tables) are untouched — only instructions
    change, so
    [Vm.equal_state] remains valid between optimized and unoptimized
    runs of the same compile. *)

(** {1 Inspection} *)

val static_counts : Compile.unit_ -> (string * int) list
(** Static per-opcode instruction counts over the main code and every
    region body, sorted descending. *)

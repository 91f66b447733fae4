(** Dependence-licensed source restructuring: the IR-level half of the
    optimizer (DESIGN.md section 14; the bytecode half is [Lang.Opt]).

    Two transformations, each licensed by the dependence graph the
    Omega-test driver produces — never by syntax alone:

    - {b loop fusion} (gated by [Opt.restructure]): adjacent sibling
      loops with syntactically equal bounds and step fuse after
      alpha-renaming the second loop's variable.  Legality is checked on
      the {e trial-fused} program ({!fusion_legal}): the fusion is
      refused if any dependence (any kind, live or dead) runs from a
      second-loop statement to a first-loop statement — exactly the
      dependences the original order forbids to reverse.  Only the
      access pairs crossing the two bodies are analyzed, not the whole
      trial program.
    - {b write-kill deletion} (gated by [Opt.writekill]): an assignment
      is deleted when every flow dependence out of its write is dead
      (no read observes its values) and some other write {e terminates}
      it ([Analyses.terminates], section 4.3 — every cell it writes is
      overwritten later), so the final store is unchanged.

    A transformation is only committed with the dependences of the
    program it produces as witness, and each distinct program is
    analyzed once: one graph per program that write-kill examines (the
    guard graph of the input is write-kill's first when fusion changed
    nothing), and fusion checked on its crossing pairs.  Statements are
    pre-labeled so identities survive restructuring. *)

type report = {
  x_fused : int;  (** loop pairs fused *)
  x_interchanged : int;
      (** always [0]: loop interchange is gone.  Kept because
          [bench/e2e] reads it for its per-layer [interchanged] count. *)
  x_killed : int;  (** assignments deleted *)
}

val empty_report : report

val prelabel : Ast.program -> Ast.program
(** Give every unlabeled assignment an explicit fresh label (so the
    labels survive restructuring instead of being renumbered by
    [Sema]).  Idempotent; user labels are kept. *)

val optimize : Ast.program -> Ast.program * report
(** Apply the enabled passes, fusion then write-kill, each to a
    fixpoint with bounded rounds.  A program neither pass changes costs
    one [Graph.build].  With no pass enabled the prelabeled program is
    returned without any analysis; a program [Sema] cannot analyze is
    returned prelabeled and otherwise unchanged.  The result is always observably equivalent: same
    interpreter trace modulo deleted dead stores, same final store. *)

val fusion_legal : Ast.program -> ls1:string list -> ls2:string list -> bool
(** The fusion test, exposed for the unit tests: given the trial-fused
    program and the labels of the first ([ls1]) and second ([ls2])
    loop's statements, is there no dependence from a second-body access
    to a first-body access?  Asks [Deps.compute] only for the crossing
    pairs on the same array — flow (write to read), anti (read to
    write), output (write to write) — which equals "no edge of
    [Graph.build] from [ls2] to [ls1]".  [false] when the analysis
    raises. *)

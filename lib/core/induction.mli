(** Induction-variable recognition for scalar accumulators (section 5,
    Example 11 / loop s141 of the vectorizing-compiler study).

    A scalar (zero-dimensional array) written only by [x := x + e] with
    [e >= 1] provable under the write's loop bounds and assumptions is a
    strictly increasing accumulator; feeding that fact to the symbolic
    dependence machinery (as {!Symbolic.array_property.Accumulator})
    eliminates the loop-carried dependences on arrays it subscripts. *)

type accumulator = {
  scalar : string;
  increment : Ir.access;  (** the write access of the [x := x + e] statement *)
}

val detect : Depctx.t -> accumulator list
(** All strictly increasing accumulators of the program. *)

(** Building Omega problems from IR accesses.

    An {!inst} is an instantiation of an access: integer variables for
    its loop counters (the iteration vector), plus variables for the
    value and arguments of each opaque (non-affine) term it mentions.
    Opaque value variables are the "different symbolic variable for each
    appearance" of section 5.

    {!create} mints every instance once, in tag-major order: the
    symbolic constants, then the [I] instance of every access by
    [acc_id], then every [J], then every [K].  A query built from
    instances of distinct tags therefore sees them in the id order
    i < j < k, below every variable it mints itself, exactly as if it
    had minted fresh instances, so canonical memo keys and solver
    choices do not depend on which queries ran before.

    {!create} also resolves the program's {!Memo.recipes} table, under
    an exact fingerprint (the [Marshal] image) of the IR fields a
    context reads: [symbolics], [arrays], [assumes] and [accesses].  A
    query's memo key is a function of those fields and its {!recipe},
    so a warm query finds its key with {!Memo.keyed} and builds no
    problem.

    A context is read-only after {!create} and may be shared across
    domains. *)

open Omega

type tag = I | J | K
(** Which instance of an access: [I], [J] and [K] prefix the variable
    names and order the ids, [I] lowest. *)

type entry
(** An instance with its prebuilt default domain. *)

type t = private {
  prog : Ir.program;
  syms : (string * Var.t) list;  (** symbolic constants *)
  ranges : (string * (Linexpr.t * Linexpr.t) list) list;
      (** declared array ranges over the symbolic constants *)
  entries : entry array array;  (** by tag, then by [acc_id] *)
  recipes : Memo.recipes;  (** the program's recipe table *)
}

type inst = private {
  access : Ir.access;
  tag : tag;
  ivars : Var.t array;  (** iteration variables, outermost first *)
  opq_vals : (int * Var.t) list;  (** opaque id -> value variable *)
  opq_args : (int * Var.t list) list;  (** opaque id -> argument variables *)
}

val create : Ir.program -> t

val sym_var : t -> string -> Var.t
(** @raise Invalid_argument on an undeclared symbolic constant. *)

val instantiate : t -> Ir.access -> tag:tag -> inst
(** The [tag] instance of an access of the context's program, minted by
    {!create}: every call returns the physically same instance.
    @raise Invalid_argument on an access of another program. *)

val domain : ?in_bounds:bool -> t -> inst -> Constr.t list
(** [i in \[A\]]: loop bounds of the nest, defining constraints of opaque
    arguments, and (with [in_bounds]) in-bounds assertions for subscripts
    and index-array values/arguments.  The default list (no [in_bounds])
    is built by {!create} beside the instance, and every call returns
    that same list; the in-bounds assertions are appended per call.
    @raise Zint.Overflow when a coefficient overflowed while it was
    built.
    @raise Invalid_argument on an instance of another context. *)

val subs_equal : t -> inst -> inst -> Constr.t list
(** The two instances touch the same array element. *)

val assumes : t -> Constr.t list
(** User assumptions, over the symbolic constants. *)

val levels : Ir.access -> Ir.access -> int list
(** The carried levels of [A(i) << B(j)], without their constraints:
    [1 .. common loops], then [0], the loop-independent case, only when
    [A] is textually before [B]. *)

val ordering : inst -> inst -> int -> Constr.t list
(** [ordering a b l]: the conjunction of [A(i) << B(j)] carried at
    level [l] of {!levels}: equal counters in the loops outside [l] and
    [i_l < j_l]; at level [0], equal counters in every common loop. *)

val order_before : inst -> inst -> (int * Constr.t list) list
(** [A(i) << B(j)] as a disjunction: each level of {!levels} with its
    {!ordering}. *)

val recipe :
  t ->
  query:string ->
  in_bounds:bool ->
  ?levels:int list list ->
  ?dists:(int option * int option) list ->
  Ir.access list ->
  Memo.recipe
(** The recipe of a query of this context over the given accesses.
    @raise Invalid_argument on an access of another program. *)

val inst_vars : inst -> Var.t list
(** All variables of an instantiation, for quantification. *)

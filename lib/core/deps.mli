(** Standard (memory-based) dependence computation: for an ordered pair
    of accesses to the same array, decide whether a dependence exists and
    summarize it with direction/distance vectors, one analysis per
    carried level. *)

open Omega

type kind = Flow | Anti | Output

val kind_to_string : kind -> string

type dep = {
  src : Ir.access;
  dst : Ir.access;
  kind : kind;
  vectors : Dirvec.t list;  (** forward vectors (possibly several) *)
  levels : int list;  (** satisfiable carried levels; 0 = loop-independent *)
  assumed : bool;
      (** some level's analysis blew its budget: the dependence is
          (partly) assumed rather than computed, and elimination must
          leave it alone (a kill/cover proof against it may be
          vacuous) *)
}

type pair = {
  ctx : Depctx.t;
  a : Depctx.inst;
  b : Depctx.inst;
  base : (Problem.t, Omega.Budget.reason) result;
      (** domains, subscript equality, assumptions, distance-variable
          definitions; no ordering.  [Error Overflow] when a coefficient
          overflowed while it was built: every query of the pair gives
          up. *)
  dvars : Var.t array;  (** one distance variable per common loop *)
  common : int;
}

val make_pair : ?in_bounds:bool -> Depctx.t -> Ir.access -> Ir.access -> pair

val levels_key :
  ?fix:Constr.t list ->
  Problem.t ->
  (int * Constr.t list) list ->
  evars:Var.t list ->
  string
(** [levels_key ~fix base levels ~evars]: the {!Memo} key of the
    per-level vectors of a pair with base problem [base] under the
    pinned-distance constraints [fix] — the {!Canon.key} of [base],
    [fix] and each level's ordering constraints, with the distinguished
    variables [evars] at canonical positions and the carried levels in
    the tag.  Alpha-equivalent
    pairs share a key only under a renaming that maps each
    distinguished variable to its counterpart, so permuting [evars]
    changes the key. *)

val level_vectors :
  label:string ->
  ?fix:Constr.t list ->
  pair ->
  (int * Constr.t list) list ->
  (Dirvec.t list, Omega.Budget.reason) result list
(** The vectors of each ordering level of the pair under the extra
    constraints [fix] (pinned distances): one governed query per level
    ([label] names it in telemetry).  This is the one per-level query
    family: {!compute}, {!exists} and {!Analyses.refine} all read it.
    With the {!Memo} active, the completed results of all levels are
    one entry keyed by {!levels_key} over the distance variables; a
    level that gives up returns [Error] and nothing is cached.  A pair
    whose base could not be built gives up every level, each counted as
    one governed query. *)

val vectors_by_level :
  pair ->
  (int * Constr.t list) list ->
  (Dirvec.t list, Omega.Budget.reason) result list ->
  (int * Dirvec.t list) list
(** [vectors_by_level p levels results]: each carried level of
    [levels] with its vectors from [results] (as {!level_vectors}
    returns them); a level that gave up gets
    {!Dirvec.conservative_of_level}, its weakest vectors. *)

val compute :
  ?in_bounds:bool ->
  Depctx.t ->
  src:Ir.access ->
  dst:Ir.access ->
  kind:kind ->
  dep option
(** The dependence from [src] to [dst], or [None] when none exists.
    The per-level vectors come from {!level_vectors}, so a pair whose
    problem is alpha-equivalent to one already solved (in this request
    or an earlier one) is answered from the {!Memo} without solver
    work; a level that gives up is assumed with its weakest vectors and
    the result is not cached. *)

val exists :
  ?in_bounds:bool -> Depctx.t -> src:Ir.access -> dst:Ir.access -> bool
(** Does any dependence from [src] to [dst] exist (no refinement)?  Some
    level of the pair's {!level_vectors} has vectors or gives up, so a
    pair {!compute} has already seen is answered from the {!Memo}
    without solver work. *)

val all : ?in_bounds:bool -> Depctx.t -> kind -> dep list
(** All dependences of one kind in the program. *)

val dep_to_string : dep -> string

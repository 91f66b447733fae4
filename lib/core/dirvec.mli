(** Direction / distance vectors (section 2.1).

    A vector has one entry per loop common to the two accesses.  Each
    entry summarizes the possible signs of the dependence distance in that
    loop, refined with an exact distance or a finite range when the
    constraints pin one down.  Sets of vectors are partially compressed:
    signs at a level merge only when the deeper analyses agree, so
    [{(+,+),(0,0)}] is not merged into the lossy [(0+,0+)] (the paper's
    example). *)

open Omega

type sign = Neg | Zero | Pos | NonNeg | NonPos | Any

type entry = {
  sign : sign;
  lo : int option;  (** distance lower bound, when known and finite *)
  hi : int option;
}

type t = entry list

val exact : int -> entry

val entry_to_string : entry -> string
(** ["0"], ["+"], ["0+"], ["*"], ["3"], ["0:1"], ... as in the paper. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

val entry_allows_zero : entry -> bool
val allows_all_zero : t -> bool
val is_loop_independent : t -> bool
(** Every entry is exactly zero. *)

val range_of : Problem.t -> Var.t -> int option * int option
(** Finite integer (min, max) of a variable subject to a problem, both
    read from one projection ({!Omega.bounds}). *)

val analyze : Problem.t -> Var.t array -> int -> t list
(** [analyze p dvars d] enumerates the vectors of levels [d..] of the
    distance variables under [p], with partial compression. *)

val conservative_of_level : int -> carried:int -> t list
(** The weakest vectors of one ordering level over [count] common loops:
    zero prefix, strictly positive carried level, [*] deeper.  A
    superset of anything {!vectors_of_level} can return - the sound
    fallback when the exact analysis gives up. *)

val vectors_of_level : Problem.t -> Var.t array -> carried:int -> t list
(** Vectors of one ordering level: levels before [carried] are exactly
    zero, level [carried] is strictly positive (as the per-level ordering
    constraints of the problem force), deeper levels analyzed freely.
    A satisfiable problem is projected once, exactly, onto [dvars]; when
    that gives one piece, every sign test and distance range is asked
    of it instead of the full problem.  [carried = 0] means
    loop-independent. *)

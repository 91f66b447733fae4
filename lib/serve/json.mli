(** Minimal JSON values: the one serialization path shared by the wire
    protocol, the CLI [--json] modes and every bench artifact, so
    escaping and number formatting are decided exactly once.

    Numbers: integers stay [Int]; floats print with the shortest
    [%.12g]/[%.17g] representation that parses back to the same value,
    so emit-then-parse is the identity on finite floats.  Non-finite
    floats have no JSON spelling and emit as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val pretty : t -> string
(** Two-space indented rendering, for human-facing [--json] output. *)

val parse : ?max_depth:int -> string -> (t, string) result
(** Total parser: never raises, rejects trailing garbage, and bounds
    nesting at [max_depth] (default 512) so adversarial frames cannot
    blow the stack. *)

val equal : t -> t -> bool
(** Structural equality; floats compare with {!Float.equal} (bit-level
    up to NaN folding), object fields in order. *)

(** {1 Accessors} (for clients decoding responses) *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on a missing field or a non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_list_opt : t -> t list option

(** Variables of Omega problems.

    Three kinds mirror the roles in the paper: [Input] for iteration and
    other named problem variables, [Sym] for symbolic constants (the [Sym]
    set of the paper's notation), and [Wild] for existentially quantified
    wildcards introduced by exact equality elimination and splintering
    (never visible to clients). *)

type kind = Input | Sym | Wild

type t

val fresh : ?kind:kind -> string -> t
(** A fresh variable (identity is by allocation, not by name).
    Allocation is domain-local and lock-free: each domain draws ids
    from its own disjoint slot of the id space (the main domain owns
    slot 0), and ids increase in allocation order within a domain. *)

val fresh_wild : unit -> t

val id : t -> int
val name : t -> string
val kind : t -> kind
val is_wild : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

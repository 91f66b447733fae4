(** Canonical, allocation-independent serialization of solver queries.

    Variables are renumbered by first occurrence in a fixed traversal
    order and tagged with their kind, so alpha-equivalent queries whose
    variables stand in the same relative id order (which
    {!Depctx.create}'s tag-major instances guarantee) serialize
    identically no matter which domain (hence which id slot) minted
    their variables.  Used as the
    {!Analyses.Memo} key — which is what makes cached verdicts shareable
    across domains — and as the content-derived fault-injection key. *)

open Omega

val key :
  ?tag:string ->
  hyp:Constr.t list ->
  Problem.t list ->
  evars:Var.t list ->
  Problem.t list ->
  string
(** [key ?tag ~hyp lhs ~evars rhs]: canonical form of the validity query
    [hyp => (lhs => exists evars. rhs)], optionally prefixed by
    [tag ^ ":"]. *)

val of_problems : ?tag:string -> Problem.t list -> string
(** Canonical form of a bare problem list (for fault keys of
    non-implication queries). *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [n] in decimal ([string_of_int n]) without
    allocating. *)

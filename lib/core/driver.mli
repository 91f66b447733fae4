(** The overall section-4 procedure: classify every apparent flow
    dependence of a program as live or dead (killed / covered), with
    refinement and covering annotations - the data of Figures 3 and 4.

    Output dependences are computed first (they gate the kill and
    refinement tests); then, per array read: compute the apparent flow
    dependences, refine each, check covering; a loop-independent covering
    dependence eliminates dependences from writes that run completely
    before it without any Omega call; the rest are checked pairwise for
    killing, screened by the quick tests of section 4.5. *)

type dead_reason = Killed of Ir.access | Covered of Ir.access

type flow_result = {
  dep : Deps.dep;
  refined : Dirvec.t list option;
      (** refined vectors, when refinement changed them *)
  covers : bool;  (** does this dependence cover its read? *)
  dead : dead_reason option;
}

type result = {
  ctx : Depctx.t;
  flows : flow_result list;
  antis : Deps.dep list;
  outputs : Deps.dep list;
}

val analyze : ?in_bounds:bool -> Ir.program -> result
(** The section 4.5 quick screens always run first; each counts in the
    [quick] tier row of {!Omega.Metrics}. *)

val classify_kind :
  ?in_bounds:bool -> Ir.program -> Deps.kind -> flow_result list
(** Live/dead classification of the given dependence kind.  [Flow] is
    {!analyze}'s pipeline; [Output]/[Anti] apply the pairwise kill test to
    storage dependences (an extension the paper describes but leaves
    unimplemented: an intervening write makes them transitive).  A
    standalone run: it computes the dependences of [kind] in a fresh
    context, then defers to {!classify_storage}.  Callers that already
    hold an {!analyze} result should call {!classify_storage} on its
    [antis]/[outputs] instead of computing them a second time. *)

val classify_storage :
  ?in_bounds:bool -> Depctx.t -> Deps.dep list -> flow_result list
(** [classify_storage ctx deps]: the kill step of {!classify_kind} over
    [deps], all the anti or all the output dependences of
    [ctx]'s program (as {!analyze} returns them in [antis]/[outputs]).
    Results come grouped by destination write, in write order, and
    within a destination in the order of [deps] — the order
    {!classify_kind} returns.  [Deps.compute] is a pure function of its
    query, so the results equal a standalone {!classify_kind}. *)

(** {1 Quick screens} (exposed for the benches) *)

val refinement_possible : Deps.dep list -> Ir.access -> bool
val cover_possible : Dirvec.t list -> bool
val output_exists : Deps.dep list -> Ir.access -> Ir.access -> bool

val cover_eliminates :
  cover_vectors:Dirvec.t list -> Ir.access -> Ir.access -> Ir.access -> bool
(** [cover_eliminates ~cover_vectors a b w]: can the covering dependence
    [a -> b] eliminate the dependence from write [w] to [b] without a
    kill test?  Requires the cover to be loop-independent, [w] textually
    before [a], and the loops [w] shares with [a] or [b] to be shared by
    [a] and [b]. *)

(** {1 Rendering} *)

val status_string : flow_result -> string
val vectors_string : flow_result -> string
val live_flows : result -> flow_result list
val dead_flows : result -> flow_result list

val render_flow_table : flow_result list -> string
(** The Figure 3 / Figure 4 table format. *)

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
    {!analyze}'s pipeline; [Output]/[Anti] apply its pairwise kill step
    to storage dependences (an extension the paper describes but leaves
    unimplemented: an intervening write makes them transitive).  A
    standalone run: it computes the output dependences (and the anti
    ones for [Anti]) in a fresh context, then defers to
    {!classify_storage}.  Callers that already hold an {!analyze} result
    should call {!classify_storage} on its [antis]/[outputs] instead of
    computing them a second time. *)

val classify_storage :
  ?in_bounds:bool ->
  Depctx.t ->
  outputs:Deps.dep list ->
  Deps.dep list ->
  flow_result list
(** [classify_storage ctx ~outputs deps]: {!analyze}'s kill step over
    [deps], all the anti or all the output dependences of [ctx]'s
    program, given all its output dependences [outputs] (as {!analyze}
    returns them in [antis]/[outputs]).  Both lists must be computed in
    [ctx] under the same [in_bounds]: the kill queries range over their
    [levels] ({!Analyses.kills}).  The killers of a dependence
    into a write are the other writes with an output dependence into
    it, in write order; the section-4.5 screen (a dependence from the
    source to the killer) reads [deps].  Results come grouped by
    destination write, in write order, and within a destination in the
    order of [deps] — the order {!classify_kind} returns.
    [Deps.compute] is a pure function of its query, so the results
    equal a standalone {!classify_kind}. *)

val extend :
  ?in_bounds:bool ->
  Depctx.t ->
  outputs:Deps.dep list ->
  src:Ir.access ->
  dst:Ir.access ->
  flow_result option
(** [extend ctx ~outputs ~src ~dst]: {!analyze}'s extended step for one
    write/read pair — the flow dependence from [src] to [dst] ([None]
    when there is none), refined when [src] has a self-output dependence
    in [outputs], and tested for covering [dst] when its vectors allow
    a cover.  Not yet classified: [dead] is [None].  The quick screens
    count as in {!analyze}. *)

(** {1 Quick screens} (exposed for the benches) *)

val refinement_possible : Deps.dep list -> Ir.access -> bool
val cover_possible : Dirvec.t list -> bool

val dep_between : Deps.dep list -> Ir.access -> Ir.access -> Deps.dep option
(** [dep_between deps a b]: the dependence from [a] to [b] in [deps], if
    any.  The kill screen: killing the dependence [a -> c] with [b]
    needs one from [a] to [b], and the kill query ranges over its
    levels. *)

val cover_eliminates :
  cover_vectors:Dirvec.t list -> Ir.access -> Ir.access -> Ir.access -> bool
(** [cover_eliminates ~cover_vectors a b w]: can the covering dependence
    [a -> b] eliminate the dependence from write [w] to [b] without a
    kill test?  Requires the cover to be loop-independent, [w] textually
    before [a], and the loops [w] shares with [a] or [b] to be shared by
    [a] and [b]. *)

(** {1 Rendering} *)

val vectors : flow_result -> Dirvec.t list
(** The refined vectors when refinement changed them, else the
    dependence's own. *)

val status_string : flow_result -> string
val live_flows : result -> flow_result list
val dead_flows : result -> flow_result list

val render_flow_table : flow_result list -> string
(** The Figure 3 / Figure 4 table format. *)

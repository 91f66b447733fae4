(** The analysis service behind petitd: turns decoded protocol requests
    into responses over a shared, long-lived solver state.

    The Omega solver stack meters work through ambient, domain-local
    state (see {!Omega.Budget}), so requests need no global solver lock:
    each request's solver work runs as one task on a pool of worker
    domains, and sessions landing on distinct workers analyze
    concurrently.  The verdict cache ({!Depend.Analyses.Memo}) persists
    across requests and clients — that sharing is the daemon's whole
    point — and every response reports its telemetry, both lifetime and
    per-request (attributed per worker domain, so concurrent sessions
    don't pollute each other's figures).

    Per-client fairness is budget governance, not preemption: each
    request's limits are clamped to the service quota
    ({!Protocol.clamp_budget}), so a pathological query burns its own
    budget, degrades to [Gave_up] conservatively, and the next request
    (any tenant's) starts with a fresh meter. *)

type t

val create :
  ?memo_capacity:int ->
  ?quota:Omega.Budget.limits ->
  ?domains:int ->
  ?max_inflight:int ->
  unit ->
  t
(** Fresh service state: resets the verdict cache (and bounds it at
    [memo_capacity] when given); [quota] is the per-request budget
    ceiling (default {!Omega.Budget.default}); [domains] sizes the
    worker-domain pool that runs solver work (default 1 — requests are
    then still serialized, but off the session threads).

    [max_inflight] is the admission gate: at most that many work-bearing
    requests solving (or queued on the pool) at once; beyond it requests
    are shed with a typed [Overloaded] error carrying a [retry_after_ms]
    hint instead of queueing unboundedly (default: unbounded).  Requests
    carrying a [deadline_ms] have the remainder folded into the solver's
    wall deadline, so a request admitted late gets a correspondingly
    smaller time budget; one whose deadline passed before any work could
    start is refused with [Gave_up]. *)

val quota : t -> Omega.Budget.limits

val domains : t -> int
(** Worker domains serving solver work. *)

val shutdown : t -> unit
(** Join the worker-domain pool.  Call once no request can arrive —
    the server does this after draining its sessions. *)

val handle :
  t -> peer:string -> id:int -> Protocol.request ->
  Protocol.response * [ `Continue | `Shutdown ]
(** Serve one request.  Never raises: program/problem errors and blown
    calculator budgets come back as protocol errors.  [`Shutdown] is
    returned exactly for a shutdown request (whose response still must
    be written). *)

val note_connect : t -> unit
val note_disconnect : t -> unit
(** Connection accounting for the stats payload; called by the server. *)

val note_shed_conn : t -> unit
(** A connection was refused by the server's connection cap. *)

val note_reaped : t -> unit
(** A stalled connection was closed by a read/write deadline. *)

(** {1 Deterministic payloads}

    Exposed so the CLI's [--json] mode and the serving bench's
    fresh-in-process cross-check build byte-identical answers through
    the very functions the daemon uses.  Both run the analysis
    themselves; they only read ambient budget limits, so wrap them in
    {!Omega.Budget.with_limits} to reproduce a request's budget. *)

val analyze_payload : in_bounds:bool -> Lang.Ir.program -> Json.t
val parallelize_payload : in_bounds:bool -> Lang.Ir.program -> Json.t

val governance_fields : Omega.Metrics.t -> (string * Json.t) list
(** The governance counters of a metrics record as JSON object fields:
    queries, give-ups by reason, peaks and the worst query.  They are
    the [telemetry] objects of the robustness artifact and, followed by
    the backend name and the per-tier rows, the [governance] block
    petitd attaches to responses.  Not part of the deterministic
    payload: a warm cache legitimately answers with fewer solver
    queries than a cold one. *)

val memo_report : req_hits:int -> req_misses:int -> Protocol.memo_report
(** Lifetime memo counters paired with the given per-request deltas. *)

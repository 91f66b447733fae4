(** A fixed pool of worker domains executing queued thunks.

    This is the one domain pool in the tree: the parallel doall executor
    ({!Xform.Exec}), the sharded dependence analysis ({!Depend.Par}) and
    the petitd service ({!Serve.Service}) all dispatch through it.  A
    pool owns [workers] spawned domains; {!run_batch} enqueues a batch
    of thunks and blocks until every one of them has run, optionally
    having the calling domain participate by draining the queue itself.

    Tasks must expect to run on an arbitrary domain: anything they need
    from the submitter's domain-local state (solver worlds, budgets)
    must be captured explicitly — see {!Depend.Par} for the scoping
    discipline.  Exceptions raised by tasks never deadlock the pool: the
    batch completes, and the first exception re-raises in the caller of
    {!run_batch}. *)

type t

val create : workers:int -> t
(** Spawn [max 0 workers] worker domains (the pool is usable with zero
    workers: batches then run inline in the caller).
    @raise Invalid_argument when the runtime cannot spawn that many
    domains; the workers already spawned are joined first. *)

val workers : t -> int
(** Number of spawned worker domains. *)

val on_worker : unit -> bool
(** True on a domain spawned by any pool ({!run_batch} from inside a
    task runs its batch inline rather than re-entering the queue, so
    nested parallelism cannot deadlock). *)

val run_batch : ?participate:bool -> t -> (unit -> unit) list -> unit
(** Run every thunk to completion and return.  With [participate]
    (default [true]) the calling domain drains queued tasks alongside
    the workers; with [~participate:false] it only blocks — use this
    when the caller's domain-local state must not be visible to the
    tasks (e.g. petitd session threads, which all share the main
    domain).  Re-raises the first exception any thunk raised, after the
    whole batch has drained. *)

val shutdown : t -> unit
(** Drain remaining tasks, then join the worker domains.  The pool is
    unusable afterwards; idempotent. *)

(** Sharding solver work across domains.

    {!map} runs an array of independent items over a process-wide pool
    of worker domains, keeping result order; the calling domain
    participates.  Verdicts are bit-identical to the serial run: the
    instances an item's queries share were minted by
    {!Depctx.create} on the calling domain, whose id slot precedes every
    worker's, and each item's own variables are minted after them by
    one domain, so every query sees the same relative id order as
    serially; the shared {!Analyses.Memo} is keyed canonically.  Each task runs under the submitter's budget limits
    with a fresh {!Omega.Metrics} record, merged into the submitter's
    record when the task ends, so sharded counters equal serial ones.
    Two domains asking one fresh memo key do not both compute it: the
    second waits for the first and replays its entry.

    Width defaults to 1, in which case {!map} is exactly [Array.map]
    with no pool and no scoping. *)

val set_domains : int -> unit
(** Number of domains (including the caller) future {!map} calls use;
    clamped to at least 1. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map.  Runs inline when width is 1, the
    array is short, or the caller is already a pool worker (nested
    parallelism).  Re-raises the first exception any item raised after
    the batch drains. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list

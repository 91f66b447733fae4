(** Sharding solver work across domains.

    {!map} runs an array of independent items over a process-wide pool
    of worker domains, keeping result order; the calling domain
    participates.  Verdicts are bit-identical to the serial run: each
    item's variables are minted by one domain in the same relative
    order as serially, and the shared {!Analyses.Memo} is keyed
    canonically.  Each task runs under the submitter's budget limits
    with a fresh {!Omega.Metrics} record, merged into the submitter's
    record when the task ends, so sharded counters equal serial ones,
    except where two domains race a fresh memo key: both compute the
    same verdict, so the memo hit/miss counts and the solver work
    behind the duplicated miss may differ run to run.

    Width defaults to 1, in which case {!map} is exactly [Array.map]
    with no pool and no scoping. *)

val set_domains : int -> unit
(** Number of domains (including the caller) future {!map} calls use;
    clamped to at least 1. *)

val domains : unit -> int

val map : ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map.  Runs inline when width is 1, the
    array is short, or the caller is already a pool worker (nested
    parallelism).  Re-raises the first exception any item raised after
    the batch drains. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list

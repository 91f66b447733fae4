(** Executor for compiled petit bytecode ({!Compile}).

    A VM instance owns the flat arena and the register file.  [run]
    interprets the main code; when it meets a {!Compile.Region}
    instruction it offers the region to the [on_region] callback — the
    hook through which [Xform.Exec] schedules chunks over its domain
    pool.  A callback that declines (or its absence) runs the region's
    iterations serially in place, so the VM itself stays free of any
    threading.

    Parallel execution happens through {e chunks}: a chunk carries a
    private copy of the register file plus a scratch {e slab} holding
    the region's privatized arrays, copied in from the arena on creation
    (the compiled copy-in prologue of first-read-before-write
    iterations).  Writes through [StS] mark a written-bitmap;
    {!merge_chunk} folds exactly the written cells back into the arena,
    so merging chunks in increasing iteration order reproduces
    sequential last-writer finalization.  Non-privatized arrays are read
    and written directly in the shared arena — sound because doall
    legality leaves them no cross-iteration memory conflicts. *)

type t

val create : ?init:(string -> int list -> int) -> Compile.unit_ -> t
(** Fresh VM: arena cells filled from [init] (default all zero),
    registers zeroed. *)

val unit_ : t -> Compile.unit_
val arena : t -> int array

val run :
  ?on_region:(t -> Compile.region -> lo:int -> hi:int -> bool) -> t -> unit
(** Interpret the main code to [Halt].  [on_region] is called with the
    evaluated bounds of each dynamic region entry; returning [true]
    means the callback executed the whole region (e.g. in parallel),
    [false] falls back to {!run_region_serial}.
    @raise Invalid_argument on an arena access outside [[0, arena)]:
    every arena opcode is bounds-checked, and the failing store leaves
    the arena untouched. *)

val run_count : t -> int
(** Like {!run} with every region serial, returning the number of
    dynamically dispatched instructions.  A separate (slower) counting
    twin of the dispatch loop — use it to {e explain} measured speedups
    (the bench artifact's dynamic instruction counts), never to time. *)

val region_trip : Compile.region -> lo:int -> hi:int -> int
(** Number of iterations of a region instance. *)

val run_region_serial : t -> Compile.region -> lo:int -> hi:int -> unit
(** All iterations in order, on the shared arena ([rg_serial] body). *)

(** {1 Chunks} *)

type chunk

val make_chunk : ?copy_in:bool -> t -> Compile.region -> chunk
(** Private register-file copy + slab with privatized arrays copied in.
    Create only while the region's bounds registers are live (i.e.
    during the [on_region] callback).  [~copy_in:false] leaves the slab
    zeroed — {b testing only}, it breaks first-read-before-write
    iterations by design. *)

val run_chunk :
  t -> Compile.region -> chunk -> lo:int -> k0:int -> k1:int -> unit
(** Execute normalized iterations [k0, k1) of the region ([rg_par]
    body): iteration [k] runs with the loop variable at [lo + k*step].
    Safe to call from any domain; distinct chunks may run
    concurrently. *)

val merge_chunk : t -> Compile.region -> chunk -> unit
(** Fold the chunk's written slab cells back into the arena.  Merge
    chunks in increasing iteration order for last-writer semantics. *)

(** {1 Differential comparison} *)

type diff = (string * int list) * int option * int option
(** location, interpreter value (if any), VM value (if any) *)

val check_against :
  ?init:(string -> int list -> int) ->
  t ->
  ((string * int list) * int) list ->
  diff list
(** Compare the VM's final arena with an interpreter run's final state
    (as produced by [Xform.Exec.run_serial]): every written location
    must hold the same value, and every arena cell the interpreter
    never wrote must still hold its [init] value.  Returns the
    mismatches ([[]] = bit-identical). *)

val equal_state : t -> t -> bool
(** Arena equality between two VMs compiled from the same program and
    symbols (the layout is plan-independent). *)

val diff_string : diff list -> string

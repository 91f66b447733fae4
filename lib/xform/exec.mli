(** Parallel [doall] execution over OCaml 5 domains — the paper's payoff
    actually run: loops the analysis marks [doall] execute their
    iterations across a fixed domain pool, and the final array state
    must be bit-identical to serial execution (checked by the
    differential harness in [test/test_exec.ml] and by the [speedup]
    bench suite).

    Each parallel region cuts the loop's iteration range into chunks
    claimed dynamically by the pool.  Both executors below (the
    interpreter's and the compiled VM's) share one chunk scheduler: the
    first chunk to raise cancels the chunks not yet claimed, and the
    region is then re-run serially on the submitting thread.  A chunk executes against an
    overlay store: writes go to a chunk-private table, reads fall
    through to the (frozen) global state — the runtime {e copy-in} of a
    privatized array's first-read-before-written elements.  After the
    region the chunk tables merge back in iteration order, giving each
    element its sequentially-last writer ({e finalization}). *)

(** {1 Plans} *)

type side = Std | Ext

type plan = {
  pl_side : side;
  pl_doall : (int * string list) list;
      (** loop AST node of each legal doall -> arrays its verdict
          privatizes (always empty on the [Std] side) *)
}

val plan : side -> Parallel.verdict list -> plan
(** The loops one analysis side may run in parallel.  At execution time
    the {e outermost} dynamically-reached plan loops become parallel
    regions; plan loops nested inside them run serially within a
    chunk. *)

val doall_count : plan -> int

(** {1 Domain pool} *)

type pool

val create_pool : ?size:int -> unit -> pool
(** A fixed pool of [size] workers ([Domain.recommended_domain_count]
    by default, minimum 1): [size - 1] spawned domains plus the calling
    domain, which participates in every region. *)

val pool_size : pool -> int

val shutdown : pool -> unit
(** Park no more: join the spawned domains.  The pool is unusable
    afterwards. *)

val with_pool : ?size:int -> (pool -> 'a) -> 'a

(** {1 Execution} *)

type mem = (Interp.loc * int) list
(** Final array state: every written location with its value, sorted —
    directly comparable across executions ([init] supplies unwritten
    locations identically on all sides). *)

type stats = {
  x_domains : int;
  x_regions : int;  (** dynamic parallel-region entries *)
  x_chunks : int;  (** chunks executed across all regions *)
  x_inline : int;
      (** regions run serially because their static work estimate fell
          below the parallelism threshold (VM backend only) *)
  x_fallbacks : int;
      (** regions re-executed serially after a worker raised: the first
          exception is captured, the remaining chunks cancelled, the
          chunk-private state discarded, and the region re-run serially
          on the submitting thread *)
}

val run_serial :
  ?init:(string -> int list -> int) ->
  Ir.program ->
  syms:(string * int) list ->
  mem
(** The baseline: the program executed by {!Interp.exec_stmt} with a
    single hash-table store and no tracing. *)

val run_parallel :
  ?pool:pool ->
  ?init:(string -> int list -> int) ->
  ?no_copy_in:bool ->
  ?chunk_fault:(int -> unit) ->
  plan ->
  Ir.program ->
  syms:(string * int) list ->
  mem * stats
(** Execute with the plan's doall loops parallelized over the pool (a
    private pool is created and shut down when none is passed).
    Each region is cut into four chunks per worker for dynamic load
    balancing.  [no_copy_in] disables the global
    fall-through for privatized arrays — {b testing only}, it breaks
    first-read-before-write iterations by design.

    A worker exception never deadlocks the pool: the first exception is
    captured, remaining chunks are cancelled, the chunk overlays (which
    never touched the global store) are discarded, and the region is
    re-executed serially on the submitting thread ([x_fallbacks] counts
    these), so deterministic program faults re-raise there with exact
    serial semantics.  [chunk_fault] is a {b testing-only} hook called
    with each chunk index before the chunk runs; raising from it
    simulates a faulting worker.
    @raise Interp.Runtime_error as serial execution would. *)

(** {1 Compiled (VM) backend}

    The same execution model over bytecode and flat memory
    ({!Lang.Compile} / {!Lang.Vm}) instead of the interpreter and
    overlay hashtables: no boxing or [loc] allocation on the hot path.
    Chunk slabs subsume the overlay stores — copy-in is a blit prologue
    into the slab, finalization merges written slab cells back in chunk
    order.  Every program compiles: subscripts the compiler cannot
    bound (index arrays, scalars, opaque loop bounds) address a sparse
    per-array table, and a plan loop touching one runs serially, so
    regions and their chunks only ever see the arena and their slabs.
    {!Lang.Compile.Unsupported} is left for an unbound symbol. *)

val compile_plan : plan -> Ir.program -> syms:(string * int) list -> Compile.unit_
(** Compile with the plan's doall loops as parallel regions (except
    those whose bodies touch a sparse array, which stay serial).
    @raise Lang.Compile.Unsupported on an unbound symbol. *)

val run_serial_vm :
  ?init:(string -> int list -> int) ->
  Ir.program ->
  syms:(string * int) list ->
  Vm.t
(** Compile without a plan and run to completion on one domain. *)

val run_compiled_vm :
  ?pool:pool ->
  ?par_threshold:int ->
  ?init:(string -> int list -> int) ->
  ?no_copy_in:bool ->
  ?chunk_fault:(int -> unit) ->
  Compile.unit_ ->
  Vm.t * stats
(** Execute an already-compiled unit (fresh VM each call); regions
    dispatch over the pool as below.  This is the timed entry point of
    the [speedup] bench — compilation stays out of the measured run.
    On a worker fault the region's chunk slabs are discarded (they
    never merged into VM memory) and the VM runs the region serially in
    place, counted in [x_fallbacks].  [chunk_fault] as in
    {!run_parallel} — {b testing only}. *)

val run_parallel_vm :
  ?pool:pool ->
  ?par_threshold:int ->
  ?init:(string -> int list -> int) ->
  ?no_copy_in:bool ->
  ?chunk_fault:(int -> unit) ->
  plan ->
  Ir.program ->
  syms:(string * int) list ->
  Vm.t * stats
(** Execute compiled code with the plan's doall loops chunked over the
    pool.  A dynamic region whose static work estimate
    [trip * instructions-per-iteration] is below [par_threshold]
    (default 4096) runs serially in place, counted
    in [x_inline] — this is what keeps hundreds of tiny regions
    (example6, wavefront2) from re-synchronizing the pool.
    [no_copy_in] skips the slab copy-in blit — {b testing only}. *)

(** {1 Differential comparison} *)

val equal_mem : mem -> mem -> bool

val diff_mem :
  mem -> mem -> (Interp.loc * int option * int option) list
(** Locations whose values differ (or exist on one side only). *)

val diff_string : (Interp.loc * int option * int option) list -> string


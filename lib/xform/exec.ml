(* Parallel doall executor over OCaml 5 domains.

   Takes a plan derived from Parallel verdicts (which loops are legal
   doalls, which arrays each one privatizes) and runs the program with
   the chosen loops' iterations spread over a fixed domain pool.  The
   evaluation code is Interp's, reached through its pluggable store.

   Execution model of one parallel region (one dynamic instance of a
   plan doall loop):

   - the normalized iteration range is cut into contiguous chunks,
     claimed dynamically by the pool's workers through an atomic
     counter (so triangular inner work still balances).  One scheduler,
     [run_chunks], does this for both executors, this one and the
     compiled backend below, and both count iterations with
     [Vm.trip_count];
   - each chunk runs against an overlay store: writes land in a
     chunk-private table, reads check the private table first and fall
     through to the global store, which is frozen (read-only) for the
     duration of the region.  For privatized arrays the fall-through IS
     the runtime copy-in of first-read-before-write iterations; for
     every other array the analysis guarantees no iteration reads
     another iteration's write, so the overlay is a plain write buffer;
   - after the region, chunk tables merge into the global store in
     increasing iteration order, so each element ends with its
     sequentially-last writer's value (last-writer finalization).

   Soundness rests on the extended analysis: a read may cross chunks
   only along a live carried flow, which doall legality excludes.  The
   differential harness (test/test_exec.ml) checks the resulting final
   state bit-for-bit against serial execution on the whole corpus and
   on random programs. *)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type side = Std | Ext

type plan = {
  pl_side : side;
  pl_doall : (int * string list) list;
      (* doall loop AST node -> arrays its verdict privatizes *)
}

let plan side (vs : Parallel.verdict list) : plan =
  let doall (v : Parallel.verdict) =
    match side with
    | Std -> v.Parallel.v_std_doall
    | Ext -> v.Parallel.v_ext_doall
  in
  {
    pl_side = side;
    pl_doall =
      List.filter_map
        (fun (v : Parallel.verdict) ->
          if doall v then
            Some
              ( v.Parallel.v_loop.Graph.l_node,
                (* the standard analysis has no privatization story *)
                match side with
                | Std -> []
                | Ext ->
                  List.map
                    (fun p -> p.Privatize.p_array)
                    v.Parallel.v_private )
          else None)
        vs;
  }

let doall_count pl = List.length pl.pl_doall

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

(* A fixed pool of [size] execution slots: [size - 1] worker domains
   from the shared Taskpool machinery plus the calling domain, which
   participates in every region.  A region publishes [size] copies of a
   re-entrant job closure; copies claim chunks from an atomic counter,
   so a copy that runs late (or two copies draining on the same domain)
   just finds the counter exhausted and returns. *)

type pool = { p_size : int; p_tp : Taskpool.t }

let create_pool ?size () =
  let size =
    match size with
    | Some s -> max 1 s
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  { p_size = size; p_tp = Taskpool.create ~workers:(size - 1) }

let pool_size pool = pool.p_size

let shutdown pool = Taskpool.shutdown pool.p_tp

let with_pool ?size f =
  let pool = create_pool ?size () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Each region is cut into this many chunks per worker, for dynamic
   load balancing. *)
let chunks_per_worker = 4

let chunk_count pool niters = min niters (pool.p_size * chunks_per_worker)

(* The one chunk scheduler of both executors.  The [niters] normalized
   iterations of a region are cut into [chunk_count pool niters]
   contiguous chunks; [chunk c ~k0 ~k1] runs chunk [c], iterations
   [k0, k1).  Every pool slot (the calling domain included) claims
   chunks from an atomic counter.  The first exception cancels the
   chunks not yet claimed — a slot still drains the counter, so the
   pool never deadlocks — and the result says whether every chunk ran
   to completion.  Faults are never re-raised here: each executor
   discards its chunks' private state and re-runs a faulted region
   serially on the submitting thread. *)
let run_chunks pool niters chunk =
  let nchunks = chunk_count pool niters in
  let next = Atomic.make 0 and failed = Atomic.make false in
  let rec job () =
    let c = Atomic.fetch_and_add next 1 in
    if c < nchunks then begin
      (if not (Atomic.get failed) then
         try
           chunk c ~k0:(c * niters / nchunks) ~k1:((c + 1) * niters / nchunks)
         with _ -> Atomic.set failed true);
      job ()
    end
  in
  Taskpool.run_batch ~participate:true pool.p_tp
    (List.init pool.p_size (fun _ -> job));
  not (Atomic.get failed)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type mem = (Interp.loc * int) list

type stats = {
  x_domains : int;
  x_regions : int;  (* dynamic parallel-region entries *)
  x_chunks : int;  (* chunks executed across all regions *)
  x_inline : int;  (* regions run serially because they were under the
                      parallelism threshold (VM backend only) *)
  x_fallbacks : int;  (* regions re-run serially after a worker fault *)
}

let zero_init _ _ = 0

let final tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let run_serial ?(init = zero_init) (prog : Ir.program) ~syms : mem =
  let tbl = Hashtbl.create 256 in
  let env =
    Interp.make_env ~store:(Interp.hashtbl_store ~init tbl) ~syms
  in
  List.iter (Interp.exec_stmt env) prog.Ir.stmts;
  final tbl

let run_parallel ?pool ?(init = zero_init) ?(no_copy_in = false)
    ?(chunk_fault = fun _ -> ()) (pl : plan) (prog : Ir.program) ~syms :
    mem * stats =
  let owned, pool =
    match pool with Some p -> (None, p) | None ->
      let p = create_pool () in
      (Some p, p)
  in
  let global = Hashtbl.create 256 in
  let gstore = Interp.hashtbl_store ~init global in
  let regions = ref 0 and chunks = ref 0 and fallbacks = ref 0 in
  let genv = Interp.make_env ~store:gstore ~syms in
  (* one parallel region: the iterations of [var] in [l..h by step], with
     [body] run serially inside each iteration *)
  let parallel_region var l h step body privs =
    let niters = Vm.trip_count ~lo:l ~hi:h ~step in
    let nchunks = chunk_count pool niters in
    incr regions;
    chunks := !chunks + nchunks;
    let locals = Array.init nchunks (fun _ -> Hashtbl.create 64) in
    let outer = genv.Interp.e_loops in
    let process c ~k0 ~k1 =
      chunk_fault c;
      let local = locals.(c) in
      let ld loc =
        match Hashtbl.find_opt local loc with
        | Some v -> v
        | None ->
          (* fall-through to the frozen global state: runtime copy-in
             for privatized arrays.  [no_copy_in] exists only so the
             tests can show copy-in is load-bearing. *)
          if no_copy_in && List.mem (fst loc) privs then
            init (fst loc) (snd loc)
          else gstore.Interp.ld loc
      in
      let store =
        { Interp.ld; st = (fun loc v -> Hashtbl.replace local loc v) }
      in
      let cenv =
        { Interp.e_syms = genv.Interp.e_syms; e_loops = outer; e_mem = store }
      in
      for k = k0 to k1 - 1 do
        cenv.Interp.e_loops <- (var, (l + (k * step), k)) :: outer;
        List.iter (Interp.exec_stmt cenv) body
      done
    in
    if run_chunks pool niters process then
      (* last-writer finalization: chunks merge in iteration order, so a
         later chunk's write to an element overrides an earlier chunk's *)
      Array.iter
        (fun local ->
          Hashtbl.iter (fun k v -> Hashtbl.replace global k v) local)
        locals
    else begin
      (* A worker faulted.  The chunk overlays never touched the global
         store, so discard them wholesale and re-run the whole region
         serially against it: a deterministic program fault then
         re-raises here, on the submitting thread, at the exact
         iteration serial execution would reach — and a transient
         (injected) fault simply yields the serial result. *)
      incr fallbacks;
      for k = 0 to niters - 1 do
        genv.Interp.e_loops <- (var, (l + (k * step), k)) :: outer;
        List.iter (Interp.exec_stmt genv) body
      done;
      genv.Interp.e_loops <- outer
    end
  in
  let rec walk (s : Ir.istmt) =
    match s with
    | Ir.IAssign _ -> Interp.exec_stmt genv s
    | Ir.IFor { node_id; var; lo; hi; step; body; _ } -> (
      let l = Interp.eval_expr genv lo and h = Interp.eval_expr genv hi in
      match List.assoc_opt node_id pl.pl_doall with
      | Some privs when Vm.trip_count ~lo:l ~hi:h ~step > 1 ->
        parallel_region var l h step body privs
      | _ ->
        (* serial loop; inner plan doalls still become parallel regions *)
        let continue_ v = if step > 0 then v <= h else v >= h in
        let saved = genv.Interp.e_loops in
        let rec iterate v k =
          if continue_ v then begin
            genv.Interp.e_loops <- (var, (v, k)) :: saved;
            List.iter walk body;
            iterate (v + step) (k + 1)
          end
        in
        iterate l 0;
        genv.Interp.e_loops <- saved)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter shutdown owned)
    (fun () -> List.iter walk prog.Ir.stmts);
  ( final global,
    {
      x_domains = pool.p_size;
      x_regions = !regions;
      x_chunks = !chunks;
      x_inline = 0;
      x_fallbacks = !fallbacks;
    } )

(* ------------------------------------------------------------------ *)
(* Compiled (VM) backend                                               *)
(* ------------------------------------------------------------------ *)

(* The same execution model as [run_parallel], but over bytecode and
   flat memory (Lang.Compile / Lang.Vm) instead of the interpreter and
   overlay hashtables.  The VM surfaces each dynamic doall instance
   through its [on_region] callback, which hands it to [run_chunks] as
   above.  Chunk slabs subsume the overlay stores:
   copy-in is an [Array.blit] prologue, finalization merges written
   slab cells in chunk order.  Sparse arrays never reach a chunk: the
   compiler keeps every plan loop that touches one serial.

   [par_threshold] (satellite of the region-overhead pathology): a
   region whose static work estimate [trip * rg_cost] falls below the
   threshold is run serially in place by the VM — hundreds of tiny
   inner-loop regions (example6, wavefront2) then cost nothing but a
   compare, instead of a pool wake-up and join each. *)

let default_par_threshold = 4096

let compile_plan (pl : plan) (prog : Ir.program) ~syms =
  Compile.program ~plan:pl.pl_doall prog ~syms

let run_serial_vm ?init (prog : Ir.program) ~syms : Vm.t =
  let t = Vm.create ?init (Compile.program prog ~syms) in
  Vm.run t;
  t

let run_compiled_vm ?pool ?(par_threshold = default_par_threshold) ?init ?(no_copy_in = false)
    ?(chunk_fault = fun _ -> ()) (u : Compile.unit_) : Vm.t * stats =
  let owned, pool =
    match pool with
    | Some p -> (None, p)
    | None ->
      let p = create_pool () in
      (Some p, p)
  in
  let t = Vm.create ?init u in
  let regions = ref 0 and chunks = ref 0 and inline = ref 0 in
  let fallbacks = ref 0 in
  let on_region vt (r : Compile.region) ~lo ~hi =
    let niters = Vm.trip_count ~lo ~hi ~step:r.Compile.rg_step in
    if niters <= 1 || niters * max 1 r.Compile.rg_cost < par_threshold then begin
      if niters > 0 then incr inline;
      false (* the VM runs the region serially in place *)
    end
    else begin
      incr regions;
      let nchunks = chunk_count pool niters in
      chunks := !chunks + nchunks;
      let cks = Array.make nchunks None in
      let process c ~k0 ~k1 =
        chunk_fault c;
        let ck = Vm.make_chunk ~copy_in:(not no_copy_in) vt r in
        cks.(c) <- Some ck;
        Vm.run_chunk vt r ck ~lo ~k0 ~k1
      in
      if run_chunks pool niters process then begin
        (* last-writer finalization: merge in increasing iteration order *)
        Array.iter
          (function Some ck -> Vm.merge_chunk vt r ck | None -> ())
          cks;
        true
      end
      else begin
        (* A worker faulted.  The chunk slabs never merged into VM
           memory, so discard them and return [false]: the VM runs this
           region serially in place, re-raising any deterministic
           program fault on the submitting thread with exact serial
           semantics. *)
        incr fallbacks;
        false
      end
    end
  in
  Fun.protect
    ~finally:(fun () -> Option.iter shutdown owned)
    (fun () -> Vm.run ~on_region t);
  ( t,
    {
      x_domains = pool.p_size;
      x_regions = !regions;
      x_chunks = !chunks;
      x_inline = !inline;
      x_fallbacks = !fallbacks;
    } )

let run_parallel_vm ?pool ?par_threshold ?init ?no_copy_in ?chunk_fault
    (pl : plan) (prog : Ir.program) ~syms : Vm.t * stats =
  run_compiled_vm ?pool ?par_threshold ?init ?no_copy_in ?chunk_fault
    (compile_plan pl prog ~syms)

(* ------------------------------------------------------------------ *)
(* Differential comparison                                             *)
(* ------------------------------------------------------------------ *)

let equal_mem (a : mem) (b : mem) = a = b

let diff_mem (a : mem) (b : mem) =
  let rec go a b acc =
    match (a, b) with
    | [], [] -> List.rev acc
    | (l, v) :: a', [] -> go a' [] ((l, Some v, None) :: acc)
    | [], (l, v) :: b' -> go [] b' ((l, None, Some v) :: acc)
    | (la, va) :: a', (lb, vb) :: b' ->
      let c = compare la lb in
      if c = 0 then
        go a' b' (if va = vb then acc else (la, Some va, Some vb) :: acc)
      else if c < 0 then go a' b ((la, Some va, None) :: acc)
      else go a b' ((lb, None, Some vb) :: acc)
  in
  go a b []

let loc_string ((name, idx) : Interp.loc) =
  Printf.sprintf "%s(%s)" name (String.concat "," (List.map string_of_int idx))

let diff_string diffs =
  String.concat "; "
    (List.map
       (fun (l, a, b) ->
         let v = function Some x -> string_of_int x | None -> "_" in
         Printf.sprintf "%s: serial=%s parallel=%s" (loc_string l) (v a) (v b))
       diffs)

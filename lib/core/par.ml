(* Sharding solver work across domains.

   [map] fans an array of independent items over the process-wide worker
   pool: [domains ()] chunk-claiming tasks (the calling domain counts as
   one and participates) pull items off a shared atomic cursor, so load
   balances dynamically while the result array keeps input order.

   Each task carries the submitter's ambient solver state to whatever
   domain executes it: it runs under the submitter's budget limits
   ([Budget.scoped]) with a fresh [Metrics] record, and that record is
   folded into the submitter's with the commutative
   [Metrics.merge_into] under one lock when the task ends.  (The
   fault-injection configuration needs no capture: it is process-wide
   and immutable while parallel work is in flight, and the fault stream
   is keyed by query content, not by domain.)  Because the merge is
   commutative and every per-query quantity is deterministic, the merged
   counters equal the serial run's up to the memo-race caveat below.

   Verdicts are bit-identical to the serial run by construction: item
   results depend only on each item's own problems, whose variables are
   minted by one domain in the same relative order as serially (see
   Var), and the shared [Analyses.Memo] is keyed canonically so a hit
   from any domain replays the same deterministic verdict.  The only
   nondeterminism parallelism adds is *who computes*: two domains racing
   a fresh memo key both compute the same verdict, so memo hit/miss
   counts, and the solver work behind a duplicated miss, may differ run
   to run.

   The default width is 1: [map] is then exactly [Array.map], no pool,
   no scoping — existing single-domain behaviour, bit for bit. *)

open Omega

let width = ref 1
let set_domains n = width := max 1 n
let domains () = !width

let pool : Taskpool.t option ref = ref None

(* Grow-only shared pool; resized (never shrunk) when a wider map runs.
   Only the main domain mutates it (petitd worker tasks see
   [Taskpool.on_worker] and stay inline). *)
let ensure_pool workers =
  match !pool with
  | Some p when Taskpool.workers p >= workers -> p
  | prev ->
    (match prev with Some p -> Taskpool.shutdown p | None -> ());
    let p = Taskpool.create ~workers in
    pool := Some p;
    p

let map (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let w = min !width n in
  if w <= 1 || Taskpool.on_worker () then Array.map f xs
  else begin
    let p = ensure_pool (w - 1) in
    let out : 'b option array = Array.make n None in
    let next = Atomic.make 0 in
    let limits = Budget.current_limits () in
    let target = Metrics.current () in
    let lock = Mutex.create () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        out.(i) <- Some (f xs.(i));
        loop ()
      end
    in
    let task () =
      let mine = Metrics.make () in
      let saved = Metrics.exchange mine in
      Fun.protect
        ~finally:(fun () ->
          ignore (Metrics.exchange saved);
          Mutex.lock lock;
          Metrics.merge_into target mine;
          Mutex.unlock lock)
        (fun () -> Budget.scoped ~limits loop)
    in
    Taskpool.run_batch ~participate:true p (List.init w (fun _ -> task));
    Array.map
      (function Some v -> v | None -> assert false (* batch drained *))
      out
  end

let map_list f xs = Array.to_list (map f (Array.of_list xs))

(* A fixed pool of worker domains executing queued thunks.

   One mutex/condition pair guards the task queue; each batch carries
   its own mutex/condition so that concurrent [run_batch] callers (the
   petitd session threads) wait only on their own work.  Workers park on
   the queue condition and exit once [stop] is set and the queue has
   drained, so a shutdown never abandons an in-flight batch. *)

type batch = {
  b_lock : Mutex.t;
  b_done : Condition.t;
  mutable b_pending : int;
  mutable b_exn : (exn * Printexc.raw_backtrace) option;
}

type task = { t_run : unit -> unit; t_batch : batch }

type t = {
  lock : Mutex.t;
  work : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  n_workers : int;
}

let workers t = t.n_workers

(* Set for the lifetime of every pool worker domain (and around tasks a
   participating caller drains), so nested [run_batch] goes inline. *)
let worker_key = Domain.DLS.new_key (fun () -> false)
let on_worker () = Domain.DLS.get worker_key

let finish_task tk res =
  let b = tk.t_batch in
  Mutex.lock b.b_lock;
  (match res with
  | None -> ()
  | Some _ when b.b_exn <> None -> ()
  | Some _ -> b.b_exn <- res);
  b.b_pending <- b.b_pending - 1;
  if b.b_pending = 0 then Condition.broadcast b.b_done;
  Mutex.unlock b.b_lock

let exec_task tk =
  let res =
    try
      tk.t_run ();
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  finish_task tk res

let worker pool () =
  Domain.DLS.set worker_key true;
  let rec loop () =
    Mutex.lock pool.lock;
    let rec next () =
      match Queue.take_opt pool.queue with
      | Some tk ->
        Mutex.unlock pool.lock;
        Some tk
      | None ->
        if pool.stop then begin
          Mutex.unlock pool.lock;
          None
        end
        else begin
          Condition.wait pool.work pool.lock;
          next ()
        end
    in
    match next () with
    | Some tk ->
      exec_task tk;
      loop ()
    | None -> ()
  in
  loop ()

(* Inline fallback: used on worker domains (nested batches), on pools
   with no workers, and by shutdown-racing callers.  Mirrors the pool
   semantics: every thunk runs, first exception wins. *)
let run_inline thunks =
  let first = ref None in
  List.iter
    (fun f ->
      try f ()
      with e ->
        if !first = None then first := Some (e, Printexc.get_raw_backtrace ()))
    thunks;
  match !first with
  | None -> ()
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt

let run_batch ?(participate = true) t thunks =
  if thunks <> [] then
    if on_worker () || t.n_workers = 0 then run_inline thunks
    else begin
      let b =
        {
          b_lock = Mutex.create ();
          b_done = Condition.create ();
          b_pending = List.length thunks;
          b_exn = None;
        }
      in
      let tasks = List.map (fun f -> { t_run = f; t_batch = b }) thunks in
      Mutex.lock t.lock;
      if t.stop then begin
        (* racing a shutdown: don't enqueue work the workers may never
           see; run it here instead *)
        Mutex.unlock t.lock;
        run_inline thunks
      end
      else begin
        List.iter (fun tk -> Queue.add tk t.queue) tasks;
        Condition.broadcast t.work;
        Mutex.unlock t.lock;
        if participate then begin
          (* drain alongside the workers; tasks we pick up may belong to
             other batches, which only helps global progress *)
          Domain.DLS.set worker_key true;
          let rec drain () =
            Mutex.lock t.lock;
            match Queue.take_opt t.queue with
            | Some tk ->
              Mutex.unlock t.lock;
              exec_task tk;
              drain ()
            | None -> Mutex.unlock t.lock
          in
          Fun.protect ~finally:(fun () -> Domain.DLS.set worker_key false) drain
        end;
        Mutex.lock b.b_lock;
        while b.b_pending > 0 do
          Condition.wait b.b_done b.b_lock
        done;
        let exn = b.b_exn in
        Mutex.unlock b.b_lock;
        match exn with
        | None -> ()
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      end
    end

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

(* The runtime caps the number of live domains; a pool wider than that
   joins the workers it did spawn before reporting the width. *)
let create ~workers =
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
      n_workers = max 0 workers;
    }
  in
  (try
     for _ = 1 to pool.n_workers do
       pool.domains <- Domain.spawn (worker pool) :: pool.domains
     done
   with Failure _ ->
     let spawned = List.length pool.domains in
     shutdown pool;
     invalid_arg
       (Printf.sprintf
          "cannot spawn %d worker domains (the runtime stopped at %d)"
          pool.n_workers spawned));
  pool

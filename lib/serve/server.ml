(* Accept loop and per-connection sessions.  The threads here only do
   socket I/O and framing; analytical work is shipped by Service to its
   worker-domain pool, so slow readers never hold up the solver and
   concurrent sessions analyze in parallel up to [c_domains].

   Overload posture: every read and write of a frame runs under a
   select-guarded deadline, so a slowloris peer (or a reader that stops
   draining responses) is reaped instead of pinning a session thread
   forever; the accept loop refuses connections beyond
   [c_max_connections] with a typed [Overloaded] shed; and the Service's
   admission gate bounds in-flight solver work.  Shutdown drains: stop
   accepting, let in-flight requests finish under [c_drain_ms], then
   force-close the laggards. *)

type config = {
  c_addr : Protocol.addr;
  c_max_frame : int;
  c_memo_capacity : int option;
  c_quota : Omega.Budget.limits;
  c_backlog : int;
  c_domains : int;
  c_max_connections : int;
  c_max_inflight : int option;
  c_read_timeout_ms : float option;
  c_drain_ms : float;
}

let default_config addr =
  let domains = max 1 (Domain.recommended_domain_count () - 1) in
  {
    c_addr = addr;
    c_max_frame = Protocol.default_max_frame;
    c_memo_capacity = None;
    c_quota = Omega.Budget.default;
    c_backlog = 16;
    c_domains = domains;
    c_max_connections = 64;
    (* admission-gate shedding is opt-in at this layer: embedded
       servers (tests, benches) expect lossless service; the petitd
       binary turns the gate on with its own 2*domains default *)
    c_max_inflight = None;
    c_read_timeout_ms = Some 10_000.;
    c_drain_ms = 5_000.;
  }

(* One live connection.  Slots are registered before the session thread
   starts and pruned by the session itself on exit, so [sessions] holds
   exactly the live connections — a long-lived daemon no longer leaks
   one entry per connection ever served. *)
type slot = {
  sl_fd : Unix.file_descr;
  mutable sl_thread : Thread.t option;
  mutable sl_busy : bool;  (* a request is being solved or answered *)
}

type t = {
  config : config;
  service : Service.t;
  listen_fd : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  lock : Mutex.t;
  stopping : bool Atomic.t;
  mutable sessions : slot list;  (* live connections only *)
}

let service t = t.service

let sockaddr_of = function
  | Protocol.Unix_path p -> Unix.ADDR_UNIX p
  | Protocol.Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve %s" host)
        | h -> h.Unix.h_addr_list.(0)
        | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve %s" host))
    in
    Unix.ADDR_INET (ip, port)

let live_sessions t =
  Mutex.lock t.lock;
  let ss = t.sessions in
  Mutex.unlock t.lock;
  ss

let io_deadline t =
  Option.map
    (fun ms -> Unix.gettimeofday () +. (ms /. 1000.))
    t.config.c_read_timeout_ms

(* [`Timeout] is a peer that stopped draining its responses: the write
   deadline fired with bytes still queued — reap it like a stalled
   reader. *)
let write_response ?deadline fd resp =
  match
    Protocol.write_frame ?deadline fd
      (Json.to_string (Protocol.encode_response resp))
  with
  | () -> `Ok
  | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> `Timeout
  | exception Unix.Unix_error _ -> `Error
  | exception Sys_error _ -> `Error

let stop t =
  if not (Atomic.exchange t.stopping true) then (
    (* Unblock the accept loop.  shutdown works for TCP; for Unix
       sockets close is what interrupts accept. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

(* One connection: read frames until EOF, a poisoned frame, a blown
   read deadline, or a shutdown request.  Frame-level failures that
   leave the stream in sync (oversized, bad JSON, bad request shape)
   earn an error response and the loop continues. *)
let session t slot peer =
  Service.note_connect t.service;
  let fd = slot.sl_fd in
  let stop_server = ref false in
  let reaped = ref false in
  let respond resp =
    match write_response ?deadline:(io_deadline t) fd resp with
    | `Ok -> true
    | `Timeout ->
      reaped := true;
      false
    | `Error -> false
  in
  let rec loop () =
    (* draining: finish the request already in flight elsewhere in this
       loop, but accept no further frames on this connection *)
    if Atomic.get t.stopping then ()
    else
      match
        Protocol.read_frame ?deadline:(io_deadline t)
          ~max:t.config.c_max_frame fd
      with
      | Error Protocol.Closed | Error Protocol.Truncated -> ()
      | Error Protocol.Timed_out ->
        (* stalled or trickling peer: the stream is desynced, close *)
        reaped := true
      | Error (Protocol.Poisoned n) ->
        ignore
          (respond
             (Protocol.Error_
                {
                  id = 0;
                  code = Protocol.Frame_too_large;
                  message =
                    Printf.sprintf
                      "frame of %d bytes is beyond recovery; closing" n;
                  retry_after_ms = None;
                }))
      | Error (Protocol.Oversized n) ->
        let ok =
          respond
            (Protocol.Error_
               {
                 id = 0;
                 code = Protocol.Frame_too_large;
                 message =
                   Printf.sprintf "frame of %d bytes exceeds the %d-byte limit"
                     n t.config.c_max_frame;
                 retry_after_ms = None;
               })
        in
        if ok then loop ()
      | Ok payload -> (
        match Json.parse payload with
        | Error msg ->
          let ok =
            respond
              (Protocol.Error_
                 {
                   id = 0;
                   code = Protocol.Bad_request;
                   message = "invalid JSON: " ^ msg;
                   retry_after_ms = None;
                 })
          in
          if ok then loop ()
        | Ok json -> (
          match Protocol.decode_request json with
          | Error msg ->
            let id =
              match Json.member "id" json with
              | Some j -> Option.value (Json.to_int_opt j) ~default:0
              | None -> 0
            in
            let ok =
              respond
                (Protocol.Error_
                   {
                     id;
                     code = Protocol.Bad_request;
                     message = msg;
                     retry_after_ms = None;
                   })
            in
            if ok then loop ()
          | Ok (id, req) ->
            slot.sl_busy <- true;
            let resp, verdict = Service.handle t.service ~peer ~id req in
            let ok = respond resp in
            slot.sl_busy <- false;
            (match verdict with
            | `Shutdown -> stop_server := true
            | `Continue -> if ok then loop ())))
  in
  (try loop () with _ -> ());
  (* counted before the close: a peer that sees EOF and asks [Health]
     next must find its reap *)
  if !reaped then Service.note_reaped t.service;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Service.note_disconnect t.service;
  (* prune this connection's slot — the one fix for the unbounded
     session list a long-lived daemon used to accumulate *)
  Mutex.lock t.lock;
  t.sessions <- List.filter (fun s -> s != slot) t.sessions;
  Mutex.unlock t.lock;
  if !stop_server then stop t

(* Over-cap connections get a typed shed, not a silent close: one
   unsolicited [Overloaded] response (id 0, which clients accept for
   any request) with a backoff hint, then the socket closes.  The
   write is deadline-guarded so a hostile peer cannot stall the accept
   loop with a full socket buffer. *)
let shed_connection t fd =
  Service.note_shed_conn t.service;
  ignore
    (write_response
       ~deadline:(Unix.gettimeofday () +. 1.)
       fd
       (Protocol.Error_
          {
            id = 0;
            code = Protocol.Overloaded;
            message =
              Printf.sprintf "connection limit (%d) reached"
                t.config.c_max_connections;
            retry_after_ms = Some 100.;
          }));
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec go () =
    let accepted =
      try `Conn (Unix.accept t.listen_fd)
      with Unix.Unix_error (e, _, _) -> (
        match e with
        | Unix.EBADF | Unix.EINVAL -> `Stop
        | (Unix.ECONNABORTED | Unix.EINTR) when not (Atomic.get t.stopping)
          ->
          `Retry
        | _ -> `Stop)
    in
    match accepted with
    | `Stop -> ()
    | `Retry -> go ()
    | `Conn (fd, peer_addr) ->
      if Atomic.get t.stopping then (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        go ())
      else begin
        let peer =
          match peer_addr with
          | Unix.ADDR_UNIX _ -> "unix"
          | Unix.ADDR_INET (ip, port) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
        in
        Mutex.lock t.lock;
        let over = List.length t.sessions >= t.config.c_max_connections in
        let slot =
          if over then None
          else begin
            let slot = { sl_fd = fd; sl_thread = None; sl_busy = false } in
            t.sessions <- slot :: t.sessions;
            Some slot
          end
        in
        Mutex.unlock t.lock;
        (match slot with
        | None -> shed_connection t fd
        | Some slot ->
          slot.sl_thread <- Some (Thread.create (fun () -> session t slot peer) ()));
        go ()
      end
  in
  go ()

let start config =
  (* A peer vanishing mid-write must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let sockaddr = sockaddr_of config.c_addr in
  (* the service (and its worker pool) first: a width the runtime
     cannot spawn fails before the socket is touched *)
  let service =
    Service.create ?memo_capacity:config.c_memo_capacity
      ~quota:config.c_quota ~domains:config.c_domains
      ?max_inflight:config.c_max_inflight ()
  in
  (match config.c_addr with
  | Protocol.Unix_path p ->
    (* A stale socket file from a dead daemon would make bind fail. *)
    (try if (Unix.lstat p).Unix.st_kind = Unix.S_SOCK then Unix.unlink p
     with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ());
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     if domain <> Unix.PF_UNIX then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sockaddr;
     Unix.listen fd config.c_backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Service.shutdown service;
     raise e);
  let t =
    {
      config;
      service;
      listen_fd = fd;
      accept_thread = None;
      lock = Mutex.create ();
      stopping = Atomic.make false;
      sessions = [];
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

(* Graceful drain.  By the time this runs the accept loop has exited and
   [stopping] is set, so session loops take no further frames.  Sessions
   idle between requests are disconnected immediately (they have no
   in-flight work); busy ones get until the drain deadline to finish and
   write their response; whatever is left is force-closed, which wakes
   any blocked read/select with EOF. *)
let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  Atomic.set t.stopping true;
  let force_close slot =
    try Unix.shutdown slot.sl_fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()
  in
  List.iter
    (fun slot -> if not slot.sl_busy then force_close slot)
    (live_sessions t);
  let deadline = Unix.gettimeofday () +. (t.config.c_drain_ms /. 1000.) in
  let rec drain () =
    match live_sessions t with
    | [] -> ()
    | live ->
      if Unix.gettimeofday () >= deadline then List.iter force_close live
      else begin
        Thread.delay 0.01;
        drain ()
      end
  in
  drain ();
  (* No new sessions can appear (the accept loop is gone), so one
     snapshot joins everything still running; each exiting session has
     pruned — or is about to prune — its own slot. *)
  List.iter
    (fun slot ->
      match slot.sl_thread with Some th -> Thread.join th | None -> ())
    (live_sessions t);
  (* Every session is joined, so no request can reach the pool. *)
  Service.shutdown t.service;
  match t.config.c_addr with
  | Protocol.Unix_path p ->
    (try Unix.unlink p with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ()

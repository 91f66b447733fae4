(** The petitd socket server: an accept loop over a Unix-domain or TCP
    socket, one session thread per connection, all requests served by a
    shared {!Service.t}.

    Connection failures are contained: a malformed or oversized frame
    earns an error response on the same connection, a truncated frame or
    dropped peer closes only that session.  Hostile peers are bounded:
    frame reads and writes run under {!c_read_timeout_ms}-guarded
    deadlines (a slowloris or a non-draining reader is reaped),
    connections beyond {!c_max_connections} are shed with a typed
    [Overloaded] response, and the Service's admission gate caps
    in-flight solver work at {!c_max_inflight}.

    A [shutdown] request (or {!stop}) drains gracefully: the listening
    socket closes, idle connections are dropped at once, in-flight
    requests get {!c_drain_ms} to finish, then laggards are
    force-closed and {!wait} returns. *)

type config = {
  c_addr : Protocol.addr;
  c_max_frame : int;  (** per-frame payload cap, bytes *)
  c_memo_capacity : int option;  (** verdict-cache bound; [None] keeps the default *)
  c_quota : Omega.Budget.limits;  (** per-request budget ceiling *)
  c_backlog : int;
  c_domains : int;
      (** worker domains running solver work; concurrent sessions
          analyze in parallel up to this width (default: the machine's
          recommended domain count minus the accept/session side) *)
  c_max_connections : int;
      (** open-connection cap; excess connections receive one
          [Overloaded] response and are closed (default 64) *)
  c_max_inflight : int option;
      (** admission gate: work-bearing requests solving or queued at
          once before sheds begin; [None] (the default) disables
          shedding — embedded servers expect lossless service, and the
          petitd binary opts in with its own [2 * domains] default *)
  c_read_timeout_ms : float option;
      (** per-frame I/O deadline: a whole request frame must arrive —
          and a whole response frame must drain — within this window or
          the connection is reaped (default 10s); [None] disables *)
  c_drain_ms : float;
      (** shutdown grace: how long in-flight requests may finish before
          their connections are force-closed (default 5s) *)
}

val default_config : Protocol.addr -> config

type t

val start : config -> t
(** Bind, listen, and return with the accept loop running in a
    background thread.  Raises [Unix.Unix_error] if the address cannot
    be bound, and [Invalid_argument] (before binding) if the runtime
    cannot spawn [c_domains] worker domains. *)

val service : t -> Service.t

val wait : t -> unit
(** Block until the server shuts down (via a [shutdown] request or
    {!stop}), then drain: idle sessions drop immediately, in-flight
    requests get [c_drain_ms] to finish, laggards are force-closed, and
    every session thread is joined. *)

val stop : t -> unit
(** Ask the server to stop accepting; idempotent. *)

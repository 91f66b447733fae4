(** The petitd wire protocol: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON.  Requests carry a client-chosen [id] echoed in
    the response, an operation tag, and an optional per-request budget;
    the server clamps budgets to the per-client quota.  Every
    successful response surfaces the shared verdict-cache telemetry
    (both lifetime and this-request counters) and the solver governance
    telemetry of the request. *)

type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["host:port"] parses as TCP, anything else as a Unix-socket path. *)

val addr_to_string : addr -> string

(** {1 Requests} *)

type budget_spec = {
  b_fuel : int option;
  b_splinters : int option;
  b_disjuncts : int option;
  b_deadline_ms : float option;
}

val no_budget : budget_spec

val clamp_budget : budget_spec -> Omega.Budget.limits -> Omega.Budget.limits
(** Effective limits of a request under a per-client quota: each
    requested dimension is honored up to the quota; unspecified
    dimensions take the quota's value.  The result is always
    [Budget.le]-below the quota, so no tenant can out-spend it. *)

type calc_op =
  | Sat of string
  | Implies of string * string
  | Project of {
      mode : [ `Exact | `Dark | `Real ];
      onto : string list;
      problem : string;
    }
  | Gist of { problem : string; given : string }
  | Optimize of { dir : [ `Min | `Max ]; var : string; problem : string }

(** Work-bearing requests carry an optional [deadline_ms]: a wall-clock
    budget for the {e whole request}, counted from the instant the
    server finishes reading the frame.  The server folds the remainder
    into the solver's budget world, so a request admitted late gets a
    correspondingly smaller solver budget, and one whose deadline has
    already passed at admission is refused with a [Gave_up] error
    instead of burning a worker.  [Health] reports the server's overload
    posture (uptime, in-flight, shed/reap counts) next to the service
    stats; it is never queued behind solver work. *)
type request =
  | Analyze of {
      program : string;
      in_bounds : bool;
      budget : budget_spec;
      deadline_ms : float option;
    }
  | Parallelize of {
      program : string;
      in_bounds : bool;
      budget : budget_spec;
      deadline_ms : float option;
    }
  | Omega_calc of {
      op : calc_op;
      budget : budget_spec;
      deadline_ms : float option;
    }
  | Stats
  | Health
  | Shutdown

val encode_request : id:int -> request -> Json.t
val decode_request : Json.t -> (int * request, string) result

(** {1 Responses} *)

(** Solver-cache telemetry attached to a successful response:
    [mr_req_*] count this request's verdict lookups only, the rest are
    daemon-lifetime.  Hits and misses count verdict lookups; [mr_vec_*]
    count the dependence-vector and minimum lookups that share the
    table ({!Depend.Memo}). *)
type memo_report = {
  mr_req_hits : int;
  mr_req_misses : int;
  mr_hits : int;
  mr_misses : int;
  mr_size : int;
  mr_capacity : int;
  mr_evictions : int;
  mr_vec_hits : int;
  mr_vec_misses : int;
}

type error_code =
  | Parse_error  (** program or problem text did not parse *)
  | Semantic_error  (** sema rejected the program *)
  | Bad_request  (** malformed or unknown request JSON *)
  | Frame_too_large
  | Gave_up
      (** budget exhausted outside a query boundary, or the request's
          wall deadline passed before any work could start *)
  | Overloaded
      (** shed by the admission gate (in-flight cap) or the connection
          cap; carries [retry_after_ms] — idempotent, safe to retry
          after backing off *)
  | Server_error

val error_code_to_string : error_code -> string

val memo_json : memo_report -> Json.t
(** The memo block as embedded in responses and the stats payload. *)

type response =
  | Result of {
      id : int;
      payload : Json.t;
      memo : memo_report option;
      governance : Json.t option;
    }
  | Error_ of {
      id : int;
      code : error_code;
      message : string;
      retry_after_ms : float option;
          (** backoff hint attached to [Overloaded] sheds *)
    }

val encode_response : response -> Json.t
val decode_response : Json.t -> (response, string) result

(** {1 Frames}

    Frame I/O optionally runs under an absolute deadline (a
    [Unix.gettimeofday] instant): every read/write is [select]-guarded
    by the remaining time, so a stalled or trickling peer cannot pin the
    caller — the whole frame must move before the deadline.  Reads
    report [Timed_out]; writes raise [Unix.ETIMEDOUT]. *)

val default_max_frame : int
(** 16 MiB. *)

val write_frame : ?deadline:float -> Unix.file_descr -> string -> unit
(** Raises [Unix.Unix_error (ETIMEDOUT, _, _)] if the deadline passes
    with bytes still unwritten. *)

type frame_error =
  | Closed  (** EOF before any byte of the frame *)
  | Truncated  (** EOF inside the length prefix or payload *)
  | Oversized of int
      (** announced length exceeded [max]; the payload has been drained,
          the stream is still in sync and the connection is usable *)
  | Poisoned of int
      (** announced length too absurd to drain; close the connection *)
  | Timed_out
      (** the deadline passed before the frame completed; the stream is
          desynced — close the connection *)

val read_frame :
  ?deadline:float -> max:int -> Unix.file_descr -> (string, frame_error) result

(* petitd: the analysis daemon.  Binds a Unix-domain or TCP socket,
   keeps one verdict cache warm across every connection, and serves
   analyze / parallelize / omega_calc / stats requests over the
   length-prefixed JSON protocol (lib/serve).  Per-request budgets are
   clamped to the quota set here, so one pathological client degrades
   its own queries to [gave up] instead of starving the rest. *)

open Cmdliner

let addr_term =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) (the default, at \
                $(b,/tmp/petitd.sock)).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP $(docv) instead.")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST"
          ~doc:"Interface to bind with $(b,--port).")
  in
  let make socket port host =
    match (socket, port) with
    | Some _, Some _ ->
      `Error (false, "--socket and --port are mutually exclusive")
    | None, Some p -> `Ok (Serve.Protocol.Tcp (host, p))
    | Some s, None -> `Ok (Serve.Protocol.Unix_path s)
    | None, None -> `Ok (Serve.Protocol.Unix_path "/tmp/petitd.sock")
  in
  Term.(ret (const make $ socket_arg $ port_arg $ host_arg))

let memo_capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "memo-capacity" ] ~docv:"N"
        ~doc:"Bound on the shared verdict cache (entries; FIFO eviction \
              beyond it).")

let max_frame_arg =
  Arg.(
    value
    & opt int Serve.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:"Largest accepted request frame.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains running solver work; concurrent sessions analyze \
           in parallel up to $(docv) (default: the machine's recommended \
           domain count minus one).")

let max_connections_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-connections" ] ~docv:"N"
        ~doc:
          "Open-connection cap: connections beyond $(docv) receive one \
           $(b,overloaded) response (with a retry_after_ms hint) and are \
           closed (default 64).")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Admission gate: at most $(docv) work-bearing requests solving \
           or queued at once; beyond it requests are shed with \
           $(b,overloaded) instead of queueing unboundedly (default \
           2*domains, min 4).  0 disables shedding.")

let read_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "read-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-frame I/O deadline: a request frame must arrive (and a \
           response frame drain) within $(docv) ms or the connection is \
           reaped (default 10000).  0 disables.")

let drain_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "drain-ms" ] ~docv:"MS"
        ~doc:
          "Shutdown grace: in-flight requests get $(docv) ms to finish \
           before their connections are force-closed (default 5000).")

(* The daemon-wide budget ceiling: per-request budgets are clamped to
   it (Protocol.clamp_budget), never raised above it. *)
let quota_term =
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Elimination-step quota per solver query.")
  in
  let splinters_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "splinters" ] ~docv:"N"
          ~doc:"Splinter-problem quota per solver query.")
  in
  let disjuncts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "disjuncts" ] ~docv:"N"
          ~doc:"Quota of Or alternatives entered per DNF enumeration.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Wall-clock quota per solver query, in milliseconds.")
  in
  let make fuel splinters disjuncts deadline_ms =
    let d = Omega.Budget.default in
    {
      Omega.Budget.fuel = Option.value fuel ~default:d.Omega.Budget.fuel;
      splinters = Option.value splinters ~default:d.Omega.Budget.splinters;
      disjuncts = Option.value disjuncts ~default:d.Omega.Budget.disjuncts;
      deadline_ms =
        (match deadline_ms with
        | Some _ as d -> d
        | None -> d.Omega.Budget.deadline_ms);
    }
  in
  Term.(const make $ fuel_arg $ splinters_arg $ disjuncts_arg $ deadline_arg)

let () =
  let run addr memo_capacity max_frame quota domains max_connections
      max_inflight read_timeout_ms drain_ms =
    let base = Serve.Server.default_config addr in
    let c_domains =
      match domains with
      | Some n -> max 1 n
      | None -> base.Serve.Server.c_domains
    in
    let config =
      {
        base with
        Serve.Server.c_max_frame = max_frame;
        c_memo_capacity = memo_capacity;
        c_quota = quota;
        c_domains;
        c_max_connections =
          (match max_connections with
          | Some n -> max 1 n
          | None -> base.Serve.Server.c_max_connections);
        c_max_inflight =
          (match max_inflight with
          | Some 0 -> None
          | Some n -> Some (max 1 n)
          | None -> Some (max 4 (2 * c_domains)));
        c_read_timeout_ms =
          (match read_timeout_ms with
          | Some ms when ms <= 0. -> None
          | Some ms -> Some ms
          | None -> base.Serve.Server.c_read_timeout_ms);
        c_drain_ms =
          (match drain_ms with
          | Some ms -> Float.max 0. ms
          | None -> base.Serve.Server.c_drain_ms);
      }
    in
    match Serve.Server.start config with
    | t ->
      (match addr with
      | Serve.Protocol.Unix_path p ->
        Printf.eprintf "petitd: listening on %s\n%!" p
      | Serve.Protocol.Tcp (h, p) ->
        Printf.eprintf "petitd: listening on %s:%d\n%!" h p);
      Serve.Server.wait t
    | exception Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "petitd: %s%s\n" (Unix.error_message e)
        (if arg = "" then "" else ": " ^ arg);
      exit 1
    | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let info =
    Cmd.info "petitd" ~version:"1.0"
      ~doc:
        "Dependence-analysis daemon: petit's analyses as a service over a \
         Unix or TCP socket, with a shared verdict cache and per-client \
         budget quotas."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ addr_term $ memo_capacity_arg $ max_frame_arg
            $ quota_term $ domains_arg $ max_connections_arg
            $ max_inflight_arg $ read_timeout_arg $ drain_arg)))

(* The request-to-response core of petitd.

   Threading model: the solver stack keeps its ambient state (budget
   meter, variable allocator, tuning counters) in domain-local storage,
   so requests no longer serialize behind a single solver lock.  Each
   request ships its solver work — parsing included, since sema and the
   dependence context mint variables — as one task to a pool of worker
   domains; sessions landing on distinct workers analyze in parallel.
   Session threads themselves never run solver work: they are systhreads
   sharing the main domain's storage, where in-place solving would race.
   The verdict memo is the one deliberately shared piece: mutex-guarded
   and warm across requests and clients.  Each lookup also counts in the
   worker domain's [Metrics] record, so each response reports exactly
   how much of the cache this request hit, unpolluted by concurrent
   sessions. *)

open Omega
module D = Depend

exception Calc_error of string

type stats = {
  mutable s_analyze : int;
  mutable s_parallelize : int;
  mutable s_calc : int;
  mutable s_stats : int;
  mutable s_health : int;
  mutable s_errors : int;
  mutable s_conns : int;  (* currently open *)
  mutable s_conns_total : int;
  mutable s_inflight : int;  (* work-bearing requests being solved *)
  mutable s_shed_requests : int;  (* refused by the admission gate *)
  mutable s_shed_conns : int;  (* refused by the connection cap *)
  mutable s_reaped : int;  (* stalled connections closed by a deadline *)
  mutable s_deadline_refused : int;  (* wall deadline gone at admission *)
}

type t = {
  pool : Taskpool.t;
  quota : Budget.limits;
  max_inflight : int option;  (* admission-gate width; None = unbounded *)
  started : float;  (* Unix.gettimeofday at create, for uptime *)
  stats_lock : Mutex.t;
  stats : stats;
  (* lifetime solver counters across every request, merged from each
     request's domain-local record under [stats_lock]; the tier rows
     are served *)
  lifetime : Metrics.t;
}

let create ?memo_capacity ?(quota = Budget.default) ?(domains = 1)
    ?max_inflight () =
  (match memo_capacity with
  | Some cap -> D.Analyses.Memo.capacity := max 1 cap
  | None -> ());
  D.Analyses.Memo.reset ();
  {
    pool = Taskpool.create ~workers:(max 1 domains);
    quota;
    max_inflight = Option.map (max 1) max_inflight;
    started = Unix.gettimeofday ();
    stats_lock = Mutex.create ();
    stats =
      {
        s_analyze = 0;
        s_parallelize = 0;
        s_calc = 0;
        s_stats = 0;
        s_health = 0;
        s_errors = 0;
        s_conns = 0;
        s_conns_total = 0;
        s_inflight = 0;
        s_shed_requests = 0;
        s_shed_conns = 0;
        s_reaped = 0;
        s_deadline_refused = 0;
      };
    lifetime = Metrics.make ();
  }

let domains t = Taskpool.workers t.pool
let shutdown t = Taskpool.shutdown t.pool

let bump t f =
  Mutex.lock t.stats_lock;
  f t.stats;
  Mutex.unlock t.stats_lock

let note_connect t =
  bump t (fun s ->
      s.s_conns <- s.s_conns + 1;
      s.s_conns_total <- s.s_conns_total + 1)

let note_disconnect t = bump t (fun s -> s.s_conns <- s.s_conns - 1)
let note_shed_conn t = bump t (fun s -> s.s_shed_conns <- s.s_shed_conns + 1)
let note_reaped t = bump t (fun s -> s.s_reaped <- s.s_reaped + 1)

(* The admission gate: at most [max_inflight] work-bearing requests may
   be solving (or queued on the worker pool) at once; beyond that the
   request is shed with a backoff hint instead of queueing unboundedly.
   The hint scales with the overload: each excess waiter suggests
   another quantum of patience. *)
let try_admit t =
  match t.max_inflight with
  | None -> `Admitted
  | Some cap ->
    Mutex.lock t.stats_lock;
    let inflight = t.stats.s_inflight in
    let decision =
      if inflight < cap then begin
        t.stats.s_inflight <- inflight + 1;
        `Admitted
      end
      else begin
        t.stats.s_shed_requests <- t.stats.s_shed_requests + 1;
        `Shed (25. *. float_of_int (inflight - cap + 1))
      end
    in
    Mutex.unlock t.stats_lock;
    decision

let release t = bump t (fun s -> s.s_inflight <- s.s_inflight - 1)

(* ------------------------------------------------------------------ *)
(* Deterministic payloads                                              *)
(* ------------------------------------------------------------------ *)

let strs xs = Json.List (List.map (fun s -> Json.Str s) xs)
let ints xs = Json.List (List.map (fun i -> Json.Int i) xs)

let vectors_json vs = strs (List.map D.Dirvec.to_string vs)

let access_fields prefix (a : Lang.Ir.access) =
  [ (prefix, Json.Str a.Lang.Ir.label) ]

let dep_json (d : D.Deps.dep) =
  Json.Obj
    (access_fields "src" d.D.Deps.src
    @ access_fields "dst" d.D.Deps.dst
    @ [
        ("array", Json.Str d.D.Deps.src.Lang.Ir.array);
        ("kind", Json.Str (D.Deps.kind_to_string d.D.Deps.kind));
        ("vectors", vectors_json d.D.Deps.vectors);
        ("levels", ints d.D.Deps.levels);
        ("assumed", Json.Bool d.D.Deps.assumed);
      ])

let flow_json (fr : D.Driver.flow_result) =
  let dead =
    match fr.D.Driver.dead with
    | None -> Json.Null
    | Some (D.Driver.Killed k) ->
      Json.Obj
        [ ("reason", Json.Str "killed"); ("by", Json.Str k.Lang.Ir.label) ]
    | Some (D.Driver.Covered c) ->
      Json.Obj
        [ ("reason", Json.Str "covered"); ("by", Json.Str c.Lang.Ir.label) ]
  in
  let refined =
    match fr.D.Driver.refined with
    | None -> Json.Null
    | Some vs -> vectors_json vs
  in
  Json.Obj
    [
      ("dep", dep_json fr.D.Driver.dep);
      ("refined", refined);
      ("covers", Json.Bool fr.D.Driver.covers);
      ("dead", dead);
    ]

let analyze_payload ~in_bounds (prog : Lang.Ir.program) =
  let r = D.Driver.analyze ~in_bounds prog in
  Json.Obj
    [
      ( "live_flows",
        Json.List (List.map flow_json (D.Driver.live_flows r)) );
      ( "dead_flows",
        Json.List (List.map flow_json (D.Driver.dead_flows r)) );
      ("antis", Json.List (List.map dep_json r.D.Driver.antis));
      ("outputs", Json.List (List.map dep_json r.D.Driver.outputs));
    ]

let priv_json (p : Xform.Privatize.priv) =
  Json.Obj
    [
      ("array", Json.Str p.Xform.Privatize.p_array);
      ("copy_in", Json.Bool p.Xform.Privatize.p_copy_in);
      ("finalize", Json.Bool p.Xform.Privatize.p_finalize);
    ]

let parallelize_payload ~in_bounds (prog : Lang.Ir.program) =
  let g = Xform.Graph.build ~in_bounds prog in
  let vs = Xform.Parallel.analyze g in
  let std, ext = Xform.Parallel.count_doall vs in
  let verdict (v : Xform.Parallel.verdict) =
    Json.Obj
      [
        ("loop", Json.Str (Xform.Parallel.loop_path v.Xform.Parallel.v_loop));
        ("std_doall", Json.Bool v.Xform.Parallel.v_std_doall);
        ("ext_doall", Json.Bool v.Xform.Parallel.v_ext_doall);
        ( "std_blockers",
          strs
            (List.map Xform.Parallel.blocker_string
               v.Xform.Parallel.v_std_blockers) );
        ( "ext_blockers",
          strs
            (List.map Xform.Parallel.blocker_string
               v.Xform.Parallel.v_ext_blockers) );
        ( "privatized",
          Json.List (List.map priv_json v.Xform.Parallel.v_private) );
      ]
  in
  Json.Obj
    [
      ("loops", Json.List (List.map verdict vs));
      ("std_doall", Json.Int std);
      ("ext_doall", Json.Int ext);
      ("annotated", Json.Str (Xform.Emit.annotate g vs));
    ]

let tier_row (r : Metrics.row) =
  Json.Obj
    [
      ("attempts", Json.Int r.attempts);
      ("decides", Json.Int r.decides);
      ("ms", Json.Float (r.elapsed *. 1000.));
    ]

let tiers_json (m : Metrics.t) =
  Json.Obj
    [
      ("quick", tier_row m.quick);
      ("fast", tier_row m.fast);
      ("complete", tier_row m.complete);
    ]

let governance_fields (m : Metrics.t) =
  [
    ("queries", Json.Int m.queries);
    ( "gave_up",
      Json.Obj
        (List.map (fun (k, n) -> (k, Json.Int n)) (Metrics.gave_up_by_reason m))
    );
    ("peak_fuel", Json.Int m.peak_fuel);
    ("peak_splinters", Json.Int m.peak_splinters);
    ("worst_query", Json.Str m.worst_label);
    ("worst_fuel", Json.Int m.worst_fuel);
  ]

let memo_report ~req_hits ~req_misses =
  let m = D.Analyses.Memo.stats in
  {
    Protocol.mr_req_hits = req_hits;
    mr_req_misses = req_misses;
    mr_hits = m.D.Analyses.Memo.hits;
    mr_misses = m.D.Analyses.Memo.misses;
    mr_size = D.Analyses.Memo.size ();
    mr_capacity = !D.Analyses.Memo.capacity;
    mr_evictions = m.D.Analyses.Memo.evictions;
    mr_vec_hits = m.D.Analyses.Memo.vec_hits;
    mr_vec_misses = m.D.Analyses.Memo.vec_misses;
  }

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* One governed unit of solver work, shipped to a worker domain: a
   fresh [Metrics] record in that domain's local storage, the clamped
   budget, and the record's governance counters and memo hits/misses
   for the response.  A worker runs one task at a time, so the
   domain-local counters are exact per-request figures even with other
   sessions in flight on sibling workers.  The task traps its own
   exceptions, and run_batch's lock hands the result back to the
   session thread.

   [wall] is the request's absolute deadline, installed as the worker
   domain's wall deadline: every solver meter inside enforces it, so a
   request that waited in the pool queue gets a correspondingly smaller
   time budget, and one whose deadline passed while queued is refused
   before any solver work runs. *)
let solve t budget ~wall (f : unit -> Json.t) :
    (Json.t * Protocol.memo_report * Json.t, exn) result =
  let result = ref (Error (Failure "petitd: request task never ran")) in
  let task () =
    result :=
      try
        Metrics.reset ();
        let payload =
          Budget.with_wall_deadline wall (fun () ->
              if Budget.wall_expired () then
                raise (Budget.Exhausted Budget.Deadline);
              Budget.with_limits (Protocol.clamp_budget budget t.quota) f)
        in
        let m = Metrics.current () in
        let response =
          Ok
            ( payload,
              memo_report ~req_hits:m.memo_hits ~req_misses:m.memo_misses,
              Json.Obj
                (governance_fields m @ [ ("tiers", tiers_json m) ]) )
        in
        (* fold this request's counters into the service lifetime
           totals (the worker runs one task at a time, so the
           domain-local record is exactly this request's) *)
        Mutex.lock t.stats_lock;
        Metrics.merge_into t.lifetime m;
        Mutex.unlock t.stats_lock;
        response
      with e -> Error e
  in
  Taskpool.run_batch ~participate:false t.pool [ task ];
  !result

let err ?retry_after_ms t ~id code message =
  bump t (fun s -> s.s_errors <- s.s_errors + 1);
  (Protocol.Error_ { id; code; message; retry_after_ms }, `Continue)

(* Admission for work-bearing requests: shed on an over-full gate, and
   refuse outright a request whose wall deadline has already passed —
   running it could only burn a worker to produce [Gave_up] anyway. *)
let admitted t ~id ~wall k =
  match try_admit t with
  | `Shed retry_after_ms ->
    err ~retry_after_ms t ~id Protocol.Overloaded
      "in-flight limit reached; retry after backing off"
  | `Admitted ->
    Fun.protect
      ~finally:(fun () -> release t)
      (fun () ->
        match wall with
        | Some d when Unix.gettimeofday () >= d ->
          bump t (fun s ->
              s.s_deadline_refused <- s.s_deadline_refused + 1);
          err t ~id Protocol.Gave_up
            "request deadline expired before work started"
        | _ -> k ())

(* A request that gave up (a blown limit, or a coefficient that
   overflowed outside any query) is a typed [Gave_up]; anything else is
   a server error. *)
let solver_error t ~id e =
  match Budget.reason_of_exn e with
  | Some r ->
    err t ~id Protocol.Gave_up
      (Printf.sprintf "budget exhausted (%s)" (Budget.reason_to_string r))
  | None -> err t ~id Protocol.Server_error (Printexc.to_string e)

let wall_of ~now deadline_ms =
  Option.map (fun ms -> now +. (ms /. 1000.)) deadline_ms

let program_request t ~id ~program ~in_bounds ~budget ~wall payload_of =
  match
    solve t budget ~wall (fun () ->
        let prog = Lang.Sema.analyze (Lang.Parser.parse_string program) in
        payload_of ~in_bounds prog)
  with
  | Ok (payload, memo, governance) ->
    ( Protocol.Result
        { id; payload; memo = Some memo; governance = Some governance },
      `Continue )
  | Error (Lang.Parser.Error (msg, pos)) ->
    err t ~id Protocol.Parse_error
      (Printf.sprintf "line %d, column %d: %s" pos.Lang.Ast.line
         pos.Lang.Ast.col msg)
  | Error (Lang.Sema.Error msg) -> err t ~id Protocol.Semantic_error msg
  | Error (Invalid_argument msg) -> err t ~id Protocol.Semantic_error msg
  | Error e -> solver_error t ~id e

(* Snapshot the lifetime counters under the lock. *)
let snapshot_lifetime t =
  let copy = Metrics.make () in
  Mutex.lock t.stats_lock;
  Metrics.merge_into copy t.lifetime;
  Mutex.unlock t.stats_lock;
  copy

let stats_payload t =
  let s = t.stats in
  let m = memo_report ~req_hits:0 ~req_misses:0 in
  let total = m.Protocol.mr_hits + m.Protocol.mr_misses in
  let lifetime = snapshot_lifetime t in
  Json.Obj
    [
      ( "requests",
        Json.Obj
          [
            ("analyze", Json.Int s.s_analyze);
            ("parallelize", Json.Int s.s_parallelize);
            ("omega_calc", Json.Int s.s_calc);
            ("stats", Json.Int s.s_stats);
            ("errors", Json.Int s.s_errors);
          ] );
      ( "connections",
        Json.Obj
          [
            ("open", Json.Int s.s_conns); ("total", Json.Int s.s_conns_total);
          ] );
      ("memo", Protocol.memo_json m);
      ( "memo_hit_rate",
        Json.Float
          (if total = 0 then 0.
           else float_of_int m.Protocol.mr_hits /. float_of_int total) );
      ("tiers", tiers_json lifetime);
      ( "quota",
        Json.Obj
          [
            ("fuel", Json.Int t.quota.Budget.fuel);
            ("splinters", Json.Int t.quota.Budget.splinters);
            ("disjuncts", Json.Int t.quota.Budget.disjuncts);
            ( "deadline_ms",
              match t.quota.Budget.deadline_ms with
              | Some d -> Json.Float d
              | None -> Json.Null );
          ] );
    ]

(* The server's overload posture: everything an operator (or a load
   balancer) needs to see whether the protections are firing.  Served
   on the session thread — never queued behind solver work — so it
   answers even when every worker is busy. *)
let health_payload t =
  Mutex.lock t.stats_lock;
  let s = t.stats in
  let snap =
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("in_flight", Json.Int s.s_inflight);
      ( "max_inflight",
        match t.max_inflight with
        | Some n -> Json.Int n
        | None -> Json.Null );
      ( "shed",
        Json.Obj
          [
            ("requests", Json.Int s.s_shed_requests);
            ("connections", Json.Int s.s_shed_conns);
          ] );
      ("reaped", Json.Int s.s_reaped);
      ("deadline_refused", Json.Int s.s_deadline_refused);
      ( "connections",
        Json.Obj
          [
            ("open", Json.Int s.s_conns); ("total", Json.Int s.s_conns_total);
          ] );
      ( "served",
        Json.Int (s.s_analyze + s.s_parallelize + s.s_calc + s.s_stats
                  + s.s_health) );
      ("errors", Json.Int s.s_errors);
    ]
  in
  Mutex.unlock t.stats_lock;
  let m = memo_report ~req_hits:0 ~req_misses:0 in
  Json.Obj
    (snap
    @ [
        ("domains", Json.Int (Taskpool.workers t.pool));
        ("memo", Protocol.memo_json m);
        ("tiers", tiers_json (snapshot_lifetime t));
      ])

let handle t ~peer:_ ~id (req : Protocol.request) =
  let now = Unix.gettimeofday () in
  match req with
  | Protocol.Analyze { program; in_bounds; budget; deadline_ms } ->
    bump t (fun s -> s.s_analyze <- s.s_analyze + 1);
    let wall = wall_of ~now deadline_ms in
    admitted t ~id ~wall (fun () ->
        program_request t ~id ~program ~in_bounds ~budget ~wall
          analyze_payload)
  | Protocol.Parallelize { program; in_bounds; budget; deadline_ms } ->
    bump t (fun s -> s.s_parallelize <- s.s_parallelize + 1);
    let wall = wall_of ~now deadline_ms in
    admitted t ~id ~wall (fun () ->
        program_request t ~id ~program ~in_bounds ~budget ~wall
          parallelize_payload)
  | Protocol.Omega_calc { op; budget; deadline_ms } ->
    bump t (fun s -> s.s_calc <- s.s_calc + 1);
    let wall = wall_of ~now deadline_ms in
    admitted t ~id ~wall (fun () ->
        match
          solve t budget ~wall (fun () ->
              match Calc.eval op with
              | Ok r -> Calc.result_json r
              | Error msg -> raise (Calc_error msg))
        with
        | Ok (payload, memo, governance) ->
          ( Protocol.Result
              { id; payload; memo = Some memo; governance = Some governance },
            `Continue )
        | Error (Calc_error msg) -> err t ~id Protocol.Parse_error msg
        | Error e -> solver_error t ~id e)
  | Protocol.Stats ->
    bump t (fun s -> s.s_stats <- s.s_stats + 1);
    ( Protocol.Result
        { id; payload = stats_payload t; memo = None; governance = None },
      `Continue )
  | Protocol.Health ->
    bump t (fun s -> s.s_health <- s.s_health + 1);
    ( Protocol.Result
        { id; payload = health_payload t; memo = None; governance = None },
      `Continue )
  | Protocol.Shutdown ->
    ( Protocol.Result
        { id; payload = Json.Obj [ ("shutdown", Json.Bool true) ];
          memo = None; governance = None },
      `Shutdown )

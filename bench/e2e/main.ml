(* The end-to-end benchmark: four seeded workloads driven through the
   public entry points of Lang, Depend, Omega, Xform and Serve, every
   output checked, one JSON result line.

     main.exe [run] --workload W --seed N --seconds S --trace 0|1
              [--out FILE] [--smoke]
     main.exe selftest
     main.exe expected > bench/e2e/expected.json

   Without --workload every workload runs in its own child process.
   README.md gives the workloads, the metrics and how to read a trace. *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Service = Serve.Service
module Memo = Depend.Analyses.Memo
module Budget = Omega.Budget

let now = Unix.gettimeofday
let workloads = [ "analyze-cold"; "serve-cold"; "serve-warm"; "exec" ]

type config = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string option;
  spawned : float;  (** probe: when the parent spawned it *)
}

(* The directory of this executable: dune copies expected.json next to
   it, petitd is built two levels up, and runs write under its _run.
   Relative to the working directory when below it, because socket
   paths made under it must fit in the 108 bytes of a Unix address. *)
let here =
  let d = Filename.dirname Sys.executable_name and cwd = Sys.getcwd () in
  let n = String.length cwd + 1 in
  if d = cwd then Filename.current_dir_name
  else if String.starts_with ~prefix:(cwd ^ "/") d then String.sub d n (String.length d - n)
  else d

let run_dir () =
  let d = Filename.concat here "_run" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let petitd () = Filename.concat here "../../bin/petitd.exe"

(* ------------------------------------------------------------------ *)
(* Requests and their expected answers                                 *)
(* ------------------------------------------------------------------ *)

type op = Analyze | Parallelize

let op_name = function Analyze -> "analyze" | Parallelize -> "parallelize"

type req = {
  name : string;
  src : string;
  op : op;
  frame : string;  (** the request as sent to petitd, id 1 *)
}

let key r = op_name r.op ^ " " ^ r.name

let frame ~id src op =
  let program = src and in_bounds = false and budget = Protocol.no_budget in
  Json.to_string
    (Protocol.encode_request ~id
       (match op with
       | Analyze -> Protocol.Analyze { program; in_bounds; budget; deadline_ms = None }
       | Parallelize -> Protocol.Parallelize { program; in_bounds; budget; deadline_ms = None }))

let requests programs =
  List.concat_map
    (fun (name, src) ->
      List.map (fun op -> { name; src; op; frame = frame ~id:1 src op }) [ Analyze; Parallelize ])
    programs

let smoke_names = [ "example1"; "example2"; "example4"; "example10"; "temp_reuse"; "kill_chain" ]

let corpus cfg =
  if cfg.smoke then List.filter (fun (n, _) -> List.mem n smoke_names) Corpus.all
  else Corpus.all

(* One request as a [petit ... --json] process answers it, and as
   petitd's worker does: default budget, fresh telemetry, then
   parse -> sema -> payload -> compact JSON.  The caller decides the
   verdict cache's state.  [counts] is off when the same request's
   solver counters were already taken from the daemon's response. *)
let answer ?(counts = true) r =
  Budget.Telemetry.reset ();
  Budget.with_limits Budget.default (fun () ->
      let ast = Trace.span "parse" (fun () -> Lang.Parser.parse_string r.src) in
      let prog = Trace.span "sema" (fun () -> Lang.Sema.analyze ast) in
      let payload =
        Trace.solver_span ~counts "driver" (fun () ->
            match r.op with
            | Analyze -> Service.analyze_payload ~in_bounds:false prog
            | Parallelize -> Service.parallelize_payload ~in_bounds:false prog)
      in
      let s = Trace.span "encode" (fun () -> Json.to_string payload) in
      Trace.count "payload_bytes" (float_of_int (String.length s));
      s)

let digest s = Digest.to_hex (Digest.string s)

let write_expected () =
  let entry (name, src) =
    ( name,
      Json.Obj
        (List.map
           (fun r ->
             Memo.reset ();
             (op_name r.op, Json.Str (digest (answer r))))
           (requests [ (name, src) ])) )
  in
  print_endline
    (Json.pretty
       (Json.Obj
          [
            ( "about",
              Json.Str
                "MD5 of each compact JSON payload (Serve.Service.analyze_payload / \
                 parallelize_payload, default budget, in_bounds false) for Corpus.all \
                 and Corpus.stress" );
            ("payloads", Json.Obj (List.map entry (Corpus.all @ Corpus.stress)));
          ]))

let load_expected () =
  let ic = open_in_bin (Filename.concat here "expected.json") in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let table = Hashtbl.create 128 in
  (match Json.parse text with
  | Ok j -> (
    match Json.member "payloads" j with
    | Some (Json.Obj programs) ->
      List.iter
        (fun (name, ops) ->
          match ops with
          | Json.Obj ops ->
            List.iter
              (fun (op, d) ->
                match d with
                | Json.Str d -> Hashtbl.replace table (name, op) d
                | _ -> ())
              ops
          | _ -> ())
        programs
    | _ -> failwith "expected.json: no payloads object")
  | Error e -> failwith ("expected.json: " ^ e));
  table

(* ------------------------------------------------------------------ *)
(* Tallies and samples                                                 *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let wrong = ref 0

let report counter fmt =
  Printf.ksprintf
    (fun msg ->
      incr counter;
      if !failed + !wrong <= 20 then prerr_endline ("e2e: " ^ msg))
    fmt

let check expected r payload =
  match Hashtbl.find_opt expected (r.name, op_name r.op) with
  | Some d when d = digest payload -> ()
  | Some _ -> report wrong "wrong output: %s %s differs from expected.json" (op_name r.op) r.name
  | None -> report wrong "wrong output: no expected digest for %s %s" (op_name r.op) r.name

(* Times are kept as wall-clock intervals and read on a clock (wall or
   reference, see Calib) only when the run is over. *)
type samples = {
  mutable lat : (string * (float * float)) list;
      (** per request: what was asked, and when it was sent and answered *)
  mutable passes : (float * float) list list;  (** per pass: its requests' intervals *)
}

let samples () = { lat = []; passes = [] }

let record s pass =
  s.lat <- pass @ s.lat;
  s.passes <- List.map snd pass :: s.passes

(* An interval's seconds, wall and on [clock]. *)
let interval_times clock (t0, t1) = (t1 -. t0, clock t1 -. clock t0)

(* The k-th draw of a stream is seeded by (seed, salt, k) alone, so a
   pass's order does not depend on the time earlier passes took. *)
let stream cfg ~salt =
  let k = ref 0 in
  fun () ->
    incr k;
    Stats.rng ~seed:cfg.seed ~salt ~index:!k

(* Passes until [seconds] have gone by, at least one. *)
let passes ~seconds next f =
  let t_end = now () +. seconds in
  let rec go () =
    f (next ());
    if now () < t_end then go ()
  in
  go ()

(* The in-process workloads: one closed-loop caller, [run] returning a
   request's interval.  A pass's time is the sum of its request
   latencies, so checks and calibration between requests stay out of
   it. *)
let in_process_passes ~seconds next items s ~key run =
  passes ~seconds next (fun st ->
      record s
        (List.map
           (fun item ->
             incr attempted;
             Calib.tick ();
             (key item, run item))
           (Stats.shuffle st items)))

(* ------------------------------------------------------------------ *)
(* A prepared workload                                                 *)
(* ------------------------------------------------------------------ *)

type prepared = {
  measure : seconds:float -> samples -> unit;
      (** [~seconds:0.] is one untimed pass, the last step of set-up *)
  setups : (float -> float) -> (float * float) list;
      (** seconds per set-up, wall and on the reference clock given *)
  peak_rss : unit -> float list;  (** MiB per working process *)
  finish : unit -> unit;  (** checks left for after timing; releases children *)
  extra : unit -> (string * Json.t) list;  (** workload-specific provenance *)
}

(* Set-up of an in-process workload, timed in fresh processes of this
   program ("probe" below) from spawn until each has done everything
   the measuring process does before its first timed request: library
   initialisation, reading the expected answers, preparing the inputs
   and one untimed pass.  Work moved into any of these shows here.  A
   probe runs its own calibration chunks and reports its set-up on its
   own reference clock, counted from the moment it was spawned. *)
let setup_samples = 5

let probe_setups cfg name =
  let args =
    [ "probe"; "--workload"; name; "--seed"; string_of_int cfg.seed ]
    @ if cfg.smoke then [ "--smoke" ] else []
  in
  List.init (if cfg.smoke then 2 else setup_samples) (fun _ ->
      let t0 = now () in
      let line, t1 =
        Proc.first_line Sys.executable_name (args @ [ "--spawned"; Printf.sprintf "%.6f" t0 ])
      in
      match String.split_on_char ' ' line with
      | [ "ready"; r ] -> (t1 -. t0, float_of_string r)
      | _ -> failwith ("set-up probe printed " ^ line))

(* ------------------------------------------------------------------ *)
(* analyze-cold                                                        *)
(* ------------------------------------------------------------------ *)

let analyze_cold cfg expected =
  let programs =
    if cfg.smoke then corpus cfg @ [ List.hd Corpus.stress ] else Corpus.all @ Corpus.stress
  in
  let items = requests programs in
  let run r =
    let t0 = now () in
    let payload =
      Trace.request "request" (fun () ->
          Memo.reset ();
          answer r)
    in
    let t1 = now () in
    check expected r payload;
    (t0, t1)
  in
  let next = stream cfg ~salt:1 in
  {
    measure = (fun ~seconds s -> in_process_passes ~seconds next items s ~key run);
    setups = (fun _ -> probe_setups cfg "analyze-cold");
    peak_rss = (fun () -> [ Proc.peak_rss_mb 0 ]);
    finish = ignore;
    extra = (fun () -> [ ("programs", Json.Int (List.length programs)) ]);
  }

(* ------------------------------------------------------------------ *)
(* exec                                                                *)
(* ------------------------------------------------------------------ *)

(* Deterministic nonzero array contents, as in the speedup bench. *)
let init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

type exec_prog = {
  e_name : string;
  e_src : string;
  e_syms : (string * int) list;
  mutable e_digests : string list;  (** final state of every timed run *)
}

(* Each program sized like the speedup bench: symbolic constants near
   [target ** (1 / depth)] for a nest of [depth] loops.  A program the
   interpreter cannot run at small sizes (index-array bounds) has no
   reference to check against and is left out. *)
let exec_programs cfg =
  let target = if cfg.smoke then 8_000 else 50_000 in
  List.filter_map
    (fun (name, src) ->
      Calib.tick ();
      let prog = Lang.Sema.parse_and_analyze src in
      let runnable =
        match Xform.Oracle.pick_syms prog with
        | None -> false
        | Some syms -> (
          match Xform.Exec.run_serial ~init prog ~syms with
          | _ -> true
          | exception Lang.Interp.Runtime_error _ -> false)
      in
      let depth =
        List.fold_left
          (fun d (l : Xform.Graph.loop_info) -> max d l.Xform.Graph.l_depth)
          1 (Xform.Graph.build prog).Xform.Graph.loops
      in
      let scale = max 4 (int_of_float (float_of_int target ** (1. /. float_of_int depth))) in
      match
        Xform.Oracle.pick_syms
          ~candidates:[ scale; scale / 2; 100; 50; 10; 8; 6; 5; 4; 3; 2; 1 ]
          prog
      with
      | Some syms when runnable -> Some { e_name = name; e_src = src; e_syms = syms; e_digests = [] }
      | _ -> None)
    (corpus cfg)

type exec_result =
  | Vm of Lang.Vm.t * Xform.Exec.stats * Lang.Compile.unit_ * Lang.Opt.report * Xform.Restructure.report
  | Interp of Xform.Exec.mem * Xform.Exec.stats * Xform.Restructure.report

(* Source to final memory: restructure, then plan, compile, optimize and
   run the restructured program on the VM; a program the compiler does
   not support runs the same plan on the interpreter's executor. *)
let exec_pipeline pool p =
  Memo.reset ();
  let ast = Trace.span "parse" (fun () -> Lang.Parser.parse_string p.e_src) in
  let ast, xr = Trace.solver_span "restructure" (fun () -> Xform.Restructure.optimize ast) in
  let prog = Trace.span "sema" (fun () -> Lang.Sema.analyze ast) in
  let g = Trace.solver_span "driver" (fun () -> Xform.Graph.build prog) in
  let plan =
    Trace.span "plan" (fun () -> Xform.Exec.plan Xform.Exec.Ext (Xform.Parallel.analyze g))
  in
  match Trace.span "codegen" (fun () -> Xform.Exec.compile_plan plan prog ~syms:p.e_syms) with
  | u ->
    let u, rep = Trace.span "opt" (fun () -> Lang.Opt.optimize u) in
    let vm, st = Trace.span "vm" (fun () -> Xform.Exec.run_compiled_vm ~pool ~init u) in
    Vm (vm, st, u, rep, xr)
  | exception Lang.Compile.Unsupported _ ->
    let mem, st =
      Trace.span "interp" (fun () -> Xform.Exec.run_parallel ~pool ~init plan prog ~syms:p.e_syms)
    in
    Interp (mem, st, xr)

let state_digest = function
  | Vm (vm, _, _, _, _) -> digest (Marshal.to_string (Lang.Vm.arena vm) [])
  | Interp (mem, _, _) -> digest (Marshal.to_string mem [])

(* Counts of one traced run; the dynamic instruction count re-runs the
   unit on the counting twin of the VM, outside every span. *)
let count_exec r =
  let c name v = Trace.count name (float_of_int v) in
  let st, xr =
    match r with
    | Vm (_, st, u, rep, xr) ->
      c "elided" rep.Lang.Opt.r_elided;
      c "superinsts" rep.Lang.Opt.r_fused;
      c "loopi" rep.Lang.Opt.r_loopi;
      c "static_instrs" (List.fold_left (fun a (_, n) -> a + n) 0 (Lang.Opt.static_counts u));
      c "dyn_instrs" (Lang.Vm.run_count (Lang.Vm.create ~init u));
      (st, xr)
    | Interp (_, st, xr) ->
      c "interp_fallbacks" 1;
      (st, xr)
  in
  c "fused" xr.Xform.Restructure.x_fused;
  c "interchanged" xr.Xform.Restructure.x_interchanged;
  c "killed" xr.Xform.Restructure.x_killed;
  c "regions" st.Xform.Exec.x_regions;
  c "chunks" st.Xform.Exec.x_chunks;
  c "inline_regions" st.Xform.Exec.x_inline

let exec cfg =
  Lang.Opt.all_on ();
  let programs = exec_programs cfg in
  let pool = Xform.Exec.create_pool ~size:1 () in
  let run p =
    let t0 = now () in
    let r = Trace.request "request" (fun () -> exec_pipeline pool p) in
    let t1 = now () in
    p.e_digests <- state_digest r :: p.e_digests;
    if !Trace.on then count_exec r;
    (t0, t1)
  in
  (* The reference is the interpreter's serial run, made after timing so
     that neither set-up nor the working set carries it. *)
  let finish () =
    List.iter
      (fun p ->
        let reference =
          Xform.Exec.run_serial ~init (Lang.Sema.parse_and_analyze p.e_src) ~syms:p.e_syms
        in
        let r = exec_pipeline pool p in
        let ok =
          match r with
          | Vm (vm, _, _, _, _) -> Lang.Vm.check_against ~init vm reference = []
          | Interp (mem, _, _) -> Xform.Exec.equal_mem reference mem
        in
        if not ok then report wrong "wrong output: exec %s differs from the interpreter" p.e_name;
        let d = state_digest r in
        if List.exists (( <> ) d) p.e_digests then
          report wrong "wrong output: exec %s final state varies between runs" p.e_name)
      programs;
    Xform.Exec.shutdown pool
  in
  let next = stream cfg ~salt:5 in
  {
    measure =
      (fun ~seconds s -> in_process_passes ~seconds next programs s ~key:(fun p -> p.e_name) run);
    setups = (fun _ -> probe_setups cfg "exec");
    peak_rss = (fun () -> [ Proc.peak_rss_mb 0 ]);
    finish;
    extra =
      (fun () ->
        [
          ( "programs",
            Json.List
              (List.map
                 (fun p ->
                   Json.Obj
                     [
                       ("name", Json.Str p.e_name);
                       ("syms", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) p.e_syms));
                     ])
                 programs) );
        ]);
  }

(* ------------------------------------------------------------------ *)
(* petitd workloads                                                    *)
(* ------------------------------------------------------------------ *)

(* Inside the clock the client only writes a request frame encoded
   beforehand and reads the whole answer frame; decoding and checking
   come after, so the client takes as little processor time from the
   daemon as it can. *)
type reply = {
  r : req;
  id : int;
  t_send : float;
  t_due : float;  (** open loop: when it was due; closed loop: [t_send] *)
  t_recv : float;
  answer : (string, string) result;  (** the raw answer frame *)
}

let receive ~deadline fd =
  match Protocol.read_frame ~deadline ~max:Protocol.default_max_frame fd with
  | Ok frame -> Ok frame
  | Error _ -> Error "connection closed or timed out"

let send ~deadline fd frame =
  match Protocol.write_frame ~deadline fd frame with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let decode rep = Result.bind rep.answer (fun f -> Result.bind (Json.parse f) Protocol.decode_response)

let rec field j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun j -> field j rest)

let int_at j path = Option.value (Option.bind (field j path) Json.to_int_opt) ~default:0

(* The request span as the client sees it, with the daemon's own tier
   times (from the response's governance block) as children. *)
let trace_reply rep governance memo =
  let req = Trace.fresh_req () in
  let root = Trace.add ~parent:0 ~req "rtt" rep.t_send rep.t_recv in
  (match governance with
  | Some g ->
    let tier name =
      let ms = Option.bind (field g [ "tiers"; name; "ms" ]) Json.to_float_opt in
      ( int_at g [ "tiers"; name; "attempts" ],
        int_at g [ "tiers"; name; "decides" ],
        Option.value ms ~default:0. /. 1000. )
    in
    Trace.add_tiers ~parent:root ~req ~t0:rep.t_send (Array.map tier Trace.tier_names);
    Trace.count "solver_queries" (float_of_int (int_at g [ "queries" ]));
    Trace.count "gave_up"
      (float_of_int
         (List.fold_left
            (fun a k -> a + int_at g [ "gave_up"; k ])
            0
            [ "fuel"; "splinters"; "disjuncts"; "deadline"; "injected"; "incomplete" ]));
    Trace.peak "peak_fuel" (float_of_int (int_at g [ "peak_fuel" ]))
  | None -> ());
  Option.iter
    (fun m ->
      Trace.count "memo_hits" (float_of_int m.Protocol.mr_req_hits);
      Trace.count "memo_misses" (float_of_int m.Protocol.mr_req_misses))
    memo

(* Check one answer; false when the request failed. *)
let note_reply expected rep =
  incr attempted;
  match decode rep with
  | Ok (Protocol.Result { id; payload; governance; memo }) when id = rep.id ->
    check expected rep.r (Json.to_string payload);
    if !Trace.on then trace_reply rep governance memo;
    true
  | Ok (Protocol.Result { id; _ }) ->
    report failed "failed: %s: answer %d to request %d" (key rep.r) id rep.id;
    false
  | Ok (Protocol.Error_ { code; message; _ }) ->
    report failed "failed: %s: %s: %s" (key rep.r) (Protocol.error_code_to_string code) message;
    false
  | Error e ->
    report failed "failed: %s: %s" (key rep.r) e;
    false

(* The same requests answered in-process, in send order, against an
   in-process verdict cache in the daemon's state: the per-layer split
   that the daemon's response does not carry. *)
let replay replies =
  List.iter
    (fun rep ->
      Calib.tick ();
      ignore (Trace.request "replay" (fun () -> answer ~counts:false rep.r)))
    replies

(* Closed loop over one connection: each request is sent when the
   previous answer has arrived, and calibration chunks run in between,
   while nothing is in flight.  Once the connection breaks, the rest of
   the pass fails without waiting. *)
let closed_pass d items =
  let fd = Proc.connect d and broken = ref false in
  let replies =
    List.map
      (fun r ->
        if !broken then
          { r; id = 1; t_send = nan; t_due = nan; t_recv = nan; answer = Error "connection broken" }
        else begin
          Calib.tick ();
          let t_send = now () in
          let deadline = t_send +. 30. in
          let answer = Result.bind (send ~deadline fd r.frame) (fun () -> receive ~deadline fd) in
          broken := Result.is_error answer;
          { r; id = 1; t_send; t_due = t_send; t_recv = now (); answer }
        end)
      items
  in
  Unix.close fd;
  replies

(* [daemon] gives each pass its daemon and [order] its requests;
   [after_pass] runs once the pass is answered and before its replies
   are checked and replayed.  A pass takes the sum of its request
   latencies. *)
let closed_passes ~seconds ~daemon ~after_pass ~order next expected s =
  passes ~seconds next (fun st ->
      let d = daemon () in
      let replies = closed_pass d (order st) in
      after_pass d;
      record s
        (List.filter_map
           (fun rep ->
             if note_reply expected rep then Some (key rep.r, (rep.t_send, rep.t_recv)) else None)
           replies);
      if !Trace.on then replay replies)

let socket_path k = Filename.concat (run_dir ()) (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k)

(* The daemon's own account (requests, errors, shed, reaped, memo,
   tiers), from its stats and health endpoints, for the result file. *)
let daemon_report d =
  let payload req =
    match Proc.request d req with
    | Ok (Protocol.Result { payload; _ }) -> payload
    | _ -> Json.Null
  in
  Json.Obj [ ("stats", payload Protocol.Stats); ("health", payload Protocol.Health) ]

(* A fresh one-domain daemon per pass, answering one client over one
   connection that analyzes and then parallelizes each program, the
   programs in a seeded order.  The two requests of a program share
   verdicts, so which comes first decides what each costs; drawing that
   order too split cholsky's requests, the tail, into two clusters and
   made p99 jump between them from seed to seed.  A second connection
   would add no service capacity, only a queue behind the other's
   request, whose wait made the median swing several times as much
   from run to run.  Set-up is each daemon's, from spawn until it
   answers [health], between two calibration chunks. *)
let serve_cold cfg expected =
  let programs = corpus cfg and exe = petitd () and rss = ref [] in
  let spawned = ref 0 and setups = ref [] and last = ref Json.Null in
  let daemon () =
    incr spawned;
    Calib.sample ();
    let t0 = now () in
    let d = Proc.start_daemon ~exe ~path:(socket_path !spawned) in
    setups := (t0, now ()) :: !setups;
    Calib.sample ();
    d
  in
  let after_pass d =
    rss := Proc.peak_rss_mb d.Proc.pid :: !rss;
    last := daemon_report d;
    Proc.stop_daemon d;
    (* the replay starts from an empty cache, as this daemon did *)
    if !Trace.on then Memo.reset ()
  in
  let next = stream cfg ~salt:2 in
  {
    measure =
      (fun ~seconds s ->
        closed_passes ~seconds ~daemon ~after_pass
          ~order:(fun st -> requests (Stats.shuffle st programs))
          next expected s);
    setups = (fun clock -> List.map (interval_times clock) !setups);
    peak_rss = (fun () -> !rss);
    finish = ignore;
    extra = (fun () -> [ ("daemons", Json.Int !spawned); ("last_daemon", !last) ]);
  }

(* Open loop, for the result file's rate ladder only: one generator
   thread sends each request on a seeded Poisson schedule, alternating
   between two pipelined connections; one reader per connection takes
   the answers, which a connection returns in the order it was sent
   them.  The mix is drawn in seeded permutations of [items]. *)
let open_loop d st ~rate ~duration items =
  let bag = ref [] in
  let draw () =
    if !bag = [] then bag := Stats.shuffle st items;
    let r = List.hd !bag in
    bag := List.tl !bag;
    r
  in
  let sched =
    Array.of_list
      (List.mapi
         (fun k due ->
           let r = draw () in
           (due, r, frame ~id:(k + 1) r.src r.op))
         (Stats.arrivals st ~rate ~duration))
  in
  let n = Array.length sched in
  let fds = [| Proc.connect d; Proc.connect d |] in
  let sent = Array.make n nan and recv = Array.make n nan in
  let answers = Array.make n (Error "no answer") in
  let deadline = now () +. duration +. 30. in
  let reader c () =
    let rec go k =
      if k < n then
        match receive ~deadline fds.(c) with
        | Ok frame ->
          recv.(k) <- now ();
          answers.(k) <- Ok frame;
          go (k + 2)
        | Error e -> answers.(k) <- Error e
    in
    go c
  in
  let readers = Array.init 2 (fun c -> Thread.create (reader c) ()) in
  let start = now () +. 0.005 in
  Array.iteri
    (fun k (due, _, frame) ->
      let w = start +. due -. now () in
      if w > 0. then Thread.delay w;
      sent.(k) <- now ();
      match send ~deadline fds.(k mod 2) frame with
      | Ok () -> ()
      | Error e -> answers.(k) <- Error e)
    sched;
  Array.iter Thread.join readers;
  Array.iter Unix.close fds;
  List.init n (fun k ->
      let due, r, _ = sched.(k) in
      { r; id = k + 1; t_send = sent.(k); t_due = start +. due; t_recv = recv.(k); answer = answers.(k) })

(* A warmed daemon answering the same client as serve-cold: one
   connection, closed loop, the requests in a seeded order.  Set-up is
   spawn until [health] answers, then three untimed passes that fill the
   verdict cache, timed [setup_samples] times; the last daemon is the
   one measured.  The answers of set-up are checked after its clock
   stops. *)
let serve_warm cfg expected =
  let items = requests (corpus cfg) and exe = petitd () in
  let warm_order = stream cfg ~salt:3 in
  let start k =
    Calib.sample ();
    let t0 = now () in
    let d = Proc.start_daemon ~exe ~path:(socket_path k) in
    let replies =
      List.concat
        (List.init (if cfg.smoke then 1 else 3) (fun _ ->
             closed_pass d (Stats.shuffle (warm_order ()) items)))
    in
    let t1 = now () in
    Calib.sample ();
    List.iter (fun rep -> ignore (note_reply expected rep)) replies;
    (d, (t0, t1))
  in
  let n_setups = if cfg.smoke then 2 else setup_samples in
  let rec setups k acc =
    let d, t = start k in
    if k = n_setups then (d, t :: acc)
    else begin
      Proc.stop_daemon d;
      setups (k + 1) (t :: acc)
    end
  in
  let d, setup_times = setups 1 [] in
  (* the replay's cache is warmed the same way *)
  Memo.reset ();
  List.iter (fun r -> ignore (answer r)) items;
  let pass_order = stream cfg ~salt:4 in
  let measure ~seconds s =
    closed_passes ~seconds
      ~daemon:(fun () -> d)
      ~after_pass:ignore
      ~order:(fun st -> Stats.shuffle st items)
      pass_order expected s
  in
  (* For information only, recorded when a result file is written:
     open-loop p50/p99 and send lateness at four rates, on the wall
     clock, and the highest rate that keeps p99 within 100 ms. *)
  let ladder = ref [] and last = ref Json.Null in
  let rung i rate =
    let st = Stats.rng ~seed:cfg.seed ~salt:7 ~index:i in
    let ok =
      List.filter (note_reply expected)
        (open_loop d st ~rate ~duration:(if cfg.smoke then 0.3 else 5.) items)
    in
    let ms f = Stats.sorted (List.map (fun rep -> 1000. *. f rep) ok) in
    let lat = ms (fun rep -> rep.t_recv -. rep.t_due) and late = ms (fun rep -> rep.t_send -. rep.t_due) in
    if Array.length lat > 0 then
      ladder :=
        !ladder
        @ [ (rate, Stats.percentile 0.5 lat, Stats.percentile 0.99 lat, Stats.percentile 0.99 late) ]
  in
  let finish () =
    if cfg.out <> None then List.iteri rung [ 100.; 200.; 300.; 400. ];
    last := daemon_report d;
    Proc.stop_daemon d
  in
  let extra () =
    let rung (rate, p50, p99, late) =
      Json.Obj
        [ ("rate", Json.Float rate); ("p50_ms", Json.Float p50); ("p99_ms", Json.Float p99);
          ("send_late_p99_ms", Json.Float late) ]
    in
    [
      ("daemon", !last);
      ("ladder", Json.List (List.map rung !ladder));
      ( "ladder_max_rate_p99_le_100ms",
        match List.filter (fun (_, _, p99, _) -> p99 <= 100.) !ladder with
        | [] -> Json.Null
        | ok -> Json.Float (List.fold_left (fun a (r, _, _, _) -> Float.max a r) 0. ok) );
    ]
  in
  {
    measure;
    setups = (fun clock -> List.map (interval_times clock) setup_times);
    peak_rss = (fun () -> [ Proc.peak_rss_mb d.Proc.pid ]);
    finish;
    extra;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_n : int;  (** samples behind the value *)
  m_summary : Stats.summary option;  (** spread of those samples *)
}

let metric ?summary m_name m_unit m_value m_n =
  { m_name; m_unit; m_value; m_n; m_summary = summary }

(* Each request's median latency over the run's passes, one value per
   request of the workload's set. *)
let request_medians dur lat =
  let by = Hashtbl.create 128 in
  List.iter
    (fun (k, i) -> Hashtbl.replace by k (dur i :: Option.value (Hashtbl.find_opt by k) ~default:[]))
    lat;
  Hashtbl.fold (fun _ xs acc -> Stats.percentile 0.5 (Stats.sorted xs) :: acc) by []

(* The end-to-end metrics with times read on [clock] (the reference
   clock, or wall time for the printed comparison); [setups] in seconds
   on the same clock.  p50 is over every latency sample.  p99 is over
   the per-request medians: a closed loop replays one fixed set of
   requests, so the tail is a few heavy requests, each sampled once a
   pass, and the nearest rank over all samples would fall on the edge
   between two of them. *)
let end_to_end ~clock ~setups ~rss s =
  let dur (t0, t1) = 1000. *. (clock t1 -. clock t0) in
  let lat_ms = List.map (fun (_, i) -> dur i) s.lat in
  let lat = Stats.sorted lat_ms in
  let per_request = request_medians dur s.lat in
  let pass = Stats.summarize (List.map (fun p -> Stats.sum (List.map dur p)) s.passes) in
  let setup = Stats.summarize setups in
  [
    metric ~summary:setup "setup_s" "s" setup.Stats.median setup.Stats.n;
    metric ~summary:(Stats.summarize lat_ms) "p50_ms" "ms" (Stats.percentile 0.5 lat) (Array.length lat);
    metric ~summary:(Stats.summarize per_request) "p99_ms" "ms"
      (Stats.percentile 0.99 (Stats.sorted per_request))
      (List.length per_request);
    metric ~summary:pass "pass_ms" "ms" pass.Stats.median pass.Stats.n;
    metric ~summary:(Stats.summarize rss) "peak_rss_mb" "MiB"
      (List.fold_left Float.max 0. rss) (List.length rss);
  ]

(* Per-layer metrics of the traced half of a trace run, times on the
   reference clock.  [main] is the request span (the client's round
   trip on petitd workloads); [work] the tree holding
   parse/sema/driver/encode (the in-process replay on petitd
   workloads). *)
let per_layer ~clock ~serve ~untraced ~traced =
  let t = Trace.table ~clock () in
  let p50 s =
    Stats.percentile 0.5 (Stats.sorted (List.map (fun (_, (t0, t1)) -> clock t1 -. clock t0) s.lat))
  in
  let main, work = if serve then ("rtt", "replay") else ("request", "request") in
  let root = Trace.layer t ~root:main main in
  let n = root.Trace.l_count and total = root.Trace.l_total in
  let nf = float_of_int (max 1 n) in
  let ms_per x = 1000. *. x /. nf in
  let pct x = if total > 0. then 100. *. x /. total else 0. in
  let w name = Trace.layer t ~root:work name in
  let m name unit v = metric name unit v n in
  let times =
    [
      m "request_ms" "ms" (ms_per total);
      m "parse_ms" "ms" (ms_per (w "parse").Trace.l_total);
      m "sema_ms" "ms" (ms_per (w "sema").Trace.l_total);
      m "driver_ms" "ms" (ms_per (w "driver").Trace.l_total);
      m "driver_self_ms" "ms" (ms_per (w "driver").Trace.l_self);
      m "residual_ms" "ms" (ms_per root.Trace.l_self);
      m "overhead_ms" "ms" (1000. *. (p50 traced -. p50 untraced));
    ]
  in
  let shares =
    List.map
      (fun (name, v) -> m (name ^ "_pct") "%" (pct v))
      ([
         ("tier_screen", (Trace.layer t ~root:main "tier.screen").Trace.l_total);
         ("tier_fast", (Trace.layer t ~root:main "tier.fast").Trace.l_total);
         ("tier_complete", (Trace.layer t ~root:main "tier.complete").Trace.l_total);
         ("encode", (w "encode").Trace.l_total);
         ( "transport",
           if serve then total -. (Trace.layer t ~root:work work).Trace.l_total else 0. );
       ]
      @ List.map
          (fun l -> (l, (w l).Trace.l_total))
          [ "restructure"; "plan"; "codegen"; "opt"; "vm"; "interp" ])
  in
  let per_req name = m name "count/req" (Trace.get name /. nf) in
  let ratio name hits misses =
    let h = Trace.get hits and mi = Trace.get misses in
    m name "ratio" (if h +. mi > 0. then h /. (h +. mi) else 0.)
  in
  let counts =
    List.map per_req
      ([ "memo_hits"; "memo_misses" ]
      @ List.concat_map
          (fun tier -> [ "tier_" ^ tier ^ "_attempts"; "tier_" ^ tier ^ "_decides" ])
          (Array.to_list Trace.tier_names)
      @ [
          "solver_queries"; "gave_up"; "fm_eliminations"; "fm_splits"; "pruned_interval";
          "payload_bytes"; "fused"; "interchanged"; "killed"; "elided"; "superinsts"; "loopi";
          "static_instrs"; "dyn_instrs"; "regions"; "chunks"; "inline_regions"; "interp_fallbacks";
        ])
    @ [
        ratio "memo_hit_rate" "memo_hits" "memo_misses";
        m "peak_fuel" "count" (Trace.get "peak_fuel");
      ]
  in
  (times @ shares @ counts, t)

let print_metrics title ms =
  Printf.printf "%s\n%-24s %-9s %7s %12s %12s %12s %14s\n" title "metric" "unit" "n" "q1"
    "median" "q3" "value";
  List.iter
    (fun m ->
      let q f = match m.m_summary with Some s -> Printf.sprintf "%.4f" (f s) | None -> "-" in
      Printf.printf "%-24s %-9s %7d %12s %12s %12s %14.6f\n" m.m_name m.m_unit m.m_n
        (q (fun s -> s.Stats.q1))
        (q (fun s -> s.Stats.median))
        (q (fun s -> s.Stats.q3))
        m.m_value)
    ms

let print_layers t =
  Printf.printf "\nlayers (self time; share of the request span of the same root)\n";
  Printf.printf "%-8s %-16s %8s %12s %12s %8s\n" "root" "span" "count" "total_ms" "self_ms" "share";
  let root_total r = (Trace.layer t ~root:r r).Trace.l_total in
  List.iter
    (fun ((r, name), l) ->
      Printf.printf "%-8s %-16s %8d %12.3f %12.3f %7.2f%%\n" r
        (if name = r then "(residual)" else name)
        l.Trace.l_count (1000. *. l.Trace.l_total) (1000. *. l.Trace.l_self)
        (100. *. l.Trace.l_self /. Float.max 1e-12 (root_total r)))
    t.Trace.layers;
  Printf.printf "self times + residual = request span, to within %.3g ms\n"
    (1000. *. t.Trace.identity_error)

let metric_json m =
  let base = [ ("value", Json.Float m.m_value); ("unit", Json.Str m.m_unit); ("n", Json.Int m.m_n) ] in
  Json.Obj
    (base
    @
    match m.m_summary with
    | Some s ->
      [ ("q1", Json.Float s.Stats.q1); ("median", Json.Float s.Stats.median); ("q3", Json.Float s.Stats.q3) ]
    | None -> [])

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let prepare cfg name =
  let expected = load_expected () in
  match name with
  | "analyze-cold" -> analyze_cold cfg expected
  | "exec" -> exec cfg
  | "serve-cold" -> serve_cold cfg expected
  | "serve-warm" -> serve_warm cfg expected
  | _ -> failwith ("unknown workload " ^ name)

let run_workload cfg ~cpu name =
  Calib.sample ();
  let w = prepare cfg name in
  (* one untimed pass first, so heap growth and cold caches of this
     process stay out of the numbers *)
  w.measure ~seconds:0. (samples ());
  let untraced = samples () in
  let traced = samples () in
  if cfg.trace then begin
    w.measure ~seconds:(cfg.seconds /. 2.) untraced;
    Trace.on := true;
    w.measure ~seconds:(cfg.seconds /. 2.) traced;
    Trace.on := false
  end
  else w.measure ~seconds:cfg.seconds untraced;
  Calib.sample ();
  let rss = w.peak_rss () in
  w.finish ();
  let clock = Calib.clock () in
  let chunks = Stats.summarize (List.map (fun c -> 1000. *. c) (Calib.durations ())) in
  let setups = w.setups clock in
  let e2e = end_to_end ~clock ~setups:(List.map snd setups) ~rss untraced in
  let e2e_wall = end_to_end ~clock:Fun.id ~setups:(List.map fst setups) ~rss untraced in
  let layers =
    if cfg.trace then
      Some (per_layer ~clock ~serve:(String.starts_with ~prefix:"serve" name) ~untraced ~traced)
    else None
  in
  Printf.printf "workload %s, seed %d, %g s%s%s, processor %s\n" name cfg.seed cfg.seconds
    (if cfg.trace then ", traced" else "")
    (if cfg.smoke then ", smoke" else "")
    (if cpu < 0 then "not pinned" else string_of_int cpu);
  Printf.printf
    "calibration: %d chunks, median %.4f ms (reference %.4f ms), quartiles %.4f-%.4f ms\n"
    chunks.Stats.n chunks.Stats.median (1000. *. Calib.reference) chunks.Stats.q1 chunks.Stats.q3;
  print_metrics
    (if cfg.trace then "end-to-end, reference clock (untraced half)" else "end-to-end, reference clock")
    e2e;
  print_metrics "end-to-end, wall clock" e2e_wall;
  Printf.printf "%d latency samples in %d passes\n" (List.length untraced.lat)
    (List.length untraced.passes);
  (match layers with
  | Some (ms, t) ->
    print_newline ();
    print_metrics "per-layer (traced half)" ms;
    print_layers t;
    Trace.write_spans
      (Filename.concat (run_dir ()) (Printf.sprintf "spans-%s-%d.jsonl" name cfg.seed))
  | None -> ());
  let correct = !wrong = 0 in
  Printf.printf "attempted %d, failed %d, wrong %d\n" !attempted !failed !wrong;
  let reported = match layers with Some (ms, _) -> ms | None -> e2e in
  (match cfg.out with
  | None -> ()
  | Some path ->
    let metrics ms = Json.Obj (List.map (fun m -> (m.m_name, metric_json m)) ms) in
    let j =
      Json.Obj
        ([
           ("workload", Json.Str name);
           ("seed", Json.Int cfg.seed);
           ("seconds", Json.Float cfg.seconds);
           ("trace", Json.Bool cfg.trace);
           ("smoke", Json.Bool cfg.smoke);
           ("nproc", Json.Int (Domain.recommended_domain_count ()));
           ("pinned_cpu", Json.Int cpu);
           ("ocaml", Json.Str Sys.ocaml_version);
           ("commit", Json.Str (Option.value (Sys.getenv_opt "PETIT_COMMIT") ~default:""));
           ("correct", Json.Bool correct);
           ("attempted", Json.Int !attempted);
           ("failed", Json.Int !failed);
           ( "calibration",
             Json.Obj
               [
                 ("chunks", Json.Int chunks.Stats.n);
                 ("reference_ms", Json.Float (1000. *. Calib.reference));
                 ("q1_ms", Json.Float chunks.Stats.q1);
                 ("median_ms", Json.Float chunks.Stats.median);
                 ("q3_ms", Json.Float chunks.Stats.q3);
               ] );
           ("end_to_end", metrics e2e);
           ("end_to_end_wall", metrics e2e_wall);
         ]
        @ (match layers with
          | Some (ms, t) ->
            [
              ("per_layer", metrics ms);
              ("identity_error_ms", Json.Float (1000. *. t.Trace.identity_error));
            ]
          | None -> [])
        @ w.extra ())
    in
    let oc = open_out path in
    output_string oc (Json.pretty j);
    output_char oc '\n';
    close_out oc);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     (m.m_name, Json.Obj [ ("value", Json.Float m.m_value); ("unit", Json.Str m.m_unit) ]))
                   reported) );
          ]));
  exit (if correct && !failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* A set-up probe: everything the measuring process does before its
   first timed request, then report ready with the reference seconds
   since it was spawned. *)
let probe cfg name =
  Calib.sample ();
  (prepare cfg name).measure ~seconds:0. (samples ());
  let t = now () in
  Calib.sample ();
  let clock = Calib.clock () in
  Printf.printf "ready %.17g\n%!" (clock t -. clock cfg.spawned)

let selftest () =
  let fail msg =
    prerr_endline ("selftest: " ^ msg);
    exit 1
  in
  (* nearest rank: the ⌈p·n⌉-th smallest *)
  List.iter
    (fun (p, n, want) ->
      if Stats.rank p n <> want then
        fail (Printf.sprintf "rank %g of %d = %d, want %d" p n (Stats.rank p n) want))
    [ (0.5, 4, 2); (0.5, 5, 3); (0.99, 100, 99); (0.99, 1000, 990); (0.99, 1001, 991);
      (0.25, 8, 2); (0.29, 100, 29); (1.0, 7, 7); (0.0, 7, 1); (0.01, 10, 1) ];
  let a = Stats.sorted (List.init 200 (fun i -> float_of_int (200 - i))) in
  if Stats.percentile 0.99 a <> 198. then fail "p99 of 1..200 is not 198";
  (* the seed alone fixes every order and schedule *)
  let items = List.init 98 Fun.id in
  let order seed i = Stats.shuffle (Stats.rng ~seed ~salt:1 ~index:i) items in
  if order 1 3 <> order 1 3 then fail "shuffle differs for one seed";
  if order 1 3 = order 2 3 || order 1 3 = order 1 4 then fail "shuffle ignores seed or pass";
  if List.sort compare (order 7 0) <> items then fail "shuffle is not a permutation";
  let sched seed = Stats.arrivals (Stats.rng ~seed ~salt:4 ~index:1) ~rate:200. ~duration:20. in
  if sched 1 <> sched 1 then fail "arrivals differ for one seed";
  if sched 1 = sched 2 then fail "arrivals ignore the seed";
  let s = sched 1 in
  if List.sort compare s <> s then fail "arrivals out of order";
  if abs (List.length s - 4000) > 300 then fail "arrival count far from rate x duration";
  print_endline "selftest ok"

(* Each workload in its own child process, one after the other; with
   [--out F] each writes F.<workload>. *)
let all_workloads cfg =
  let failed =
    List.filter
      (fun w ->
        let args =
          [ "--workload"; w; "--seed"; string_of_int cfg.seed; "--seconds";
            Printf.sprintf "%g" cfg.seconds; "--trace"; (if cfg.trace then "1" else "0") ]
          @ (if cfg.smoke then [ "--smoke" ] else [])
          @ match cfg.out with Some f -> [ "--out"; f ^ "." ^ w ] | None -> []
        in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        Proc.live := pid :: !Proc.live;
        Proc.reap pid <> Unix.WEXITED 0)
      workloads
  in
  List.iter (fun w -> Printf.eprintf "e2e: workload %s failed\n" w) failed;
  exit (if failed = [] then 0 else 1)

let parse_config args =
  let workload = ref None and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let smoke = ref false and out = ref None and spawned = ref nan in
  let spec =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed of every order, mix and schedule");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run instead of end-to-end");
      ("--out", Arg.String (fun f -> out := Some f), "FILE also write the full result here");
      ("--smoke", Arg.Set smoke, " small inputs, for the test suite");
      ("--spawned", Arg.Set_float spawned, "T set-up probes only: when the parent spawned it");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list (Sys.executable_name :: args))
       spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "main.exe [run|selftest|expected] [options]"
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  {
    workload = !workload;
    seed = !seed;
    seconds = (if Float.is_nan !seconds then if !smoke then 1. else 20. else !seconds);
    trace = !trace <> 0;
    smoke = !smoke;
    out = !out;
    spawned = !spawned;
  }

(* Every process of a run, daemons and probes included, shares one
   processor: the one the calibration chunks measure. *)
external pin_last_cpu : unit -> int = "e2e_pin_last_cpu"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* exit through at_exit, which kills and reaps any child left *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest ()
  | [ "expected" ] -> write_expected ()
  | args -> (
    let probing = args <> [] && List.hd args = "probe" in
    let cfg = parse_config (match args with ("run" | "probe") :: rest -> rest | _ -> args) in
    let cpu = pin_last_cpu () in
    match cfg.workload with
    | Some w when List.mem w workloads ->
      if probing then probe cfg w else run_workload cfg ~cpu w
    | Some w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
    | None -> all_workloads cfg)

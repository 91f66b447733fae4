(* petit: the analyzer CLI, our stand-in for Wolfe's tiny tool augmented
   with the extended Omega test.

   Subcommands:
     analyze FILE      full dependence analysis (Figures 3/4 style tables)
     deps FILE         standard dependences only (flow/anti/output)
     parallelize FILE  doall legality per loop, standard vs extended
     graph FILE        statement dependence graph (DOT or JSON)
     run FILE -s n=4   execute the program and print dynamic dependences
     corpus [NAME]     list bundled corpus programs / print one *)

open Cmdliner
open Depend

let load path =
  if Sys.file_exists path then Lang.Parser.parse_file path
  else
    (* convenience: corpus programs can be named directly *)
    Lang.Parser.parse_string (Corpus.find path)

let with_errors f =
  try f () with
  | Lang.Parser.Error (msg, pos) ->
    Printf.eprintf "parse error at line %d, column %d: %s\n" pos.Lang.Ast.line
      pos.Lang.Ast.col msg;
    exit 1
  | Lang.Sema.Error msg | Lang.Compile.Unsupported msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | e -> (
    (* a coefficient that overflowed while a query was being built,
       outside any query boundary: the whole request gives up *)
    match Omega.Budget.reason_of_exn e with
    | Some r ->
      Printf.eprintf "gave up (%s)\n" (Omega.Budget.reason_to_string r);
      exit 2
    | None -> raise e)

(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Program to analyze (a path or a corpus name).")

let in_bounds_arg =
  Arg.(
    value & flag
    & info [ "in-bounds" ]
        ~doc:"Assume all array references are within declared bounds.")

(* Per-query resource budgets (see DESIGN.md, "Resource governance").
   Exhaustion never aborts the analysis: the affected query reports
   [gave up] and its client falls back to the sound conservative
   answer.  The flags build a Protocol.budget_spec so the same values
   can ride a --connect request unchanged. *)
let budget_spec_term =
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Elimination-step budget per solver query.")
  in
  let splinters_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "splinters" ] ~docv:"N"
          ~doc:"Splinter-problem budget per solver query.")
  in
  let disjuncts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "disjuncts" ] ~docv:"N"
          ~doc:"Budget of Or alternatives entered per DNF enumeration.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Wall-clock deadline per solver query, in milliseconds.")
  in
  let make b_fuel b_splinters b_disjuncts b_deadline_ms =
    { Serve.Protocol.b_fuel; b_splinters; b_disjuncts; b_deadline_ms }
  in
  Term.(
    const make $ fuel_arg $ splinters_arg $ disjuncts_arg $ deadline_arg)

(* A local run honors the flags verbatim (they may exceed the default,
   unlike a daemon request, which is clamped to the daemon's quota). *)
let limits_of_spec (s : Serve.Protocol.budget_spec) =
  let d = Omega.Budget.default in
  {
    Omega.Budget.fuel =
      Option.value s.Serve.Protocol.b_fuel ~default:d.Omega.Budget.fuel;
    splinters =
      Option.value s.Serve.Protocol.b_splinters
        ~default:d.Omega.Budget.splinters;
    disjuncts =
      Option.value s.Serve.Protocol.b_disjuncts
        ~default:d.Omega.Budget.disjuncts;
    deadline_ms =
      (match s.Serve.Protocol.b_deadline_ms with
      | Some _ as d -> d
      | None -> d.Omega.Budget.deadline_ms);
  }

let with_budget limits f =
  Omega.Metrics.reset ();
  Omega.Budget.with_limits limits f

(* The whole-request wall deadline (distinct from the per-query budget
   deadline): locally it is installed in the solver's budget world, so
   every query's meter enforces the remaining time; over --connect it
   rides the request for the daemon to do the same. *)
let with_wall deadline_ms f =
  match deadline_ms with
  | None -> f ()
  | Some ms ->
    Omega.Budget.with_wall_deadline
      (Some (Unix.gettimeofday () +. (ms /. 1000.)))
      f

let print_governance () =
  Printf.printf "governance: %s\n"
    (Omega.Metrics.governance_summary (Omega.Metrics.current ()))

(* ------------------------------------------------------------------ *)
(* Daemon client mode                                                  *)
(* ------------------------------------------------------------------ *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the result as JSON — the same payload a petitd daemon \
           returns for this request.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Send the request to a running petitd at ADDR (a Unix-socket \
           path or host:port) instead of analyzing in-process.  Implies \
           JSON output.")

let request_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline for the whole request (all queries \
           together), distinct from $(b,--deadline-ms)'s per-query bound.  \
           Queries started late degrade to [gave up] under the remaining \
           time; with $(b,--connect) the daemon enforces it server-side.")

let source file =
  if Sys.file_exists file then
    In_channel.with_open_bin file In_channel.input_all
  else Corpus.find file

(* Daemon calls go through a retrying session: connect/request
   timeouts, reconnect, and jittered backoff on idempotent failures
   (overload sheds, connect errors, clean closes before any response
   byte).  The policy is tunable from the environment so scripts can
   harden or soften retries without new flags:
     PETIT_RETRIES             total attempts       (default 5)
     PETIT_RETRY_BASE_MS       backoff base         (default 25)
     PETIT_CONNECT_TIMEOUT_MS  TCP connect bound    (default 5000)
     PETIT_REQUEST_TIMEOUT_MS  per-request bound    (default 60000) *)
let client_policy () =
  let env_int name =
    Option.bind (Sys.getenv_opt name) int_of_string_opt
  in
  let env_float name =
    Option.bind (Sys.getenv_opt name) float_of_string_opt
  in
  let d = Serve.Client.default_policy in
  {
    d with
    Serve.Client.p_attempts =
      (match env_int "PETIT_RETRIES" with
      | Some n -> max 1 n
      | None -> d.Serve.Client.p_attempts);
    p_base_ms =
      Option.value
        (env_float "PETIT_RETRY_BASE_MS")
        ~default:d.Serve.Client.p_base_ms;
    p_connect_timeout_ms =
      (match env_float "PETIT_CONNECT_TIMEOUT_MS" with
      | Some ms when ms > 0. -> Some ms
      | Some _ -> None
      | None -> d.Serve.Client.p_connect_timeout_ms);
    p_request_timeout_ms =
      (match env_float "PETIT_REQUEST_TIMEOUT_MS" with
      | Some ms when ms > 0. -> Some ms
      | Some _ -> None
      | None -> d.Serve.Client.p_request_timeout_ms);
  }

let daemon_request addr req =
  let fail msg =
    Printf.eprintf "error: %s\n" msg;
    exit 1
  in
  match Serve.Protocol.addr_of_string addr with
  | Error msg -> fail msg
  | Ok a ->
    let s = Serve.Client.open_session ~policy:(client_policy ()) a in
    let r = Serve.Client.call s req in
    Serve.Client.close_session s;
    (match r with Error msg -> fail msg | Ok resp -> resp)

(* Payload on stdout (diffable against a local --json run), cache
   telemetry on stderr. *)
let print_daemon_result resp =
  let open Serve.Protocol in
  match Serve.Client.result_payload resp with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Ok (payload, memo) ->
    print_endline (Serve.Json.pretty payload);
    (match memo with
    | Some m ->
      Printf.eprintf
        "memo: this request %d hit(s), %d miss(es); daemon lifetime %d \
         hit(s), %d miss(es), %d vector hit(s), %d vector miss(es), %d/%d \
         entries, %d evicted\n"
        m.mr_req_hits m.mr_req_misses m.mr_hits m.mr_misses m.mr_vec_hits
        m.mr_vec_misses m.mr_size m.mr_capacity m.mr_evictions
    | None -> ())

let analyze_domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard the dependence analysis across $(docv) OCaml domains \
           (default 1: serial).  Verdicts are bit-identical to a serial \
           run; only wall-clock changes.")

let analyze_cmd =
  let run file in_bounds spec deadline json connect domains =
    (match domains with
    | Some n -> Par.set_domains n
    | None -> ());
    match connect with
    | Some addr ->
      print_daemon_result
        (daemon_request addr
           (Serve.Protocol.Analyze
              { program = source file; in_bounds; budget = spec;
                deadline_ms = deadline }))
    | None when json ->
      with_errors @@ fun () ->
      with_budget (limits_of_spec spec) @@ fun () ->
      with_wall deadline @@ fun () ->
      let prog = Lang.Sema.analyze (load file) in
      Analyses.Memo.reset ();
      print_endline
        (Serve.Json.pretty (Serve.Service.analyze_payload ~in_bounds prog))
    | None ->
    with_errors @@ fun () ->
    with_budget (limits_of_spec spec) @@ fun () ->
    with_wall deadline @@ fun () ->
    let prog = Lang.Sema.analyze (load file) in
    Analyses.Memo.reset ();
    let result = Driver.analyze ~in_bounds prog in
    print_string "Live flow dependences:\n";
    print_string (Driver.render_flow_table (Driver.live_flows result));
    print_string "\nDead flow dependences:\n";
    print_string (Driver.render_flow_table (Driver.dead_flows result));
    Printf.printf "\nOutput dependences:\n";
    List.iter
      (fun d -> Printf.printf "  %s\n" (Deps.dep_to_string d))
      result.Driver.outputs;
    Printf.printf "\nAnti dependences:\n";
    List.iter
      (fun d -> Printf.printf "  %s\n" (Deps.dep_to_string d))
      result.Driver.antis;
    (* the section 4.5 / 4.7 claim, visible on every run: most kill, cover
       and refinement questions are settled by the cheap tiers without
       consulting the complete Omega test *)
    let metrics = Omega.Metrics.current () in
    Printf.printf "\ntiers (attempts/decided): %s\n"
      (Omega.Metrics.tiers_summary metrics);
    let m = Analyses.Memo.stats in
    Printf.printf
      "memo: %d distinct problems, %d cache hits (%.0f%% hit rate; by \
       tier: %d screen, %d fast, %d complete), %d vector hits / %d \
       misses, %d/%d entries held, %d evicted\n"
      m.Analyses.Memo.misses m.Analyses.Memo.hits
      (100. *. Analyses.Memo.hit_rate ())
      m.Analyses.Memo.hits_screen m.Analyses.Memo.hits_fast
      m.Analyses.Memo.hits_complete m.Analyses.Memo.vec_hits
      m.Analyses.Memo.vec_misses
      (Analyses.Memo.size ()) !Analyses.Memo.capacity
      m.Analyses.Memo.evictions;
    Printf.printf "solver: %s\n" (Omega.Metrics.solver_summary metrics);
    print_governance ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Full analysis: flow dependences classified live/dead with \
          refinement, covering and killing.")
    Term.(
      const run $ file_arg $ in_bounds_arg $ budget_spec_term
      $ request_deadline_arg $ json_arg $ connect_arg $ analyze_domains_arg)

let parallelize_cmd =
  let oracle_arg =
    Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:
            "Execute the program and confirm every extended-analysis doall \
             claim against the dynamic dependences.")
  in
  let syms_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "s"; "sym" ] ~docv:"NAME=VALUE"
          ~doc:
            "Symbolic-constant value for the oracle or exec run \
             (repeatable; defaults to an automatic search, sized from the \
             deepest loop nest for --exec).")
  in
  let exec_arg =
    Arg.(
      value & flag
      & info [ "exec" ]
          ~doc:
            "Execute the program on the compiled VM three ways (serial, \
             standard-plan parallel, extended-plan parallel over OCaml \
             domains), check every final state against the serial \
             interpreter, and report wall-clock speedups.  Every program \
             runs on the VM: subscripts it cannot bound use sparse \
             tables, and plan loops touching one run serially.  A \
             program the interpreter cannot run is reported as not \
             executable.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domain-pool size for --exec (default: \
             Domain.recommended_domain_count).")
  in
  let run file in_bounds spec deadline json connect oracle exec domains syms =
    (match connect with
    | Some addr ->
      if oracle || exec then begin
        prerr_endline
          "error: --oracle and --exec run programs locally and cannot be \
           combined with --connect";
        exit 1
      end;
      print_daemon_result
        (daemon_request addr
           (Serve.Protocol.Parallelize
              { program = source file; in_bounds; budget = spec;
                deadline_ms = deadline }));
      exit 0
    | None -> ());
    if json then begin
      if oracle || exec then begin
        prerr_endline "error: --json covers the analysis report only; drop \
                       --oracle/--exec";
        exit 1
      end;
      with_errors (fun () ->
          with_budget (limits_of_spec spec) @@ fun () ->
          with_wall deadline @@ fun () ->
          let prog = Lang.Sema.analyze (load file) in
          Analyses.Memo.reset ();
          print_endline
            (Serve.Json.pretty
               (Serve.Service.parallelize_payload ~in_bounds prog)));
      exit 0
    end;
    with_errors @@ fun () ->
    with_budget (limits_of_spec spec) @@ fun () ->
    with_wall deadline @@ fun () ->
    let prog = Lang.Sema.analyze (load file) in
    let g = Xform.Graph.build ~in_bounds prog in
    let vs = Xform.Parallel.analyze g in
    print_string (Xform.Parallel.render_report vs);
    print_newline ();
    print_string (Xform.Emit.annotate g vs);
    print_governance ();
    if exec then begin
      let syms =
        if syms <> [] then Some syms
        else (* sized like the smoke [bench speedup] *)
          Xform.Oracle.scaled_syms ~target:8_000 prog
      in
      match syms with
      | None ->
        prerr_endline
          "exec: no symbolic-constant assignment satisfies the assumptions";
        exit 1
      | Some syms -> (
        let init _ idx =
          List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx
        in
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, (Unix.gettimeofday () -. t0) *. 1000.)
        in
        match time (fun () -> Xform.Exec.run_serial ~init prog ~syms) with
        | exception Lang.Interp.Runtime_error msg ->
          Printf.printf "\nexec: program not executable (%s)\n" msg
        | serial, t_serial ->
          Xform.Exec.with_pool ?size:domains @@ fun pool ->
          Printf.printf "\nexec (%s; %d domain%s):\n"
            (String.concat ", "
               (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) syms))
            (Xform.Exec.pool_size pool)
            (if Xform.Exec.pool_size pool = 1 then "" else "s");
          Printf.printf "  serial    %8.2f ms  (interpreter)\n" t_serial;
          let mismatch = ref false in
          let tvm, t_vm =
            time (fun () -> Xform.Exec.run_serial_vm ~init prog ~syms)
          in
          let ok = Lang.Vm.check_against ~init tvm serial = [] in
          if not ok then mismatch := true;
          Printf.printf
            "  serial vm %8.2f ms  (x%.2f vs interpreter, %d-cell arena, \
             %d sparse array(s), final state %s)\n"
            t_vm (t_serial /. t_vm)
            (Lang.Vm.unit_ tvm).Lang.Compile.u_arena
            (Array.length (Lang.Vm.unit_ tvm).Lang.Compile.u_sparse)
            (if ok then "identical" else "DIFFERS");
          List.iter
            (fun (label, side) ->
              let pl = Xform.Exec.plan side vs in
              let u = Xform.Exec.compile_plan pl prog ~syms in
              let (tpar, stats), t =
                time (fun () -> Xform.Exec.run_compiled_vm ~pool ~init u)
              in
              let ok = Lang.Vm.equal_state tvm tpar in
              if not ok then mismatch := true;
              Printf.printf
                "  %-9s %8.2f ms  (x%.2f, %d doall loop(s), %d region(s), \
                 %d inlined, final state %s)\n"
                label t (t_vm /. t) (Xform.Exec.doall_count pl)
                stats.x_regions stats.x_inline
                (if ok then "identical" else "DIFFERS");
              if not ok then
                Printf.printf "    %s\n"
                  (Lang.Vm.diff_string (Lang.Vm.check_against ~init tpar serial)))
            [ ("std plan", Xform.Exec.Std); ("ext plan", Xform.Exec.Ext) ];
          if !mismatch then exit 1)
    end;
    if oracle then begin
      let syms = if syms = [] then None else Some syms in
      match Xform.Oracle.check ?syms g vs with
      | Xform.Oracle.No_assignment ->
        prerr_endline
          "oracle: no symbolic-constant assignment satisfies the assumptions";
        exit 1
      | Xform.Oracle.Not_executable msg ->
        Printf.printf "\noracle: program not executable (%s)\n" msg
      | Xform.Oracle.Report r ->
        Printf.printf
          "\noracle: %d doall claim(s) checked against %d events (%s): %s\n"
          r.Xform.Oracle.o_checked r.Xform.Oracle.o_events
          (if r.Xform.Oracle.o_syms = [] then "no symbolics"
           else
             String.concat ", "
               (List.map
                  (fun (s, v) -> Printf.sprintf "%s=%d" s v)
                  r.Xform.Oracle.o_syms))
          (if r.Xform.Oracle.o_violations = [] then "confirmed"
           else "VIOLATED");
        List.iter
          (fun (v : Xform.Oracle.violation) ->
            Printf.printf "  loop %s: %s\n"
              (Xform.Parallel.loop_path v.Xform.Oracle.o_loop)
              v.Xform.Oracle.o_what)
          r.Xform.Oracle.o_violations;
        if r.Xform.Oracle.o_violations <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "parallelize"
       ~doc:
         "Per-loop doall legality, standard vs extended analysis, with the \
          annotated program.")
    Term.(
      const run $ file_arg $ in_bounds_arg $ budget_spec_term
      $ request_deadline_arg $ json_arg
      $ connect_arg $ oracle_arg $ exec_arg $ domains_arg $ syms_arg)

let graph_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("json", `Json) ]) `Dot
      & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: dot or json.")
  in
  let run file in_bounds format =
    with_errors @@ fun () ->
    let prog = Lang.Sema.analyze (load file) in
    let g = Xform.Graph.build ~in_bounds prog in
    print_string
      (match format with
      | `Dot -> Xform.Graph.to_dot g
      | `Json -> Xform.Graph.to_json g)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Statement-level dependence graph with live/dead edges, as DOT or \
          JSON.")
    Term.(const run $ file_arg $ in_bounds_arg $ format_arg)

let deps_cmd =
  let run file in_bounds =
    with_errors @@ fun () ->
    let prog = Lang.Sema.analyze (load file) in
    let ctx = Depctx.create prog in
    List.iter
      (fun kind ->
        Printf.printf "%s dependences:\n" (Deps.kind_to_string kind);
        List.iter
          (fun d -> Printf.printf "  %s\n" (Deps.dep_to_string d))
          (Deps.all ~in_bounds ctx kind))
      [ Deps.Flow; Deps.Anti; Deps.Output ]
  in
  Cmd.v
    (Cmd.info "deps" ~doc:"Standard dependence analysis only (no kills).")
    Term.(const run $ file_arg $ in_bounds_arg)

let syms_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "s"; "sym" ] ~docv:"NAME=VALUE"
        ~doc:"Value for a symbolic constant (repeatable).")

let run_cmd =
  let run file syms =
    with_errors @@ fun () ->
    let prog = Lang.Sema.analyze (load file) in
    let trace = Lang.Interp.run prog ~syms in
    Printf.printf "%d events\n" (List.length trace.Lang.Interp.events);
    let show title deps =
      Printf.printf "%s (%d):\n" title (List.length deps);
      List.iter
        (fun d -> Format.printf "  %a@." Lang.Interp.pp_dep d)
        deps
    in
    show "dynamic value-based flow dependences"
      (Lang.Interp.value_flow_deps trace);
    show "dynamic memory-based flow dependences"
      (Lang.Interp.memory_deps trace `Flow)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute the program and print its dynamic dependences.")
    Term.(const run $ file_arg $ syms_arg)

let disasm_cmd =
  let run file syms =
    with_errors @@ fun () ->
    let ast = load file in
    let ast', xr = Xform.Restructure.optimize ast in
    let prog = Lang.Sema.analyze ast' in
    let syms =
      match syms with
      | [] -> (
        (* no -s given: search for workable symbol values *)
        match
          Xform.Oracle.pick_syms ~candidates:[ 10; 8; 6; 5; 4; 3; 2; 1 ] prog
        with
        | Some s -> s
        | None -> [])
      | s -> s
    in
    List.iter (fun (n, v) -> Printf.printf ";; sym %s = %d\n" n v) syms;
    Printf.printf
      ";; restructuring: %d loop pair(s) fused, %d dead store(s) deleted\n"
      xr.Xform.Restructure.x_fused xr.Xform.Restructure.x_killed;
    if xr.Xform.Restructure.x_fused > 0 || xr.Xform.Restructure.x_killed > 0
    then begin
      print_endline ";; restructured source:";
      print_string (Lang.Ast.program_to_string ast')
    end;
    let u0 = Lang.Compile.program prog ~syms in
    let u, rep = Lang.Opt.optimize u0 in
    let size u =
      Array.fold_left
        (fun n (r : Lang.Compile.region) ->
          n + Array.length r.rg_serial + Array.length r.rg_par)
        (Array.length u.Lang.Compile.u_main)
        u.Lang.Compile.u_regions
    in
    let counts u =
      List.iter
        (fun (m, c) -> Printf.printf ";;   %-8s %4d\n" m c)
        (Lang.Opt.static_counts u)
    in
    Printf.printf "\n;; unoptimized bytecode (%d instructions)\n" (size u0);
    print_string (Lang.Compile.disasm u0);
    print_endline ";; static opcode counts:";
    counts u0;
    Printf.printf
      "\n\
       ;; optimized bytecode (%d instructions): %d instruction(s) fused \
       away, %d immediate back-edge(s)\n"
      (size u) rep.Lang.Opt.r_fused rep.Lang.Opt.r_loopi;
    print_string (Lang.Compile.disasm u);
    print_endline ";; static opcode counts:";
    counts u
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:
         "Compile through the optimizer and print the unoptimized and \
          optimized bytecode with per-opcode static counts.")
    Term.(const run $ file_arg $ syms_arg)

let restraint_conv : Depend.Symbolic.restraint Arg.conv =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.map (fun tok ->
               match String.trim tok with
               | "+" -> Dirvec.Pos
               | "-" -> Dirvec.Neg
               | "0" -> Dirvec.Zero
               | "0+" -> Dirvec.NonNeg
               | "0-" -> Dirvec.NonPos
               | "*" -> Dirvec.Any
               | t -> failwith t))
    with Failure t -> Error (`Msg (Printf.sprintf "bad restraint sign %S" t))
  in
  let print fmt r =
    Format.pp_print_string fmt
      (String.concat ","
         (List.map
            (fun s -> Dirvec.entry_to_string { Dirvec.sign = s; lo = None; hi = None })
            r))
  in
  Arg.conv (parse, print)

let symbolic_cmd =
  let src_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "src" ] ~docv:"LABEL" ~doc:"Label of the source (write) statement.")
  in
  let dst_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dst" ] ~docv:"LABEL" ~doc:"Label of the destination statement.")
  in
  let restraint_arg =
    Arg.(
      value
      & opt (some restraint_conv) None
      & info [ "restraint" ] ~docv:"SIGNS"
          ~doc:"Restraint vector, e.g. '+,*' or '0,+'. Defaults to all '*'.")
  in
  let hide_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "hide" ] ~docv:"SYMS"
          ~doc:"Symbolic constants to project away from the condition.")
  in
  let induction_arg =
    Arg.(
      value & flag
      & info [ "induction" ]
          ~doc:"Run induction recognition and report whether the dependence \
                survives the detected accumulator facts.")
  in
  let run file src dst restraint hide induction =
    with_errors @@ fun () ->
    let prog = Lang.Sema.analyze (load file) in
    let ctx = Depctx.create prog in
    let find ?array label kind =
      List.find_opt
        (fun (a : Lang.Ir.access) ->
          a.Lang.Ir.label = label
          && a.Lang.Ir.kind = kind
          && match array with Some arr -> a.Lang.Ir.array = arr | None -> true)
        (Array.to_list prog.Lang.Ir.accesses)
    in
    let w =
      match find src Lang.Ir.Write with
      | Some a -> a
      | None -> failwith (Printf.sprintf "no write labeled %s" src)
    in
    (* the destination must touch the same array *)
    let r =
      match
        ( find ~array:w.Lang.Ir.array dst Lang.Ir.Read,
          find ~array:w.Lang.Ir.array dst Lang.Ir.Write )
      with
      | Some a, _ | None, Some a -> a
      | None, None ->
        failwith
          (Printf.sprintf "no access of array %s labeled %s" w.Lang.Ir.array
             dst)
    in
    let c = Lang.Ir.common_loops w r in
    let restraint =
      match restraint with
      | Some rv -> rv
      | None -> List.init c (fun _ -> Dirvec.Any)
    in
    let an = Symbolic.analyze ctx ~src:w ~dst:r ~restraint ~hide () in
    print_endline (Symbolic.render_query an);
    if induction then begin
      let accs = Induction.detect ctx in
      List.iter
        (fun (a : Induction.accumulator) ->
          Printf.printf "accumulator: %s (increment at %s)\n"
            a.Induction.scalar a.Induction.increment.Lang.Ir.label)
        accs;
      let props =
        List.map
          (fun (a : Induction.accumulator) ->
            (a.Induction.scalar, Symbolic.Accumulator a.Induction.increment))
          accs
      in
      Printf.printf "dependence exists with induction facts: %b\n"
        (Symbolic.dependence_exists_with ctx ~src:w ~dst:r ~props)
    end
  in
  Cmd.v
    (Cmd.info "symbolic"
       ~doc:
         "Section-5 symbolic analysis: the condition under which a \
          dependence with a given restraint vector exists.")
    Term.(
      const run $ file_arg $ src_arg $ dst_arg $ restraint_arg $ hide_arg
      $ induction_arg)

let connect_required =
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"Address of the running petitd (Unix-socket path or host:port).")

let serve_stats_cmd =
  let run addr =
    print_daemon_result (daemon_request addr Serve.Protocol.Stats)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Request counters, verdict-cache telemetry and the budget quota \
          of a running petitd.")
    Term.(const run $ connect_required)

let health_cmd =
  let run addr =
    print_daemon_result (daemon_request addr Serve.Protocol.Health)
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Overload posture of a running petitd: uptime, in-flight \
          requests, shed/reaped counts, connection accounting.  Served \
          off the solver path, so it answers even under full load.")
    Term.(const run $ connect_required)

let shutdown_cmd =
  let run addr =
    print_daemon_result (daemon_request addr Serve.Protocol.Shutdown)
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Ask a running petitd to shut down (graceful drain: in-flight \
          requests finish under the daemon's --drain-ms, laggards are \
          force-closed).")
    Term.(const run $ connect_required)

let corpus_cmd =
  let run name =
    match name with
    | None ->
      List.iter (fun (n, _) -> print_endline n) (Corpus.all @ Corpus.stress)
    | Some n -> with_errors (fun () -> print_string (Corpus.find n))
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "List bundled corpus programs (the solver stress nests last), or \
          print one.")
    Term.(const run $ Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"))

let () =
  let info =
    Cmd.info "petit" ~version:"1.0"
      ~doc:
        "Array dependence analysis with the extended Omega test \
         (Pugh-Wonnacott, PLDI'92)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            parallelize_cmd;
            graph_cmd;
            deps_cmd;
            run_cmd;
            disasm_cmd;
            symbolic_cmd;
            corpus_cmd;
            serve_stats_cmd;
            health_cmd;
            shutdown_cmd;
          ]))

(* omega_calc: a small constraint calculator over the Omega test, in the
   spirit of the calculator shipped with the original Omega library.

   Problems are conjunctions of (possibly chained) linear comparisons over
   named integer variables, e.g. "0 <= x <= 5 and y < x and x <= 5*y".

   Every subcommand evaluates through Serve.Calc — the same path the
   petitd daemon uses for omega_calc requests — so an answer here and an
   answer over the wire are structurally identical.  [--json] prints the
   daemon's result payload instead of the classic one-line rendering.

   Subcommands:
     sat "P"                       integer satisfiability
     project --onto x,y "P"        exact projection (may print a union)
     dark --onto x,y "P"           dark-shadow projection
     real --onto x,y "P"           real-shadow projection
     gist --given "Q" "P"          gist P given Q
     implies "P" "Q"               is P => Q a tautology?
     min --var x "P" / max --var x "P"                                  *)

open Cmdliner
open Omega

let with_errors f =
  try f () with
  | e -> (
    (* a query that gave up (a blown limit or an overflowing
       coefficient) surfaces here: report it as a structured give-up *)
    match Budget.reason_of_exn e with
    | Some r ->
      Printf.eprintf "gave up (%s)\n" (Budget.reason_to_string r);
      exit 2
    | None -> raise e)

(* Evaluate one calculator operation and print it, plain or as the
   daemon's JSON payload. *)
let emit json op =
  with_errors @@ fun () ->
  match Serve.Calc.eval op with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Ok r ->
    print_endline
      (if json then Serve.Json.to_string (Serve.Calc.result_json r)
       else Serve.Calc.result_plain r)

let problem_arg pos_idx docv =
  Arg.(required & pos pos_idx (some string) None & info [] ~docv)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the result as JSON (the same payload a petitd daemon \
           returns for this query).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print solver statistics (eliminations, pruned constraints, \
           portfolio-tier traffic) to stderr after the query.")

(* Run [f] with fresh solver counters; report them on stderr when asked,
   so golden stdout output is untouched.  They are printed at exit, so a
   query that gives up (and exits 2) still reports the give-up. *)
let with_stats stats f =
  Metrics.reset ();
  if stats then
    at_exit (fun () ->
        let m = Metrics.current () in
        Printf.eprintf "solver: %s\n" (Metrics.solver_summary m);
        Printf.eprintf "tiers (attempts/decided): %s\n" (Metrics.tiers_summary m);
        Printf.eprintf "governance: %s\n" (Metrics.governance_summary m));
  f ()

let onto_arg =
  Arg.(
    required
    & opt (some (list string)) None
    & info [ "onto" ] ~docv:"VARS" ~doc:"Comma-separated variables to keep.")

let var_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "var" ] ~docv:"VAR" ~doc:"Objective variable.")

let sat_cmd =
  let run stats json src =
    with_stats stats @@ fun () -> emit json (Serve.Protocol.Sat src)
  in
  Cmd.v
    (Cmd.info "sat" ~doc:"Integer satisfiability of a conjunction.")
    Term.(
      const run $ stats_arg $ json_arg $ problem_arg 0 "PROBLEM")

let projection_cmd name doc mode =
  let run stats json onto src =
    with_stats stats @@ fun () ->
    emit json (Serve.Protocol.Project { mode; onto; problem = src })
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ stats_arg $ json_arg $ onto_arg $ problem_arg 0 "PROBLEM")

let gist_cmd =
  let given_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "given" ] ~docv:"PROBLEM" ~doc:"What is already known.")
  in
  let run stats json given src =
    with_stats stats @@ fun () ->
    emit json (Serve.Protocol.Gist { problem = src; given })
  in
  Cmd.v
    (Cmd.info "gist"
       ~doc:"The new information in PROBLEM relative to --given.")
    Term.(const run $ stats_arg $ json_arg $ given_arg $ problem_arg 0 "PROBLEM")

let implies_cmd =
  let run stats json src1 src2 =
    with_stats stats @@ fun () ->
    emit json (Serve.Protocol.Implies (src1, src2))
  in
  Cmd.v
    (Cmd.info "implies" ~doc:"Is P => Q a tautology?")
    Term.(
      const run $ stats_arg $ json_arg $ problem_arg 0 "P" $ problem_arg 1 "Q")

let opt_cmd name doc which =
  let run json var src =
    emit json (Serve.Protocol.Optimize { dir = which; var; problem = src })
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ json_arg $ var_arg $ problem_arg 0 "PROBLEM")

(* Quantified Presburger formulas (section 3.2), via Depend.Fparse. *)
let formula_cmd name doc which =
  let run src =
    with_errors @@ fun () ->
    match Depend.Fparse.formula_of_string src with
    | exception Depend.Fparse.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | f -> (
      let holds label p = Serve.Calc.governed ~label (fun () -> p f) in
      match which with
      | `Valid ->
        print_endline
          (if holds "calc/valid" Presburger.valid then "valid" else "invalid")
      | `Sat ->
        print_endline
          (if holds "calc/psat" Presburger.satisfiable then "satisfiable"
           else "unsatisfiable"))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ problem_arg 0 "FORMULA")

(* ------------------------------------------------------------------ *)
(* Interactive mode                                                     *)
(* ------------------------------------------------------------------ *)

(* A tiny command loop in the spirit of the calculator shipped with the
   original Omega library:

     > sat 0 <= x <= 5 and 2*x = 3
     > project x: 0 <= x <= 5 and y < x and x <= 5*y
     > gist x >= 0 and x <= 5 given x >= 3
     > implies 2 <= x <= 5 => x >= 0
     > min x: 2*x >= 3 and x <= 9                                      *)
let repl_eval (line : string) : unit =
  let line = String.trim line in
  if line = "" then ()
  else begin
    let split_kw kw str =
      (* split [str] at the first occurrence of the word [kw] *)
      let klen = String.length kw in
      let n = String.length str in
      let rec find i =
        if i + klen > n then None
        else if String.sub str i klen = kw then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i ->
        Some
          ( String.trim (String.sub str 0 i),
            String.trim (String.sub str (i + klen) (n - i - klen)) )
      | None -> None
    in
    let cmd, rest =
      match String.index_opt line ' ' with
      | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i)) )
      | None -> (line, "")
    in
    let show op =
      match Serve.Calc.eval op with
      | Ok r -> print_endline (Serve.Calc.result_plain r)
      | Error msg -> Printf.printf "error: %s\n" msg
    in
    let split_colon usage k =
      match String.index_opt rest ':' with
      | None -> print_endline usage
      | Some i ->
        k
          (String.trim (String.sub rest 0 i))
          (String.sub rest (i + 1) (String.length rest - i - 1))
    in
    match cmd with
    | "sat" -> show (Serve.Protocol.Sat rest)
    | "project" | "dark" | "real" ->
      split_colon "usage: project x,y: <constraints>" (fun names src ->
          let onto =
            String.split_on_char ',' names |> List.map String.trim
          in
          let mode =
            match cmd with
            | "project" -> `Exact
            | "dark" -> `Dark
            | _ -> `Real
          in
          show (Serve.Protocol.Project { mode; onto; problem = src }))
    | "gist" -> (
      match split_kw " given " rest with
      | None -> print_endline "usage: gist <constraints> given <constraints>"
      | Some (psrc, qsrc) ->
        show (Serve.Protocol.Gist { problem = psrc; given = qsrc }))
    | "implies" -> (
      match split_kw " => " rest with
      | None -> print_endline "usage: implies <constraints> => <constraints>"
      | Some (psrc, qsrc) -> show (Serve.Protocol.Implies (psrc, qsrc)))
    | "min" | "max" ->
      split_colon "usage: min x: <constraints>" (fun name src ->
          let dir = if cmd = "min" then `Min else `Max in
          show (Serve.Protocol.Optimize { dir; var = name; problem = src }))
    | "help" ->
      print_endline
        "commands: sat P | project VARS: P | dark VARS: P | real VARS: P |
        \          gist P given Q | implies P => Q | min VAR: P | max VAR: P |
        \          help | quit"
    | "quit" | "exit" -> raise Exit
    | other -> Printf.printf "unknown command %s (try 'help')\n" other
  end

let repl_cmd =
  let run () =
    print_endline
      "omega_calc interactive mode; 'help' for commands, 'quit' to leave.";
    (try
       while true do
         print_string "> ";
         flush stdout;
         match In_channel.input_line stdin with
         | None -> raise Exit
         | Some line -> (
           try repl_eval line with
           | Budget.Exhausted r ->
             Printf.printf "gave up (%s)\n" (Budget.reason_to_string r))
       done
     with Exit -> ());
    print_endline "bye"
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive calculator loop.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "omega_calc" ~version:"1.0"
      ~doc:"Constraint calculator over the extended Omega test."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            sat_cmd;
            projection_cmd "project" "Exact projection (may be a union)." `Exact;
            projection_cmd "dark" "Dark-shadow projection (under-approx)." `Dark;
            projection_cmd "real" "Real-shadow projection (over-approx)." `Real;
            gist_cmd;
            implies_cmd;
            opt_cmd "min" "Minimum of --var subject to the constraints." `Min;
            opt_cmd "max" "Maximum of --var subject to the constraints." `Max;
            formula_cmd "valid"
              "Validity of a quantified Presburger formula (free variables \
               universal)." `Valid;
            formula_cmd "psat"
              "Satisfiability of a quantified Presburger formula (free \
               variables existential)." `Sat;
            repl_cmd;
          ]))

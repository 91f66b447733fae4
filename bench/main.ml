(* The paper's evaluation, regenerated: every table and figure of
   section 4.7 and section 5, plus the verdict-memo ablation, plus
   Bechamel micro-benchmarks (one per table/figure).  The subcommands
   are CI's gates (speedup, robustness, analysis, serve, chaos); each
   writes one BENCH_*.json artifact.  The mechanics they share (flag
   parsing, the violation gate, calibrated timing, scoped switches) live
   in harness.ml.

   Absolute times differ from the paper's 1992 Sun Sparc IPX; the claims
   under test are the *shapes*: which dependences are live/dead, extended
   analysis within a small constant factor of standard analysis, and most
   kill tests resolved without consulting the Omega test. *)

open Depend
open Harness
module Portfolio = Omega.Portfolio
module Protocol = Serve.Protocol
module Client = Serve.Client
module Server = Serve.Server
module Service = Serve.Service

(* ------------------------------------------------------------------ *)
(* Examples 1-6 (the section 4 box)                                    *)
(* ------------------------------------------------------------------ *)

let vec_strings (fr : Driver.flow_result) =
  let vecs =
    match fr.Driver.refined with
    | Some v -> v
    | None -> fr.Driver.dep.Deps.vectors
  in
  String.concat " " (List.map Dirvec.to_string vecs)

let examples_table () =
  section "Table: Examples 1-6 (kills, covers, refinement)";
  Printf.printf "%-10s %-28s %-16s %-10s %s\n" "example" "expectation"
    "result" "status" "ok?";
  let rows =
    [
      ("example1", "A->C killed by B", `Dead ("A", "C"));
      ("example2", "cover refined (0+)->(0)", `Vec ("D", "E", "(0)"));
      ("example3", "refined (0+,1)->(0,1)", `Vec ("s", "s", "(0,1)"));
      ("example4", "trapezoid refined (0,1)", `Vec ("s", "s", "(0,1)"));
      ("example5", "unrefinable by generator", `Unrefined ("s", "s"));
      ("example6", "coupled refined (1,1)", `Vec ("s", "s", "(1,1)"));
    ]
  in
  List.iter
    (fun (name, expect, check) ->
      let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
      let result = Driver.analyze prog in
      let find src dst =
        List.find_opt
          (fun (fr : Driver.flow_result) ->
            fr.Driver.dep.Deps.src.Lang.Ir.label = src
            && fr.Driver.dep.Deps.dst.Lang.Ir.label = dst)
          result.Driver.flows
      in
      let shown, ok =
        match check with
        | `Dead (s, d) -> (
          match find s d with
          | Some fr ->
            ( (if fr.Driver.dead <> None then "dead" else "live"),
              fr.Driver.dead <> None )
          | None -> ("missing", false))
        | `Vec (s, d, v) -> (
          match find s d with
          | Some fr -> (vec_strings fr, vec_strings fr = v)
          | None -> ("missing", false))
        | `Unrefined (s, d) -> (
          match find s d with
          | Some fr ->
            ( (if fr.Driver.refined = None then "unrefined" else "refined"),
              fr.Driver.refined = None )
          | None -> ("missing", false))
      in
      Printf.printf "%-10s %-28s %-16s %-10s %s\n" name expect shown
        (if ok then "as-paper" else "DIFFERS")
        (if ok then "yes" else "NO"))
    rows

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: CHOLSKY                                            *)
(* ------------------------------------------------------------------ *)

let cholsky_tables () =
  let prog = Lang.Sema.parse_and_analyze (Corpus.find "cholsky") in
  let result, dt = time (fun () -> Driver.analyze prog) in
  let live = Driver.live_flows result in
  let dead = Driver.dead_flows result in
  section
    (Printf.sprintf
       "Figure 3: live flow dependences for CHOLSKY (%d rows, paper: 21)"
       (List.length live));
  print_string (Driver.render_flow_table live);
  section
    (Printf.sprintf
       "Figure 4: dead flow dependences for CHOLSKY (%d rows, paper: 14)"
       (List.length dead));
  print_string (Driver.render_flow_table dead);
  Printf.printf "\nwhole-program analysis time: %.1f ms\n" (ms dt)

(* ------------------------------------------------------------------ *)
(* Figure 6 / Figure 7: per-pair analysis times                        *)
(* ------------------------------------------------------------------ *)

type pair_timing = {
  prog_name : string;
  src_label : string;
  dst_label : string;
  t_std : float; (* standard dependence analysis *)
  t_ext : float; (* + refinement and cover testing *)
  category : [ `No_test | `General | `Split ];
}

(* The driver's extended step for one write/read pair ([Driver.extend]),
   timed in isolation by the callers.  Returns whether a general (Omega)
   extended test ran — a refinement, or a cover test — and whether the
   dependence splits into several direction vectors. *)
let extended_pair ctx outputs (a : Lang.Ir.access) (b : Lang.Ir.access) =
  match Driver.extend ctx ~outputs ~src:a ~dst:b with
  | None -> (false, false)
  | Some fr ->
    ( Driver.refinement_possible outputs a
      || Driver.cover_possible (Driver.vectors fr),
      List.length fr.Driver.dep.Deps.vectors > 1 )

(* Every same-array write/read pair of one program, in the order
   figures 6 and 7 list them: [f name ctx outputs a b] per pair. *)
let pair_walk f name =
  let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
  let ctx = Depctx.create prog in
  let outputs = Deps.all ctx Deps.Output in
  let reads = Lang.Ir.reads prog in
  List.concat_map
    (fun (a : Lang.Ir.access) ->
      List.filter_map
        (fun (b : Lang.Ir.access) ->
          if a.Lang.Ir.array <> b.Lang.Ir.array then None
          else Some (f name ctx outputs a b))
        reads)
    (Lang.Ir.writes prog)

let pair_timings () : pair_timing list =
  List.concat_map
    (pair_walk (fun name ctx outputs a b ->
         (* warm-up pass so neither measurement pays one-time costs *)
         ignore (Deps.compute ctx ~src:a ~dst:b ~kind:Deps.Flow);
         let _, t_std =
           time (fun () -> Deps.compute ctx ~src:a ~dst:b ~kind:Deps.Flow)
         in
         let (ran, split), t_ext =
           time (fun () -> extended_pair ctx outputs a b)
         in
         {
           prog_name = name;
           src_label = a.Lang.Ir.label;
           dst_label = b.Lang.Ir.label;
           t_std;
           t_ext;
           category =
             (if not ran then `No_test else if split then `Split else `General);
         }))
    Corpus.timing_population

(* The same figure 6/7 pair population, verdicts only (no timings): a
   canonical line per write/read pair — dependence vectors, whether a
   general extended test ran, whether the vectors split.  The --domains
   differential runs this serial and sharded and demands equality.
   Programs are the sharding unit ([Par.map_list] keeps input order, and
   is exactly [List.map] at width 1). *)
let pair_verdicts () : string list =
  Par.map_list
    (pair_walk (fun name ctx outputs a b ->
         let dep =
           match Deps.compute ctx ~src:a ~dst:b ~kind:Deps.Flow with
           | None -> "none"
           | Some d ->
             String.concat "," (List.map Dirvec.to_string d.Deps.vectors)
         in
         let ran, split = extended_pair ctx outputs a b in
         Printf.sprintf "%s %s->%s %s ran=%b split=%b" name a.Lang.Ir.label
           b.Lang.Ir.label dep ran split))
    Corpus.timing_population
  |> List.concat

let figure6_left (timings : pair_timing list) =
  section "Figure 6 (left): extended vs standard analysis time per array pair";
  Printf.printf "%d write/read array pairs (paper: 417)\n" (List.length timings);
  let count c =
    List.length (List.filter (fun t -> t.category = c) timings)
  in
  Printf.printf
    "no general test needed: %d   general test: %d   split vectors: %d\n"
    (count `No_test) (count `General) (count `Split);
  Printf.printf "(paper: 264 no-test, 81 general [*], 72 split [<>])\n\n";
  Printf.printf "%-16s %-6s %-6s %10s %10s %7s %s\n" "program" "from" "to"
    "std(ms)" "ext(ms)" "ratio" "class";
  let ratios = ref [] in
  List.iter
    (fun t ->
      let ratio = if t.t_std > 0. then t.t_ext /. t.t_std else 1. in
      ratios := ratio :: !ratios;
      Printf.printf "%-16s %-6s %-6s %10.3f %10.3f %7.2f %s\n" t.prog_name
        t.src_label t.dst_label (ms t.t_std) (ms t.t_ext) ratio
        (match t.category with
         | `No_test -> "."
         | `General -> "*"
         | `Split -> "<>"))
    timings;
  let rs = List.sort compare !ratios in
  let n = List.length rs in
  let nth k = List.nth rs (min (n - 1) k) in
  Printf.printf
    "\nratio ext/std: median %.2f, p90 %.2f, max %.2f (paper: mostly 2x-4x; lines y=x, y=2x, y=4x)\n"
    (nth (n / 2))
    (nth (n * 9 / 10))
    (nth (n - 1))

let figure6_right () =
  section "Figure 6 (right): kill-test time vs generation+refine+cover time";
  let points = ref [] in
  let quick = ref 0 and consulted = ref 0 in
  List.iter
    (fun name ->
      let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
      let ctx = Depctx.create prog in
      let outputs = Deps.all ctx Deps.Output in
      List.iter
        (fun (b : Lang.Ir.access) ->
          (* the extended step of every writer with a dependence to b,
             with its time of generating + refining + covering *)
          let writers =
            List.filter_map
              (fun (w : Lang.Ir.access) ->
                if w.Lang.Ir.array <> b.Lang.Ir.array then None
                else
                  let fr, t_gen =
                    time (fun () -> Driver.extend ctx ~outputs ~src:w ~dst:b)
                  in
                  Option.map (fun fr -> (fr, t_gen)) fr)
              (Lang.Ir.writes prog)
          in
          List.iter
            (fun ((fr : Driver.flow_result), t_gen) ->
              let a = fr.Driver.dep.Deps.src in
              List.iter
                (fun ((kfr : Driver.flow_result), _) ->
                  let k = kfr.Driver.dep.Deps.src in
                  if k.Lang.Ir.acc_id <> a.Lang.Ir.acc_id then begin
                    (* quick screens: no output dependence A->K (kill
                       impossible), or K is a loop-independent cover with A
                       completely before it (kill certain) *)
                    let ab = Driver.dep_between outputs a k in
                    let screened =
                      Option.is_none ab
                      || kfr.Driver.covers
                         && Driver.cover_eliminates
                              ~cover_vectors:(Driver.vectors kfr) k b a
                    in
                    let _, t_kill =
                      time (fun () ->
                          match ab with
                          | Some ab when not screened ->
                            Analyses.kills ctx ~src:a ~killer:k ~dst:b
                              ~ac:fr.Driver.dep.Deps.levels
                              ~ab:ab.Deps.levels
                              ~bc:kfr.Driver.dep.Deps.levels
                          | _ -> false)
                    in
                    if screened then incr quick else incr consulted;
                    points := (name, a, k, b, t_kill, t_gen) :: !points
                  end)
                writers)
            writers)
        (Lang.Ir.reads prog))
    Corpus.timing_population;
  Printf.printf
    "%d potential kills: %d screened without the Omega test, %d consulted it\n"
    (List.length !points) !quick !consulted;
  Printf.printf "(paper: 284 quick [<0.3 msec], 54 consulted)\n\n";
  Printf.printf "%-16s %-22s %12s %16s\n" "program" "kill" "kill(ms)"
    "gen+ref+cov(ms)";
  List.iter
    (fun (name, a, k, b, t_kill, t_gen) ->
      Printf.printf "%-16s %-22s %12.3f %16.3f\n" name
        (Printf.sprintf "%s-|%s|->%s" a.Lang.Ir.label k.Lang.Ir.label
           b.Lang.Ir.label)
        (ms t_kill) (ms t_gen))
    (List.rev !points)

let figure7 (timings : pair_timing list) =
  section "Figure 7: per-pair analysis times, sorted by extended time";
  let sorted = List.sort (fun a b -> compare a.t_ext b.t_ext) timings in
  Printf.printf "%-6s %12s %12s\n" "rank" "std(ms)" "ext(ms)";
  List.iteri
    (fun i t ->
      Printf.printf "%-6d %12.4f %12.4f\n" (i + 1) (ms t.t_std) (ms t.t_ext))
    sorted;
  let total which = List.fold_left (fun acc t -> acc +. which t) 0. sorted in
  Printf.printf "\ntotals: standard %.1f ms, extended %.1f ms over %d pairs\n"
    (ms (total (fun t -> t.t_std)))
    (ms (total (fun t -> t.t_ext)))
    (List.length sorted)

(* ------------------------------------------------------------------ *)
(* Section 5 dialogs                                                   *)
(* ------------------------------------------------------------------ *)

let section5_table () =
  section "Section 5: symbolic analysis (Examples 7 and 8)";
  let prog = Lang.Sema.parse_and_analyze (Corpus.find "example7") in
  let ctx = Depctx.create prog in
  let w = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes prog) in
  let r = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.reads prog) in
  List.iter
    (fun (name, restraint, expect) ->
      let an = Symbolic.analyze ctx ~src:w ~dst:r ~restraint ~hide:[ "n" ] () in
      let shown =
        match an.Symbolic.cond with
        | Symbolic.Always -> "always"
        | Symbolic.Never -> "never"
        | Symbolic.When g -> Omega.Problem.to_string g
        | Symbolic.Unknown r -> "gave up (" ^ Omega.Budget.reason_to_string r ^ ")"
      in
      Printf.printf "example7 %-6s: %s\n  (paper: %s)\n" name shown expect)
    [
      ("(+,*)", [ Dirvec.Pos; Dirvec.Any ], "{1 <= x <= 50}");
      ("(0,+)", [ Dirvec.Zero; Dirvec.Pos ], "{x = 0 and y < m}");
    ];
  let prog = Lang.Sema.parse_and_analyze (Corpus.find "example8") in
  let ctx = Depctx.create prog in
  let w = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes prog) in
  let rd = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.reads prog) in
  Printf.printf "\nexample8 output-dependence query:\n%s\n"
    (Symbolic.render_query
       (Symbolic.analyze ctx ~src:w ~dst:w ~restraint:[ Dirvec.Pos ] ()));
  Printf.printf "(paper: for all a & b, 1 <= a < b <= n: never Q[a] = Q[b])\n";
  Printf.printf "\nexample8 flow-dependence query:\n%s\n"
    (Symbolic.render_query
       (Symbolic.analyze ctx ~src:w ~dst:rd ~restraint:[ Dirvec.Pos ] ()));
  Printf.printf
    "(paper: for all a & b, 1 <= a < b-1 <= n-1: never Q[a] = Q[b]-1)\n";
  Printf.printf "\nwith asserted properties of q:\n";
  List.iter
    (fun (label, props) ->
      Printf.printf "  output dependence, %-22s: %b\n" label
        (Symbolic.dependence_exists_with ctx ~src:w ~dst:w ~props))
    [
      ("no assertion", []);
      ("q injective", [ ("q", Symbolic.Injective) ]);
      ("q strictly increasing", [ ("q", Symbolic.Strictly_increasing) ]);
    ];
  (* Example 11 (s141): induction recognition eliminates the carried deps *)
  let prog = Lang.Sema.parse_and_analyze (Corpus.find "example11") in
  let ctx = Depctx.create prog in
  let accs = Induction.detect ctx in
  let props =
    List.map
      (fun (a : Induction.accumulator) ->
        (a.Induction.scalar, Symbolic.Accumulator a.Induction.increment))
      accs
  in
  let w = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes prog) in
  Printf.printf
    "\nexample11 (s141): accumulators detected: %d; self output dep \
     without facts: %b, with induction: %b\n"
    (List.length accs)
    (Symbolic.dependence_exists_with ctx ~src:w ~dst:w ~props:[])
    (Symbolic.dependence_exists_with ctx ~src:w ~dst:w ~props);
  Printf.printf
    "(paper: s141 could not be handled by any compiler tested by [LCD91])\n"

(* ------------------------------------------------------------------ *)
(* Parallelization: doall counts, standard vs extended                 *)
(* ------------------------------------------------------------------ *)

(* The payoff table for the transformation layer: across the corpus, how
   many loops each analysis can mark doall.  The extended column folds in
   privatization (a carried storage dependence on a privatizable array
   does not serialize the loop), which is the use the paper gives for
   killed and covered dependences. *)
let parallelization_table () =
  section "Table: parallelizable loops, standard vs extended analysis";
  Printf.printf "%-20s %8s %8s %8s   %s\n" "program" "loops" "std" "ext"
    "extended-only wins";
  let tot_loops = ref 0 and tot_std = ref 0 and tot_ext = ref 0 in
  List.iter
    (fun name ->
      let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
      let g = Xform.Graph.build prog in
      let vs = Xform.Parallel.analyze g in
      let std, ext = Xform.Parallel.count_doall vs in
      let wins =
        List.filter_map
          (fun (v : Xform.Parallel.verdict) ->
            if v.Xform.Parallel.v_ext_doall && not v.Xform.Parallel.v_std_doall
            then Some (Xform.Parallel.loop_path v.Xform.Parallel.v_loop)
            else None)
          vs
      in
      tot_loops := !tot_loops + List.length vs;
      tot_std := !tot_std + std;
      tot_ext := !tot_ext + ext;
      Printf.printf "%-20s %8d %8d %8d   %s\n" name (List.length vs) std ext
        (String.concat " " wins))
    Corpus.timing_population;
  Printf.printf "%-20s %8d %8d %8d\n" "TOTAL" !tot_loops !tot_std !tot_ext

(* ------------------------------------------------------------------ *)
(* Ablation: verdict memo                                              *)
(* ------------------------------------------------------------------ *)

let memo_ablation () =
  section "Ablation: verdict memo";
  (* verdict memoization across a repeated whole-corpus analysis (the
     analyze-everything-twice pattern of the differential suites) *)
  let population () =
    List.iter
      (fun name ->
        ignore
          (Driver.analyze (Lang.Sema.parse_and_analyze (Corpus.find name))))
      Corpus.timing_population
  in
  let twice () = time (fun () -> population (); population ()) in
  let _, t_nomemo = with_ref Analyses.Memo.enabled false twice in
  let _, t_memo =
    with_ref Analyses.Memo.enabled true (fun () ->
        Analyses.Memo.reset ();
        twice ())
  in
  let m = Analyses.Memo.stats in
  Printf.printf
    "ablation-memo        : 2x corpus driver %.1f ms uncached, %.1f ms with verdict memo (%.2fx, %d hits / %d distinct, %.0f%% hit rate)\n"
    (ms t_nomemo) (ms t_memo)
    (t_nomemo /. t_memo)
    m.Analyses.Memo.hits m.Analyses.Memo.misses
    (100. *. Analyses.Memo.hit_rate ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one per table/figure)                    *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  section "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let cholsky = Lang.Sema.parse_and_analyze (Corpus.find "cholsky") in
  let ex3 = Lang.Sema.parse_and_analyze (Corpus.find "example3") in
  let ex7 = Lang.Sema.parse_and_analyze (Corpus.find "example7") in
  let kill_prog = Lang.Sema.parse_and_analyze (Corpus.find "kill_chain") in
  let kill_ctx = Depctx.create kill_prog in
  let find l list = List.find (fun a -> a.Lang.Ir.label = l) list in
  let kw1 = find "w1" (Lang.Ir.writes kill_prog) in
  let kw2 = find "w2" (Lang.Ir.writes kill_prog) in
  let kr = find "r" (Lang.Ir.reads kill_prog) in
  let kill_levels ~src ~dst kind =
    (Option.get (Deps.compute kill_ctx ~src ~dst ~kind)).Deps.levels
  in
  let w1_r = kill_levels ~src:kw1 ~dst:kr Deps.Flow in
  let w1_w2 = kill_levels ~src:kw1 ~dst:kw2 Deps.Output in
  let w2_r = kill_levels ~src:kw2 ~dst:kr Deps.Flow in
  let ctx7 = Depctx.create ex7 in
  let w7 = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes ex7) in
  let r7 = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.reads ex7) in
  let tests =
    [
      Test.make ~name:"examples1-6/driver-example3"
        (Staged.stage (fun () -> ignore (Driver.analyze ex3)));
      Test.make ~name:"fig3-fig4/driver-cholsky"
        (Staged.stage (fun () -> ignore (Driver.analyze cholsky)));
      Test.make ~name:"fig6-left/pair-extended"
        (Staged.stage (fun () ->
             ignore (Deps.compute kill_ctx ~src:kw1 ~dst:kr ~kind:Deps.Flow);
             ignore (Analyses.covers kill_ctx ~src:kw1 ~dst:kr ~levels:w1_r)));
      Test.make ~name:"fig6-right/kill-test"
        (Staged.stage (fun () ->
             ignore
               (Analyses.kills kill_ctx ~src:kw1 ~killer:kw2 ~dst:kr ~ac:w1_r
                  ~ab:w1_w2 ~bc:w2_r)));
      Test.make ~name:"fig7/pair-standard"
        (Staged.stage (fun () ->
             ignore (Deps.compute kill_ctx ~src:kw1 ~dst:kr ~kind:Deps.Flow)));
      Test.make ~name:"sec5/symbolic-example7"
        (Staged.stage (fun () ->
             ignore
               (Symbolic.analyze ctx7 ~src:w7 ~dst:r7
                  ~restraint:[ Dirvec.Pos; Dirvec.Any ] ~hide:[ "n" ] ())));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"odep" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-36s %14.1f ns/run\n" name est
      | _ -> Printf.printf "%-36s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Speedup suite: execute every kernel serial / std-plan / ext-plan    *)
(* ------------------------------------------------------------------ *)

(* The paper's payoff, measured: each corpus kernel runs at scaled trip
   counts four ways - interpreted serially, compiled serially on the VM,
   and on the VM with the standard or the extended analysis's doall
   loops (privatization included) parallelized over domains - which
   separates the compilation win (interp -> VM, [compile_speedup]) from
   the parallelism win (serial VM -> plan VM,
   [std_speedup]/[ext_speedup]).  Compilation itself is hoisted out of
   the timed region (it happens once per program/plan); arena
   initialization is included, since every execution must pay it.  Final
   states: serial VM is checked bit-for-bit against the interpreter
   (total-memory equality), each plan VM against the serial VM's memory
   (arena and sparse cells) — a reported speedup is also a soundness
   certificate. *)

(* Deterministic nonzero contents so value propagation is observable. *)
let speedup_init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

type vm_row = {
  vr_name : string;
  vr_syms : (string * int) list;
  vr_loops : int;
  vr_std_doall : int;
  vr_ext_doall : int;
  vr_iters : int; (* calibrated inner iterations for the serial-VM sample *)
  vr_interp : float;
  vr_vm : float;
  vr_vm_run : float; (* serial VM, run only (arena setup excluded) *)
  vr_std : float;
  vr_ext : float;
  vr_opt : float; (* serial VM, full optimizer pipeline, run only *)
  vr_std_regions : int;
  vr_ext_regions : int;
  vr_std_inline : int;
  vr_ext_inline : int;
  vr_fused : int;
  vr_loopi : int;
  vr_x_fused : int;
  vr_x_killed : int;
  vr_dyn_base : int; (* dynamic instructions, unoptimized serial VM *)
  vr_dyn_opt : int; (* dynamic instructions, optimized serial VM *)
  vr_identical : bool;
}

let dyn_ratio r = float_of_int r.vr_dyn_base /. float_of_int (max 1 r.vr_dyn_opt)

let json_of_kernel r =
  Json.Obj
    [
      ("name", Json.Str r.vr_name);
      ("syms", Json.Obj (List.map (fun (s, v) -> (s, Json.Int v)) r.vr_syms));
      ("loops", Json.Int r.vr_loops);
      ("std_doall", Json.Int r.vr_std_doall);
      ("ext_doall", Json.Int r.vr_ext_doall);
      ("iters", Json.Int r.vr_iters);
      ("interp_ms", jf (ms r.vr_interp));
      ("vm_ms", jf (ms r.vr_vm));
      ("vm_run_ms", jf (ms r.vr_vm_run));
      ("std_ms", jf (ms r.vr_std));
      ("ext_ms", jf (ms r.vr_ext));
      ("opt_ms", jf (ms r.vr_opt));
      ("compile_speedup", jf (ratio r.vr_interp r.vr_vm));
      ("std_speedup", jf (ratio r.vr_vm r.vr_std));
      ("ext_speedup", jf (ratio r.vr_vm r.vr_ext));
      ("opt_speedup", jf (ratio r.vr_vm_run r.vr_opt));
      ("fused", Json.Int r.vr_fused);
      ("loopi", Json.Int r.vr_loopi);
      ( "restructure",
        Json.Obj
          [
            ("fused", Json.Int r.vr_x_fused);
            ("killed", Json.Int r.vr_x_killed);
          ] );
      ("dyn_base", Json.Int r.vr_dyn_base);
      ("dyn_opt", Json.Int r.vr_dyn_opt);
      ("dyn_reduction", jf (dyn_ratio r));
      ("std_regions", Json.Int r.vr_std_regions);
      ("ext_regions", Json.Int r.vr_ext_regions);
      ("std_inline", Json.Int r.vr_std_inline);
      ("ext_inline", Json.Int r.vr_ext_inline);
      ("ext_beats_serial", Json.Bool (r.vr_ext < r.vr_vm));
      ("identical", Json.Bool r.vr_identical);
    ]

let speedup_suite ~smoke ~domains ~repeat ~out () =
  let pool = Xform.Exec.create_pool ?size:domains () in
  let domains = Xform.Exec.pool_size pool in
  section
    (Printf.sprintf
       "Speedup (compiled backend): interp / serial VM / std VM / ext VM / \
        optimized VM (%d domain%s%s, best of %d after warmup)"
       domains
       (if domains = 1 then "" else "s")
       (if smoke then ", smoke" else "")
       repeat);
  let target = if smoke then 8_000 else 150_000 in
  (* A smoke-scale kernel finishes in a few microseconds, so each
     measurement is calibrated to clear the floor; the serial-VM count
     is recorded in the artifact so a reader can judge sample quality. *)
  let floor = if smoke then 0.002 else 0.01 in
  let calibrated f =
    let iters = calibrate ~floor f in
    (per_call ~reps:repeat ~iters f, iters)
  in
  Printf.printf "%-18s %-14s %8s %8s %8s %8s %8s %5s %5s %5s %5s %5s %5s\n"
    "kernel" "syms" "interp" "vm(ms)" "std(ms)" "ext(ms)" "opt(ms)" "c-x"
    "std-x" "ext-x" "opt-x" "dyn-x" "ident";
  let rows =
    List.filter_map
      (fun name ->
        let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
        let g = Xform.Graph.build prog in
        let vs = Xform.Parallel.analyze g in
        let nloops = List.length vs in
        let std_doall, ext_doall = Xform.Parallel.count_doall vs in
        match Xform.Oracle.scaled_syms ~target prog with
        | None -> None
        | Some syms -> (
          match Xform.Exec.run_serial ~init:speedup_init prog ~syms with
          | exception Lang.Interp.Runtime_error _ -> None
          | serial_mem -> (
            let u_serial = Lang.Compile.program prog ~syms in
            let u_std =
              Xform.Exec.compile_plan (Xform.Exec.plan Xform.Exec.Std vs)
                prog ~syms
            in
            let u_ext =
              Xform.Exec.compile_plan (Xform.Exec.plan Xform.Exec.Ext vs)
                prog ~syms
            in
            (* correctness first: serial VM vs interpreter, plan VMs vs
               serial VM *)
            let tvm = Lang.Vm.create ~init:speedup_init u_serial in
            Lang.Vm.run tvm;
            let serial_ok =
              Lang.Vm.check_against ~init:speedup_init tvm serial_mem = []
            in
            let run_par u =
              Xform.Exec.run_compiled_vm ~pool ~init:speedup_init u
            in
            let t_std_vm, std_stats = run_par u_std in
            let t_ext_vm, ext_stats = run_par u_ext in
            let identical =
              serial_ok
              && Lang.Vm.equal_state tvm t_std_vm
              && Lang.Vm.equal_state tvm t_ext_vm
            in
            if not identical then
              fail "%s: VM final state diverges from serial" name;
            (* --- optimizer pipeline ---
               Restructure (fusion, write-kill), compile, then the
               bytecode pass; the unoptimized baseline is [u_serial].
               Restructuring may change the arena layout, so the
               optimized VM is checked against the interpreter's
               final memory. *)
            let ast', xr =
              Xform.Restructure.optimize
                (Lang.Parser.parse_string (Corpus.find name))
            in
            let u_opt, orep =
              Lang.Opt.optimize
                (Lang.Compile.program (Lang.Sema.analyze ast') ~syms)
            in
            let topt = Lang.Vm.create ~init:speedup_init u_opt in
            Lang.Vm.run topt;
            let opt_ok =
              Lang.Vm.check_against ~init:speedup_init topt serial_mem = []
            in
            if not opt_ok then
              fail "%s: optimized VM final state diverges from the interpreter"
                name;
            let dyn u =
              Lang.Vm.run_count (Lang.Vm.create ~init:speedup_init u)
            in
            let dyn_base = dyn u_serial and dyn_opt = dyn u_opt in
            (* timings *)
            let run_vm u =
              let t = Lang.Vm.create ~init:speedup_init u in
              Lang.Vm.run t
            in
            (* single-threaded measurements first: right after a
               run_par burst the pool's waking workers still steal
               cycles (one core), inflating whatever is timed next *)
            let t_interp, _ =
              calibrated (fun () ->
                  ignore
                    (Xform.Exec.run_serial ~init:speedup_init prog ~syms))
            in
            let t_vm, iters = calibrated (fun () -> run_vm u_serial) in
            (* The unoptimized and optimized units are timed
               round-robin inside each repetition, not one after the
               other: allocator and frequency drift across a kernel's
               measurement window otherwise dwarfs the optimizer's
               effect.  One calibration on the unoptimized unit fixes
               the iteration count for both, so loop overhead cancels
               in the ratio.  Vm.create (arena allocation +
               initialization) is hoisted out of the timed window —
               the optimizer cannot change setup cost, and on
               big-arena kernels setup is half the wall time, washing
               out the effect being measured ([vm_ms] above keeps the
               setup-included number).  Creates are batched so each
               timed window spans enough runs to clear the clock's
               resolution without holding more than ~32 MB of
               arenas. *)
            let run_only u =
              let cells = max 1 u.Lang.Compile.u_arena in
              let batch = max 1 (min iters (min 64 (4_000_000 / cells))) in
              let rounds = (iters + batch - 1) / batch in
              let acc = ref 0. in
              for _ = 1 to rounds do
                let vms =
                  Array.init batch (fun _ ->
                      Lang.Vm.create ~init:speedup_init u)
                in
                let _, t = time (fun () -> Array.iter Lang.Vm.run vms) in
                acc := !acc +. t
              done;
              !acc /. float_of_int (rounds * batch)
            in
            run_vm u_serial;
            run_vm u_opt;
            let t_vm_run = ref infinity and t_opt = ref infinity in
            for _rep = 1 to repeat do
              t_vm_run := Float.min !t_vm_run (run_only u_serial);
              t_opt := Float.min !t_opt (run_only u_opt)
            done;
            let t_vm_run = !t_vm_run and t_opt = !t_opt in
            let t_std, _ = calibrated (fun () -> ignore (run_par u_std)) in
            let t_ext, _ = calibrated (fun () -> ignore (run_par u_ext)) in
            let row =
              {
                vr_name = name;
                vr_syms = syms;
                vr_loops = nloops;
                vr_std_doall = std_doall;
                vr_ext_doall = ext_doall;
                vr_iters = iters;
                vr_interp = t_interp;
                vr_vm = t_vm;
                vr_vm_run = t_vm_run;
                vr_std = t_std;
                vr_ext = t_ext;
                vr_opt = t_opt;
                vr_std_regions = std_stats.Xform.Exec.x_regions;
                vr_ext_regions = ext_stats.Xform.Exec.x_regions;
                vr_std_inline = std_stats.Xform.Exec.x_inline;
                vr_ext_inline = ext_stats.Xform.Exec.x_inline;
                vr_fused = orep.Lang.Opt.r_fused;
                vr_loopi = orep.Lang.Opt.r_loopi;
                vr_x_fused = xr.Xform.Restructure.x_fused;
                vr_x_killed = xr.Xform.Restructure.x_killed;
                vr_dyn_base = dyn_base;
                vr_dyn_opt = dyn_opt;
                vr_identical = identical && opt_ok;
              }
            in
            Printf.printf
              "%-18s %-14s %8.1f %8.2f %8.2f %8.2f %8.2f %5.1f %5.2f %5.2f \
               %5.2f %5.2f %5s\n"
              name
              (String.concat ","
                 (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) syms))
              (ms t_interp) (ms t_vm) (ms t_std) (ms t_ext) (ms t_opt)
              (ratio t_interp t_vm) (ratio t_vm t_std) (ratio t_vm t_ext)
              (ratio t_vm_run t_opt) (dyn_ratio row)
              (if row.vr_identical then "yes" else "NO");
            Some row)))
      (* the Figure 6/7 population plus the section 5 kernels: index
         arrays, opaque bounds, products of loop variables and a
         scalar-indexed subscript (run-time addresses, sparse arrays) *)
      (Corpus.timing_population
      @ [ "example8"; "example9"; "example10"; "example11" ])
  in
  Xform.Exec.shutdown pool;
  let all_ok = List.for_all (fun r -> r.vr_identical) rows in
  let geo f = geomean (List.map f rows) in
  let geo_compile = geo (fun r -> ratio r.vr_interp r.vr_vm) in
  let geo_opt = geo (fun r -> ratio r.vr_vm_run r.vr_opt) in
  let geo_dyn = geo dyn_ratio in
  let names p =
    List.filter_map (fun r -> if p r then Some (Json.Str r.vr_name) else None)
      rows
  in
  let beats_serial = names (fun r -> r.vr_ext < r.vr_vm) in
  let beats_std = names (fun r -> r.vr_ext < r.vr_std) in
  Printf.printf
    "\n\
     %d kernels; geomean interp->VM speedup %.1fx; geomean optimizer speedup \
     %.2fx (dynamic instructions %.2fx down); ext VM beats serial VM on %d, \
     beats std VM on %d; all final states identical: %b\n"
    (List.length rows) geo_compile geo_opt geo_dyn
    (List.length beats_serial) (List.length beats_std) all_ok;
  finish ~out
    (Json.Obj
       [
         ("domains", Json.Int domains);
         ("smoke", Json.Bool smoke);
         ("repeat", Json.Int repeat);
         ("all_identical", Json.Bool all_ok);
         ("geomean_compile_speedup", jf geo_compile);
         ("geomean_ext_speedup", jf (geo (fun r -> ratio r.vr_vm r.vr_ext)));
         ("geomean_opt_speedup", jf geo_opt);
         ("geomean_dyn_reduction", jf geo_dyn);
         ("ext_beats_serial", Json.List beats_serial);
         ("ext_beats_std", Json.List beats_std);
         ("kernels", Json.List (List.map json_of_kernel rows));
       ])

(* ------------------------------------------------------------------ *)
(* Robustness suite: governance sweep + fault-injection soundness      *)
(* ------------------------------------------------------------------ *)

(* CI's gate for the resource-governed solver core.  Three checks, over
   the whole corpus plus the adversarial stress nests:

   - totality: every budget rung completes without an exception -
     exhaustion surfaces as telemetry, never as a crash;
   - monotone degradation: what the tight rung proves (dead edges,
     doalls) is a subset of what the default rung proves, and the
     default live set is within the tight one;
   - fault soundness: with a deterministic fraction of queries forced
     to give up, every plan stays within the clean plan and degraded
     doall execution still matches serial bit-for-bit.

   Any violation is printed, recorded in the JSON artifact, and turns
   into a nonzero exit. *)

let robust_programs () = Corpus.all @ Corpus.stress

(* The full standard + extended analysis of one program: dead/live flow
   classification plus the doall verdicts of the transformation layer.
   The verdict memo is reset first, so a repetition re-solves every
   query instead of replaying the previous run's cache. *)
type outcome = {
  ro_dead : string list;
  ro_live : string list;
  ro_std : string list;
  ro_ext : string list;
}

let outcome (prog : Lang.Ir.program) : outcome =
  Analyses.Memo.reset ();
  let r = Driver.analyze prog in
  let key (fr : Driver.flow_result) =
    Printf.sprintf "%d->%d" fr.Driver.dep.Deps.src.Lang.Ir.acc_id
      fr.Driver.dep.Deps.dst.Lang.Ir.acc_id
  in
  let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
  let doalls side =
    List.filter_map
      (fun (v : Xform.Parallel.verdict) ->
        if side v then Some (Xform.Parallel.loop_path v.Xform.Parallel.v_loop)
        else None)
      vs
  in
  {
    ro_dead = List.map key (Driver.dead_flows r);
    ro_live = List.map key (Driver.live_flows r);
    ro_std = doalls (fun v -> v.Xform.Parallel.v_std_doall);
    ro_ext = doalls (fun v -> v.Xform.Parallel.v_ext_doall);
  }

(* The sizes of two outcomes that should agree, for a violation line. *)
let outcome_sizes (a : outcome) (b : outcome) =
  let n = List.length in
  Printf.sprintf "dead %d/%d, live %d/%d, std doall %d/%d, ext doall %d/%d"
    (n a.ro_dead) (n b.ro_dead) (n a.ro_live) (n b.ro_live) (n a.ro_std)
    (n b.ro_std) (n a.ro_ext) (n b.ro_ext)

let parse src = Lang.Sema.analyze (Lang.Parser.parse_string src)

let robustness_suite ~out ~seeds () =
  section "Robustness: governance sweep + fault-injection soundness";
  let programs = robust_programs () in
  (* [weak] proves no more than [strong]: its dead set and doalls lie
     within strong's, and strong's live set within its. *)
  let within where (wname, (weak : outcome)) (sname, (strong : outcome)) =
    let sub label a b =
      if not (List.for_all (fun x -> List.mem x b) a) then
        fail "%s: %s %s not within %s's" where wname label sname
    in
    sub "dead set" weak.ro_dead strong.ro_dead;
    sub "std doalls" weak.ro_std strong.ro_std;
    sub "ext doalls" weak.ro_ext strong.ro_ext;
    sub
      (Printf.sprintf "live set (%s within %s)" sname wname)
      strong.ro_live weak.ro_live
  in
  (* --- governance sweep: run every program at each budget rung --- *)
  let tiny =
    { Omega.Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }
  in
  let rungs = [ ("default", Omega.Budget.default); ("tiny", tiny) ] in
  let sweep (rname, lims) =
    Omega.Metrics.reset ();
    let outcomes =
      Omega.Budget.with_limits lims (fun () ->
          List.filter_map
            (fun (pname, src) ->
              match outcome (parse src) with
              | o -> Some (pname, o)
              | exception e ->
                fail "%s crashed under %s budget: %s" pname rname
                  (Printexc.to_string e);
                None)
            programs)
    in
    let m = Omega.Metrics.current () in
    Printf.printf "budget %-8s %s\n" rname (Omega.Metrics.governance_summary m);
    (rname, outcomes, Json.Obj (Service.governance_fields m))
  in
  let rung_rows = List.map sweep rungs in
  let clean =
    match rung_rows with (_, o, _) :: _ -> o | [] -> assert false
  in
  (* --- monotone degradation: tiny proves no more than default --- *)
  (match rung_rows with
  | (_, o_def, _) :: (_, o_tiny, _) :: _ ->
    List.iter
      (fun (pname, (t : outcome)) ->
        match List.assoc_opt pname o_def with
        | None -> ()
        | Some d -> within pname ("tiny-budget", t) ("default", d))
      o_tiny
  | _ -> ());
  (* --- fault injection: degraded plans stay within clean plans --- *)
  let rate = 0.10 in
  let pool = Xform.Exec.create_pool () in
  let seed_rows =
    List.map
      (fun seed ->
        Omega.Budget.set_fault_injection ~seed ~rate;
        Omega.Metrics.reset ();
        Fun.protect ~finally:Omega.Budget.clear_fault_injection (fun () ->
            List.iter
              (fun (pname, src) ->
                match outcome (parse src) with
                | exception e ->
                  fail "%s crashed under fault seed %d: %s" pname seed
                    (Printexc.to_string e)
                | faulty ->
                  Option.iter
                    (fun cl ->
                      within
                        (Printf.sprintf "%s (seed %d)" pname seed)
                        ("faulty", faulty) ("clean", cl))
                    (List.assoc_opt pname clean))
              programs;
            let injected = (Omega.Metrics.current ()).gave_up_injected in
            if injected = 0 then
              fail "seed %d: fault injection never fired" seed;
            (* degraded plans must still execute soundly *)
            List.iter
              (fun pname ->
                let prog = parse (Corpus.find pname) in
                let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
                let pl = Xform.Exec.plan Xform.Exec.Ext vs in
                let syms =
                  match
                    Xform.Oracle.pick_syms ~candidates:[ 8; 4; 2; 5; 50; 100 ]
                      prog
                  with
                  | Some s -> s
                  | None -> []
                in
                let serial =
                  Xform.Exec.run_serial ~init:speedup_init prog ~syms
                in
                let mem, _ =
                  Xform.Exec.run_parallel ~pool ~init:speedup_init pl prog
                    ~syms
                in
                if not (Xform.Exec.equal_mem serial mem) then
                  fail "%s (seed %d): degraded plan diverges from serial"
                    pname seed)
              [ "temp_reuse"; "copyin"; "kill_chain" ];
            let m = Omega.Metrics.current () in
            Printf.printf "fault seed %-6d rate %.2f: %s\n" seed rate
              (Omega.Metrics.governance_summary m);
            (seed, injected, Json.Obj (Service.governance_fields m))))
      seeds
  in
  Analyses.Memo.reset ();
  Printf.printf
    "\n%d programs (%d stress); %d budget rungs; %d fault seeds; sound: %b\n"
    (List.length programs)
    (List.length (robust_programs ()) - List.length Corpus.all)
    (List.length rungs) (List.length seeds) (sound ());
  finish ~out
    (Json.Obj
       [
         ("programs", Json.Int (List.length programs));
         ("rate", Json.Float rate);
         ( "budgets",
           Json.List
             (List.map
                (fun (rname, _, tj) ->
                  Json.Obj
                    [
                      ("budget", Json.Str rname);
                      ("telemetry", tj);
                    ])
                rung_rows) );
         ( "seeds",
           Json.List
             (List.map
                (fun (seed, injected, tj) ->
                  Json.Obj
                    [
                      ("seed", Json.Int seed);
                      ("injected", Json.Int injected);
                      ("telemetry", tj);
                    ])
                seed_rows) );
         ("violations", violations ());
         ("sound", Json.Bool (sound ()));
       ])

(* ------------------------------------------------------------------ *)
(* Analysis-time suite: solver-core throughput                         *)
(* ------------------------------------------------------------------ *)

(* CI's gate for the solver hot path (DESIGN.md sections 9 and 12): the
   whole-corpus standard+extended analysis and the figure 6/7 per-pair
   population, timed under a deliberately generous budget so nothing
   gives up, followed by two gates — the cascade-vs-complete oracle and
   (with [--domains]) the serial vs domain-sharded differential. *)

let analysis_budget =
  {
    Omega.Budget.fuel = 10_000_000;
    splinters = 1_000_000;
    disjuncts = 65_536;
    deadline_ms = None;
  }

let under_budget f = Omega.Budget.with_limits analysis_budget f

(* One parsed program of the timed population.  Parsing and IR building
   are hoisted out of the timed region (the suite measures the analyses,
   not the front end) and shared by every pass, which also pins variable
   and access identities so results can be compared directly. *)
type analysis_subject = { as_name : string; as_prog : Lang.Ir.program }

(* The whole corpus plus the adversarial stress nests (the robustness
   suite's population): the stress programs are where Fourier-Motzkin
   growth actually bites. *)
let analysis_subjects () : analysis_subject list =
  List.map
    (fun (name, src) ->
      { as_name = name; as_prog = parse src })
    (Corpus.all @ Corpus.stress)

(* Time one subject, [iters] analyses per sample (calibrated once per
   subject, so every pass over the population times it the same way).
   Subjects slow enough to carry their own signal (the stress nests)
   are timed as single runs. *)
let time_subject ~reps ~iters s =
  under_budget @@ fun () ->
  let run () = outcome s.as_prog in
  if iters = 1 then snd (time run) else per_call ~reps ~iters run

type measured = {
  me_subject : analysis_subject;
  me_iters : int;
  me_time : float;
  me_words : int;
}

(* Minor-heap words one serial analysis of [s] allocates, its verdict
   memo reset first ([outcome] does), after one warm-up analysis.  For
   one compiler the count does not depend on the host, so it shows an
   allocation change through timing noise. *)
let analysis_words s =
  under_budget @@ fun () ->
  ignore (outcome s.as_prog);
  let w0 = Gc.minor_words () in
  ignore (outcome s.as_prog);
  int_of_float (Gc.minor_words () -. w0)

let measure_subject ~reps (s, words) =
  let iters =
    under_budget (fun () -> calibrate ~floor:0.01 (fun () -> outcome s.as_prog))
  in
  {
    me_subject = s;
    me_iters = iters;
    me_time = time_subject ~reps ~iters s;
    me_words = words;
  }

let analysis_suite ~smoke ~repeat ~out ~domains () =
  section
    (Printf.sprintf "Analysis time: solver core%s, best of %d after warmup"
       (if smoke then ", smoke" else "")
       repeat);
  let reps = repeat in
  let subjects = analysis_subjects () in
  (* words first, on a fresh process, before any timing loop whose
     length depends on the host *)
  let words = List.map analysis_words subjects in
  let measured =
    List.map (measure_subject ~reps) (List.combine subjects words)
  in
  let corpus_pass () =
    under_budget (fun () ->
        List.iter (fun s -> ignore (outcome s.as_prog)) subjects)
  in
  let t_pairs =
    under_budget (fun () ->
        warm_best ~reps (fun () -> ignore (pair_timings ())))
  in
  Printf.printf "%-20s %12s %12s\n" "program" "ms" "minor words";
  List.iter
    (fun m ->
      Printf.printf "%-20s %12.2f %12d\n" m.me_subject.as_name (ms m.me_time)
        m.me_words)
    measured;
  Printf.printf "%-20s %12.2f\n" "fig6/7 pairs" (ms t_pairs);
  let t_corpus = List.fold_left (fun acc m -> acc +. m.me_time) 0. measured in
  Printf.printf "%-20s %12.2f\n" "whole corpus" (ms t_corpus);
  (* solver counters and per-tier traffic for one corpus pass *)
  Omega.Metrics.reset ();
  corpus_pass ();
  let tiers = Omega.Metrics.current () in
  Printf.printf "\nsolver (corpus pass): %s\n"
    (Omega.Metrics.solver_summary tiers);
  (* --- decision portfolio: the tiered cascade (DESIGN.md section 12).
     One gate, which also runs in smoke mode: the oracle replays every
     query the fast tier proves through the complete procedure, and
     every refinement step the refinement screen settles through its
     refinement query, and demands agreement; dependence sets, direction
     vectors, kill/cover attribution and doall verdicts all rest on
     those answers.  A replay moves no counter of the run, but it costs
     solver time, so it runs on a pass of its own.  A replay that gives
     up within the limits confirms nothing; it is counted and listed. *)
  Omega.Metrics.reset ();
  Portfolio.Oracle.enable ();
  corpus_pass ();
  Portfolio.Oracle.disable ();
  let oracle_checks = Portfolio.Oracle.checks () in
  let oracle_bad = Portfolio.Oracle.divergences () in
  let oracle_gave_up = Portfolio.Oracle.gave_up () in
  if oracle_checks = 0 then fail "oracle: no verdict replayed";
  List.iter
    (fail "oracle: a shortcut proved %s but its replay does not")
    oracle_bad;
  let trate (r : Omega.Metrics.row) =
    if r.attempts = 0 then 0.
    else float_of_int r.decides /. float_of_int r.attempts
  in
  Printf.printf
    "\noracle: %d verdicts replayed, %d contradictions, %d replays gave \
     up%s\ntiers (attempts/decided): %s\n"
    oracle_checks
    (List.length oracle_bad)
    (List.length oracle_gave_up)
    (if oracle_gave_up = [] then ""
     else " (" ^ String.concat ", " oracle_gave_up ^ ")")
    (Omega.Metrics.tiers_summary tiers);
  let tier_json (r : Omega.Metrics.row) =
    Json.Obj
      [
        ("attempts", Json.Int r.attempts);
        ("decides", Json.Int r.decides);
        ("decide_rate", jf (trate r));
        ("ms", jf (ms r.elapsed));
      ]
  in
  let portfolio_json =
    Json.Obj
      [
        ("oracle_checks", Json.Int oracle_checks);
        ("oracle_divergences", Json.Int (List.length oracle_bad));
        ("oracle_gave_up", Json.Int (List.length oracle_gave_up));
        ( "tiers",
          Json.Obj
            [
              ("quick", tier_json tiers.quick);
              ("fast", tier_json tiers.fast);
              ("complete", tier_json tiers.complete);
            ] );
      ]
  in
  (* --- serial vs domain-sharded differential (the --domains gate):
     the same corpus pass and the same fig 6/7 pair population, once at
     width 1 and once sharded, must produce structurally identical
     outcomes — dependence sets, direction vectors, doall verdicts.
     The sharded pass is not timed: on a shared host with fewer cores
     than domains its clock says nothing about the code, and the gate
     is identity, not speed. *)
  let parallel_fields =
    match domains with
    | None -> []
    | Some n ->
      let n = max 2 n in
      (* Whole programs are the sharding unit: one task re-analyzes one
         subject, so the expensive stress nests run concurrently with
         the rest of the corpus, and the per-destination sharding inside
         [Driver.analyze] stays inline on the worker ([Par.map] nests
         without re-entering the pool).  At width 1 [Par.map_list] is
         exactly [List.map], so the serial pass is untouched. *)
      let sharded_pass () =
        Par.map_list (fun s -> (s.as_name, outcome s.as_prog)) subjects
      in
      let pass () =
        under_budget (fun () -> (sharded_pass (), pair_verdicts ()))
      in
      Par.set_domains 1;
      let (serial_out, serial_pairs), t_serial = time pass in
      Par.set_domains n;
      let par_out, par_pairs = pass () in
      Par.set_domains 1;
      List.iter2
        (fun (name, o) (_, p) ->
          if o <> p then
            fail "%s: %d-domain analysis diverges from serial (%s)" name n
              (outcome_sizes p o))
        serial_out par_out;
      if serial_pairs <> par_pairs then
        fail "fig6/7 pair verdicts diverge between serial and %d-domain runs"
          n;
      let parallel_identical =
        serial_out = par_out && serial_pairs = par_pairs
      in
      Printf.printf
        "\nserial vs %d domains: corpus+pairs %8.1f ms serial, identical \
         verdicts: %b\n"
        n (ms t_serial) parallel_identical;
      [
        ("domains", Json.Int n);
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("serial_ms", jf (ms t_serial));
        ("parallel_identical", Json.Bool parallel_identical);
      ]
  in
  finish ~out
    (Json.Obj
       (parallel_fields
       @ [
           ("portfolio", portfolio_json);
           ("smoke", Json.Bool smoke);
           ("repeat", Json.Int repeat);
           ("corpus_ms", jf (ms t_corpus));
           ("pairs_ms", jf (ms t_pairs));
           ("divergences", violations ());
           ( "programs",
             Json.List
               (List.map
                  (fun m ->
                    Json.Obj
                      [
                        ("name", Json.Str m.me_subject.as_name);
                        ("ms", jf (ms m.me_time));
                        ("minor_words", Json.Int m.me_words);
                      ])
                  measured) );
         ]))

(* ------------------------------------------------------------------ *)
(* Serving suite: petitd under concurrent load                         *)
(* ------------------------------------------------------------------ *)

(* The daemon's two claims, measured.  (1) Serving changes nothing:
   every payload that comes back over the socket is compared
   byte-for-byte against a fresh in-process run through the very
   payload builders the daemon uses.  (2) The shared verdict cache
   pays: the warm pass must report per-request memo hits on every
   request that does solver work at all.  [clients] threads each
   replay the corpus (analyze + parallelize per program) against an
   in-process server on a private Unix socket, twice - a cold pass on
   a fresh cache, then a warm pass on the heated one - and every
   request's latency lands in a per-client slot, aggregated to
   p50/p99 and throughput per pass.  The warm pass must not miss at
   all: a warm request that reports a verdict miss, or daemon verdict
   or vector miss counts that move across the pass, fail the bench (a
   key found by the wrong recipe would show there first). *)

type serve_sample = {
  sv_name : string;
  sv_op : string; (* "analyze" | "parallelize" *)
  sv_latency : float; (* seconds *)
  sv_payload : string; (* canonical rendering of the result payload *)
  sv_req_hits : int;
  sv_req_misses : int;
}

(* The two requests a client sends per program. *)
let requests src =
  [
    ( "analyze",
      Protocol.Analyze
        {
          program = src;
          in_bounds = false;
          budget = Protocol.no_budget;
          deadline_ms = None;
        } );
    ( "parallelize",
      Protocol.Parallelize
        {
          program = src;
          in_bounds = false;
          budget = Protocol.no_budget;
          deadline_ms = None;
        } );
  ]

(* Fresh in-process payloads for every (program, op).  The daemon
   shares this process's verdict cache, so they are computed first,
   through the same payload builders the daemon uses. *)
let expected_payloads programs =
  Analyses.Memo.reset ();
  List.concat_map
    (fun (name, src) ->
      let prog = parse src in
      [
        ( (name, "analyze"),
          Json.to_string (Service.analyze_payload ~in_bounds:false prog) );
        ( (name, "parallelize"),
          Json.to_string (Service.parallelize_payload ~in_bounds:false prog) );
      ])
    programs

(* An in-process petitd on a private Unix socket; [configure] adjusts
   the default configuration. *)
let start_daemon tag configure =
  let path = Printf.sprintf "/tmp/petitd-%s-%d.sock" tag (Unix.getpid ()) in
  let config = configure (Server.default_config (Protocol.Unix_path path)) in
  (path, config, Server.start config)

(* The result payload of a response, or why there is none. *)
let payload_of = function
  | Ok (Protocol.Result { payload; _ }) -> Ok payload
  | Ok (Protocol.Error_ e) -> Error e.message
  | Error e -> Error e

(* One request on a fresh session. *)
let call_once path req =
  let s = Client.open_session (Protocol.Unix_path path) in
  Fun.protect ~finally:(fun () -> Client.close_session s) @@ fun () ->
  payload_of (Client.call s req)

(* The daemon's [Stats] once it has handled every earlier client's
   close: [Health] (which the stats payload does not count) is polled
   on one session until [connections.open] reads 1, this session, for
   at most two seconds.  The payload comes back with the open count it
   settled on. *)
let settled_stats path =
  let s = Client.open_session (Protocol.Unix_path path) in
  Fun.protect ~finally:(fun () -> Client.close_session s) @@ fun () ->
  let call req = payload_of (Client.call s req) in
  let open_conns payload =
    match Json.member "connections" payload with
    | Some c -> Option.bind (Json.member "open" c) Json.to_int_opt
    | None -> None
  in
  let deadline = Unix.gettimeofday () +. 2. in
  let rec settle () =
    match call Protocol.Health with
    | Error e -> Error e
    | Ok health ->
      if open_conns health <> Some 1 && Unix.gettimeofday () < deadline then (
        Thread.delay 0.005;
        settle ())
      else Result.map (fun p -> (p, open_conns p)) (call Protocol.Stats)
  in
  settle ()

(* The daemon's verdict and vector miss counts, from a stats payload. *)
let memo_misses stats =
  let count field =
    Option.bind (Json.member "memo" stats) (fun m ->
        Option.bind (Json.member field m) Json.to_int_opt)
  in
  (count "misses", count "vec_misses")

let payload_or_exit what = function
  | Ok payload -> payload
  | Error e ->
    Printf.eprintf "%s: %s\n" what e;
    exit 1

let serve_programs ~smoke =
  if smoke then
    List.filter
      (fun (n, _) ->
        List.mem n [ "example1"; "example2"; "example4"; "temp_reuse"; "copyin" ])
      Corpus.all
  else Corpus.all

(* One pass: every client replays every program over its own
   connection.  Returns the per-client samples and the pass wall time;
   any transport error fails the bench. *)
let serve_pass path ~clients ~programs =
  let results = Array.make clients ([] : serve_sample list) in
  let errors = Array.make clients "" in
  let worker k () =
    match Client.connect (Protocol.Unix_path path) with
    | Error e -> errors.(k) <- "connect: " ^ e
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          try
            List.iter
              (fun (name, src) ->
                List.iter
                  (fun (op, req) ->
                    match time (fun () -> Client.request c req) with
                    | Error e, _ ->
                      failwith (Printf.sprintf "%s %s: %s" op name e)
                    | Ok resp, latency -> (
                      match Client.result_payload resp with
                      | Error e ->
                        failwith (Printf.sprintf "%s %s: %s" op name e)
                      | Ok (payload, memo) ->
                        let hits, misses =
                          match memo with
                          | Some m ->
                            (m.Protocol.mr_req_hits, m.Protocol.mr_req_misses)
                          | None -> (0, 0)
                        in
                        results.(k) <-
                          {
                            sv_name = name;
                            sv_op = op;
                            sv_latency = latency;
                            sv_payload = Json.to_string payload;
                            sv_req_hits = hits;
                            sv_req_misses = misses;
                          }
                          :: results.(k)))
                  (requests src))
              programs
          with Failure e -> errors.(k) <- e)
  in
  let (), wall =
    time (fun () ->
        List.init clients (fun k -> Thread.create (worker k) ())
        |> List.iter Thread.join)
  in
  Array.iteri
    (fun k e ->
      if e <> "" then (
        Printf.eprintf "serve bench: client %d: %s\n" k e;
        exit 1))
    errors;
  (Array.to_list results, wall)

let serve_pass_json ~samples ~wall =
  let lats = List.map (fun s -> s.sv_latency) samples in
  let n = List.length samples in
  Json.Obj
    [
      ("requests", Json.Int n);
      ("wall_ms", jf (ms wall));
      ("throughput_rps", jf (float_of_int n /. Float.max wall 1e-9));
      ("p50_ms", jf (ms (percentile 50. lats)));
      ("p99_ms", jf (ms (percentile 99. lats)));
      ( "mean_ms",
        jf (ms (List.fold_left ( +. ) 0. lats /. float_of_int (max 1 n))) );
      ( "req_memo_hits",
        Json.Int (List.fold_left (fun a s -> a + s.sv_req_hits) 0 samples) );
      ( "req_memo_misses",
        Json.Int (List.fold_left (fun a s -> a + s.sv_req_misses) 0 samples) );
    ]

let serve_suite ~smoke ~clients ~domains ~out () =
  section
    (Printf.sprintf
       "Serving: petitd, %d concurrent client%s replaying the corpus, cold \
        and warm%s%s"
       clients
       (if clients = 1 then "" else "s")
       (match domains with
       | Some n -> Printf.sprintf ", %d solver domain(s)" (max 1 n)
       | None -> "")
       (if smoke then ", smoke" else ""));
  let programs = serve_programs ~smoke in
  let expected = expected_payloads programs in
  let path, _, server =
    start_daemon "bench" (fun base ->
        match domains with
        | Some n -> { base with Server.c_domains = max 1 n }
        | None -> base)
  in
  let sdomains = Service.domains (Server.service server) in
  let check_payloads pass per_client =
    List.iteri
      (fun k samples ->
        List.iter
          (fun s ->
            match List.assoc_opt (s.sv_name, s.sv_op) expected with
            | Some e when e = s.sv_payload -> ()
            | Some _ ->
              fail "%s pass, client %d: %s %s diverges from in-process run"
                pass k s.sv_op s.sv_name
            | None -> assert false)
          samples)
      per_client
  in
  let stats_payload, cold_json, warm_json, cold_summary, warm_summary =
    Fun.protect
      ~finally:(fun () ->
        Server.stop server;
        Server.wait server;
        try Unix.unlink path with Unix.Unix_error _ -> ())
      (fun () ->
        let cold, cold_wall = serve_pass path ~clients ~programs in
        let before, _ =
          payload_or_exit "serve bench: stats" (settled_stats path)
        in
        let warm, warm_wall = serve_pass path ~clients ~programs in
        check_payloads "cold" cold;
        check_payloads "warm" warm;
        List.iteri
          (fun k samples ->
            List.iter
              (fun s ->
                if s.sv_req_misses > 0 then
                  fail "warm pass, client %d: %s %s reports %d memo misses" k
                    s.sv_op s.sv_name s.sv_req_misses)
              samples)
          warm;
        (* Requests that did solver work cold must replay from the
           shared cache warm: hits > 0 on the matching warm request. *)
        let cold_traffic =
          List.filter_map
            (fun s ->
              if s.sv_req_hits + s.sv_req_misses > 0 then
                Some (s.sv_name, s.sv_op)
              else None)
            (List.concat cold)
        in
        List.iteri
          (fun k samples ->
            List.iter
              (fun s ->
                if
                  List.mem (s.sv_name, s.sv_op) cold_traffic
                  && s.sv_req_hits = 0
                then
                  fail "warm pass, client %d: %s %s reports no memo hits" k
                    s.sv_op s.sv_name)
              samples)
          warm;
        let stats, open_conns =
          payload_or_exit "serve bench: stats" (settled_stats path)
        in
        if open_conns <> Some 1 then
          fail "daemon stats: connections.open reads %s, not 1 (its own)"
            (Option.fold ~none:"nothing" ~some:string_of_int open_conns);
        (let show = Option.fold ~none:"?" ~some:string_of_int in
         let (m, v), (m', v') = (memo_misses before, memo_misses stats) in
         if m = None || v = None || m <> m' || v <> v' then
           fail
             "warm pass: daemon memo misses %s -> %s, vector misses %s -> %s"
             (show m) (show m') (show v) (show v'));
        let summary label samples wall =
          let lats = List.map (fun s -> s.sv_latency) samples in
          Printf.sprintf
            "%-5s %5d requests in %8.1f ms: %8.1f req/s, p50 %6.2f ms, p99 \
             %6.2f ms"
            label (List.length samples) (ms wall)
            (float_of_int (List.length samples) /. Float.max wall 1e-9)
            (ms (percentile 50. lats))
            (ms (percentile 99. lats))
        in
        let cold_all = List.concat cold and warm_all = List.concat warm in
        ( stats,
          serve_pass_json ~samples:cold_all ~wall:cold_wall,
          serve_pass_json ~samples:warm_all ~wall:warm_wall,
          summary "cold" cold_all cold_wall,
          summary "warm" warm_all warm_wall ))
  in
  print_endline cold_summary;
  print_endline warm_summary;
  Printf.printf
    "%d programs x %d clients x 2 ops over %d solver domain(s); daemon \
     identical to in-process: %b\n"
    (List.length programs) clients sdomains (sound ());
  finish ~out
    (Json.Obj
       [
         ("smoke", Json.Bool smoke);
         ("clients", Json.Int clients);
         ("domains", Json.Int sdomains);
         ("host_cores", Json.Int (Domain.recommended_domain_count ()));
         ("programs", Json.Int (List.length programs));
         ("cold", cold_json);
         ("warm", warm_json);
         ("daemon_stats", stats_payload);
         ("identical", Json.Bool (sound ()));
         ("divergences", violations ());
       ])

(* ------------------------------------------------------------------ *)
(* bench chaos: the daemon under a hostile client mix                  *)
(* ------------------------------------------------------------------ *)

(* A live petitd (tight caps, short read deadlines) serves a pool of
   well-behaved retrying clients while five hostile injectors run
   concurrently — slowloris trickles, mid-frame disconnects, malformed-
   frame floods, oversized frames, connection churn — on top of PR 4's
   deterministic solver fault injection.  The gates: well-behaved
   clients keep 100% request success with byte-identical payloads and a
   bounded p99, the daemon's health endpoint proves the protections
   actually fired (nonzero shed + reaped counts), every stalled
   connection is reaped, and shutdown drains an in-flight request while
   force-closing a stalled one.  Everything lands in BENCH_chaos.json;
   any violation exits 1. *)

(* Moderate-service-time programs only: the suite studies overload
   control, so service times must stay within the retry window — a
   multi-second outlier (cholsky under fault injection, with the memo
   bypassed) would turn the admission gate into legitimate starvation
   no polite retry schedule can ride out. *)
let chaos_programs ~smoke =
  let names =
    if smoke then [ "example1"; "example2"; "temp_reuse" ]
    else [ "example1"; "example2"; "example4"; "temp_reuse"; "copyin"; "lu" ]
  in
  List.filter (fun (n, _) -> List.mem n names) Corpus.all

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wait for the server to close [fd]: EOF within [timeout] seconds.
   Any bytes that arrive first (e.g. an unsolicited Overloaded shed)
   are drained. *)
let rec wait_eof fd timeout =
  let t0 = Unix.gettimeofday () in
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> `Still_open
  | _ -> (
    match Unix.read fd (Bytes.create 256) 0 256 with
    | 0 -> `Reaped
    | _ -> wait_eof fd (Float.max 0.01 (timeout -. (Unix.gettimeofday () -. t0)))
    | exception Unix.Unix_error _ -> `Reaped)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_eof fd timeout

type chaos_injector = {
  ci_name : string;
  mutable ci_iterations : int;
  mutable ci_observed : int; (* injector-specific: reaps or sheds seen *)
  mutable ci_violations : string list;
}

(* slowloris: start a frame, trickle nothing, and demand the read
   deadline reaps us.  A connection still open after 6x the deadline is
   an unreaped stalled connection — a violation in its own right. *)
let run_slowloris path ~read_timeout_ms stop inj =
  while not (Atomic.get stop) do
    (match raw_connect path with
    | None -> Thread.delay 0.05
    | Some fd ->
      (try ignore (Unix.write_substring fd "\x00\x00" 0 2)
       with Unix.Unix_error _ -> ());
      (match wait_eof fd (6. *. read_timeout_ms /. 1000.) with
      | `Reaped -> inj.ci_observed <- inj.ci_observed + 1
      | `Still_open ->
        inj.ci_violations <-
          "slowloris connection not reaped by the read deadline"
          :: inj.ci_violations);
      close_quietly fd);
    inj.ci_iterations <- inj.ci_iterations + 1
  done

(* mid-frame disconnect: announce a frame, send a prefix, vanish. *)
let run_midframe path stop inj =
  while not (Atomic.get stop) do
    (match raw_connect path with
    | None -> ()
    | Some fd ->
      (try
         ignore (Unix.write_substring fd "\x00\x00\x03\xe8" 0 4);
         ignore (Unix.write_substring fd "0123456789" 0 10)
       with Unix.Unix_error _ -> ());
      close_quietly fd;
      inj.ci_iterations <- inj.ci_iterations + 1);
    Thread.delay 0.01
  done

(* malformed flood: syntactically valid frames of garbage JSON.  Paced
   to a few hundred per second — an unthrottled flood on a small host
   turns the bench into a CPU-starvation test of the harness itself
   rather than of the daemon's input handling. *)
let run_malformed path stop inj =
  while not (Atomic.get stop) do
    (match raw_connect path with
    | None -> Thread.delay 0.05
    | Some fd ->
      (try
         for _ = 1 to 20 do
           if not (Atomic.get stop) then begin
             Protocol.write_frame fd "this is not json {{{";
             (match Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 1.)
                      ~max:Protocol.default_max_frame fd
              with
             | Ok _ -> inj.ci_iterations <- inj.ci_iterations + 1
             | Error _ -> raise Exit);
             Thread.delay 0.003
           end
         done
       with Exit | Unix.Unix_error _ -> ());
      close_quietly fd);
    Thread.delay 0.005
  done

(* oversized frames: over the server's cap but under the drain cap, so
   the server answers Frame_too_large and keeps the stream in sync. *)
let run_oversized path ~max_frame stop inj =
  let body = String.make (2 * max_frame) 'x' in
  while not (Atomic.get stop) do
    (match raw_connect path with
    | None -> Thread.delay 0.05
    | Some fd ->
      (try
         for _ = 1 to 3 do
           if not (Atomic.get stop) then begin
             Protocol.write_frame fd body;
             (match Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 2.)
                      ~max:Protocol.default_max_frame fd
              with
             | Ok _ -> inj.ci_iterations <- inj.ci_iterations + 1
             | Error _ -> raise Exit);
             Thread.delay 0.005
           end
         done
       with Exit | Unix.Unix_error _ -> ());
      close_quietly fd);
    Thread.delay 0.01
  done

(* connection churn: bursts of simultaneous connections that push the
   daemon over its connection cap; sheds come back as unsolicited
   Overloaded responses, which we count.  Each connection is released
   right after its read so saturation stays a burst, not a blockade —
   well-behaved clients must be able to win a slot between bursts. *)
let run_churn path stop inj =
  while not (Atomic.get stop) do
    let fds = List.filter_map (fun _ -> raw_connect path) (List.init 12 Fun.id) in
    List.iter
      (fun fd ->
        inj.ci_iterations <- inj.ci_iterations + 1;
        (match
           Protocol.read_frame ~deadline:(Unix.gettimeofday () +. 0.02)
             ~max:Protocol.default_max_frame fd
         with
        | Ok payload -> (
          match Json.parse payload with
          | Ok j -> (
            match Protocol.decode_response j with
            | Ok (Protocol.Error_ { code = Protocol.Overloaded; _ }) ->
              inj.ci_observed <- inj.ci_observed + 1
            | _ -> ())
          | Error _ -> ())
        | Error _ -> ());
        close_quietly fd)
      fds;
    Thread.delay 0.3
  done

type chaos_client = {
  mutable cc_ok : int;
  mutable cc_failed : int;
  mutable cc_retries : int;
  mutable cc_injected : int; (* solver faults drawn inside our requests *)
  mutable cc_latencies : float list;
  mutable cc_violations : string list;
}

(* One well-behaved client: a retrying session replaying the corpus
   until the storm ends.  Every call must succeed (retries included)
   and every payload must match the in-process expectation byte for
   byte — overloads, reaps of its idle connection, and injected solver
   faults are all survivable by design. *)
let run_well_behaved path ~expected ~programs ~seed ~until cc =
  (* patient by design: under sustained genuine overload (demand above
     the admission gate, not just injector noise) a well-behaved client
     keeps backing off rather than giving up *)
  let policy =
    {
      Client.default_policy with
      Client.p_attempts = 24;
      p_base_ms = 10.;
      p_max_ms = 500.;
      p_retry_budget_ms = 60_000.;
      p_connect_timeout_ms = Some 2_000.;
      p_request_timeout_ms = Some 30_000.;
      p_seed = seed;
    }
  in
  let s = Client.open_session ~policy (Protocol.Unix_path path) in
  let govern_injected g =
    match Option.bind (Json.member "gave_up" g) (Json.member "injected") with
    | Some j -> Option.value (Json.to_int_opt j) ~default:0
    | None -> 0
  in
  while Unix.gettimeofday () < until do
    List.iter
      (fun (name, src) ->
        List.iter
          (fun (op, req) ->
            if Unix.gettimeofday () < until then begin
              (* a little think time: four zero-think closed loops
                 against a gate of two is sustained infeasible demand,
                 under which starving someone is correct shedding, not
                 a robustness bug *)
              Thread.delay 0.003;
              match time (fun () -> Client.call s req) with
              | Error e, _ ->
                cc.cc_failed <- cc.cc_failed + 1;
                cc.cc_violations <-
                  Printf.sprintf "well-behaved %s %s failed: %s" op name e
                  :: cc.cc_violations
              | Ok resp, latency -> (
                cc.cc_latencies <- latency :: cc.cc_latencies;
                match resp with
                | Protocol.Result { payload; governance; _ } ->
                  cc.cc_ok <- cc.cc_ok + 1;
                  (match governance with
                  | Some g -> cc.cc_injected <- cc.cc_injected + govern_injected g
                  | None -> ());
                  let got = Json.to_string payload in
                  if List.assoc (name, op) expected <> got then
                    cc.cc_violations <-
                      Printf.sprintf
                        "well-behaved %s %s diverges from in-process run" op
                        name
                      :: cc.cc_violations
                | Protocol.Error_ e ->
                  cc.cc_failed <- cc.cc_failed + 1;
                  cc.cc_violations <-
                    Printf.sprintf "well-behaved %s %s refused: %s: %s" op
                      name
                      (Protocol.error_code_to_string e.code)
                      e.message
                    :: cc.cc_violations)
            end)
          (requests src))
      programs
  done;
  cc.cc_retries <- Client.session_retries s;
  Client.close_session s

let chaos_suite ~smoke ~out () =
  let duration = if smoke then 2.5 else 10. in
  let read_timeout_ms = 250. in
  let max_frame = 64 * 1024 in
  let drain_ms = 2_000. in
  let clients = 4 in
  let fault_seed = 1 and fault_rate = 0.05 in
  section
    (Printf.sprintf
       "Chaos: petitd under a hostile client mix for %.1f s (%d well-behaved \
        clients; slowloris / mid-frame / malformed / oversized / churn \
        injectors; solver faults seed %d rate %.2f)%s"
       duration clients fault_seed fault_rate
       (if smoke then ", smoke" else ""));
  let programs = chaos_programs ~smoke in
  (* Deterministic solver fault injection runs for the whole suite —
     faults are a pure function of (seed, query key), so the in-process
     expectations computed here under the same configuration match the
     daemon's answers byte for byte. *)
  Omega.Budget.set_fault_injection ~seed:fault_seed ~rate:fault_rate;
  Fun.protect ~finally:Omega.Budget.clear_fault_injection @@ fun () ->
  let expected = expected_payloads programs in
  let path, config, server =
    start_daemon "chaos" (fun base ->
        {
          base with
          Server.c_max_frame = max_frame;
          c_domains = 2;
          c_max_connections = 16;
          c_max_inflight = Some 2;
          c_read_timeout_ms = Some read_timeout_ms;
          c_drain_ms = drain_ms;
        })
  in
  let stop = Atomic.make false in
  let injector name = { ci_name = name; ci_iterations = 0; ci_observed = 0;
                        ci_violations = [] } in
  let slowloris = injector "slowloris" in
  let midframe = injector "midframe_disconnect" in
  let malformed = injector "malformed_flood" in
  let oversized = injector "oversized_frames" in
  let churn = injector "connection_churn" in
  let injector_threads =
    [
      Thread.create (fun () -> run_slowloris path ~read_timeout_ms stop slowloris) ();
      Thread.create (fun () -> run_midframe path stop midframe) ();
      Thread.create (fun () -> run_malformed path stop malformed) ();
      Thread.create (fun () -> run_oversized path ~max_frame stop oversized) ();
      Thread.create (fun () -> run_churn path stop churn) ();
    ]
  in
  let until = Unix.gettimeofday () +. duration in
  let ccs =
    Array.init clients (fun _ ->
        { cc_ok = 0; cc_failed = 0; cc_retries = 0; cc_injected = 0;
          cc_latencies = []; cc_violations = [] })
  in
  let client_threads =
    List.init clients (fun k ->
        Thread.create
          (fun () ->
            run_well_behaved path ~expected ~programs ~seed:(100 + k) ~until
              ccs.(k))
          ())
  in
  List.iter Thread.join client_threads;
  Atomic.set stop true;
  List.iter Thread.join injector_threads;
  (* The storm is over; read the daemon's overload posture before
     shutting it down. *)
  let health =
    payload_or_exit "chaos: health" (call_once path Protocol.Health)
  in
  (* Graceful drain: one request in flight when shutdown lands must
     finish; one stalled raw connection must be force-closed; wait must
     return within the drain window (plus scheduling slack). *)
  let stalled = raw_connect path in
  let inflight_result = ref (Error "never ran") in
  let name, src = List.hd (List.rev programs) in
  let inflight_thread =
    Thread.create
      (fun () ->
        inflight_result :=
          Result.map Json.to_string
            (call_once path (List.assoc "analyze" (requests src))))
      ()
  in
  (* Wait until the daemon reports the request in flight (or solved:
     ok count moves) before pulling the plug. *)
  let rec await_inflight tries =
    if tries = 0 then ()
    else
      let inflight =
        match call_once path Protocol.Health with
        | Ok payload ->
          Option.value ~default:0
            (Option.bind (Json.member "in_flight" payload) Json.to_int_opt)
        | Error _ -> 0
      in
      if inflight = 0 && !inflight_result = Error "never ran" then begin
        Thread.delay 0.01;
        await_inflight (tries - 1)
      end
  in
  await_inflight 100;
  ignore (call_once path Protocol.Shutdown);
  let (), wait = time (fun () -> Server.wait server) in
  let wait_ms = ms wait in
  Thread.join inflight_thread;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let stalled_closed =
    match stalled with
    | None -> false
    | Some fd ->
      let r = wait_eof fd 2. in
      close_quietly fd;
      r = `Reaped
  in
  (* ---- verdicts ---------------------------------------------------- *)
  Array.iteri
    (fun k cc ->
      List.iter (fun v -> fail "client %d: %s" k v)
        (List.rev cc.cc_violations))
    ccs;
  List.iter
    (fun inj ->
      List.iter (fun v -> fail "%s: %s" inj.ci_name v)
        (List.rev inj.ci_violations))
    [ slowloris; midframe; malformed; oversized; churn ];
  let total_ok = Array.fold_left (fun a c -> a + c.cc_ok) 0 ccs in
  let total_failed = Array.fold_left (fun a c -> a + c.cc_failed) 0 ccs in
  let total_retries = Array.fold_left (fun a c -> a + c.cc_retries) 0 ccs in
  let total_injected = Array.fold_left (fun a c -> a + c.cc_injected) 0 ccs in
  let lats =
    Array.to_list ccs |> List.concat_map (fun c -> c.cc_latencies)
  in
  let p50 = ms (percentile 50. lats) and p99 = ms (percentile 99. lats) in
  if total_ok = 0 then fail "no well-behaved request completed";
  if total_failed > 0 then
    fail "%d well-behaved request(s) failed" total_failed;
  let health_int path_ =
    let rec go j = function
      | [] -> Option.value ~default:0 (Json.to_int_opt j)
      | k :: rest -> (
        match Json.member k j with Some j' -> go j' rest | None -> 0)
    in
    go health path_
  in
  let shed_requests = health_int [ "shed"; "requests" ] in
  let shed_conns = health_int [ "shed"; "connections" ] in
  let reaped = health_int [ "reaped" ] in
  if shed_requests + shed_conns = 0 then
    fail "no load was shed — the admission gate never fired";
  if reaped = 0 then
    fail "no connection was reaped — the read deadline never fired";
  if slowloris.ci_observed = 0 then
    fail "slowloris never observed a reap";
  let p99_bound = 10_000. in
  if p99 > p99_bound then
    fail "well-behaved p99 %.1f ms exceeds the %.0f ms bound" p99 p99_bound;
  (match !inflight_result with
  | Ok payload ->
    if List.assoc (name, "analyze") expected <> payload then
      fail "drain: in-flight analyze diverged from the in-process run"
  | Error e -> fail "drain: in-flight request failed: %s" e);
  if not stalled_closed then
    fail "drain: stalled connection was not force-closed";
  if wait_ms > drain_ms +. 3_000. then
    fail "drain took %.0f ms (budget %.0f + slack)" wait_ms drain_ms;
  let injector_json inj =
    ( inj.ci_name,
      Json.Obj
        [
          ("iterations", Json.Int inj.ci_iterations);
          ("observed", Json.Int inj.ci_observed);
        ] )
  in
  Printf.printf
    "well-behaved: %d ok, %d failed, %d retries, p50 %.2f ms, p99 %.2f ms\n"
    total_ok total_failed total_retries p50 p99;
  Printf.printf
    "daemon: shed %d requests + %d connections, reaped %d; injected solver \
     faults seen: %d\n"
    shed_requests shed_conns reaped total_injected;
  Printf.printf "drain: wait %.0f ms, in-flight ok: %b, stalled closed: %b\n"
    wait_ms
    (match !inflight_result with Ok _ -> true | Error _ -> false)
    stalled_closed;
  Printf.printf "chaos verdict: %s\n"
    (if sound () then "sound" else "VIOLATIONS");
  finish ~out
    (Json.Obj
       [
         ("smoke", Json.Bool smoke);
         ("duration_s", jf duration);
         ("clients", Json.Int clients);
         ("programs", Json.Int (List.length programs));
         ("host_cores", Json.Int (Domain.recommended_domain_count ()));
         ( "config",
           Json.Obj
             [
               ("domains", Json.Int config.Server.c_domains);
               ("max_connections", Json.Int config.Server.c_max_connections);
               ( "max_inflight",
                 match config.Server.c_max_inflight with
                 | Some n -> Json.Int n
                 | None -> Json.Null );
               ("read_timeout_ms", jf read_timeout_ms);
               ("drain_ms", jf drain_ms);
               ("max_frame", Json.Int max_frame);
               ("fault_seed", Json.Int fault_seed);
               ("fault_rate", jf fault_rate);
             ] );
         ( "well_behaved",
           Json.Obj
             [
               ("ok", Json.Int total_ok);
               ("failed", Json.Int total_failed);
               ("retries", Json.Int total_retries);
               ("injected_gave_ups", Json.Int total_injected);
               ("p50_ms", jf p50);
               ("p99_ms", jf p99);
             ] );
         ( "injectors",
           Json.Obj
             (List.map injector_json
                [ slowloris; midframe; malformed; oversized; churn ]) );
         ("health", health);
         ( "drain",
           Json.Obj
             [
               ("wait_ms", jf wait_ms);
               ( "inflight_completed",
                 Json.Bool
                   (match !inflight_result with
                   | Ok _ -> true
                   | Error _ -> false) );
               ("stalled_closed", Json.Bool stalled_closed);
             ] );
         ("sound", Json.Bool (sound ()));
         ("violations", violations ());
       ])

(* ------------------------------------------------------------------ *)

let full_run () =
  (* the per-query timing figures must measure eliminations, not cache
     lookups — verdict memoization stays off except in its own ablation *)
  Analyses.Memo.enabled := false;
  let t0 = Unix.gettimeofday () in
  examples_table ();
  cholsky_tables ();
  let timings = pair_timings () in
  figure6_left timings;
  figure6_right ();
  figure7 timings;
  section5_table ();
  parallelization_table ();
  memo_ablation ();
  bechamel_benches ();
  Printf.printf "\ntotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)

let () =
  let smoke = ref false and out = ref "" and domains = ref None in
  let repeat = ref None and seeds = ref [ 1; 42 ] and clients = ref 8 in
  (* every suite takes [--out], defaulting to its own artifact *)
  let command name flags run =
    {
      name;
      flags = flags @ [ ("--out", file out) ];
      run =
        (fun () ->
          run ~out:(if !out = "" then "BENCH_" ^ name ^ ".json" else !out));
    }
  in
  let smoke_f = ("--smoke", Switch smoke)
  and domains_f = ("--domains", int_opt domains)
  and repeat_f = ("--repeat", int_opt repeat) in
  let reps () =
    max 1 (Option.value !repeat ~default:(if !smoke then 1 else 3))
  in
  dispatch ~default:full_run
    [
      command "speedup" [ smoke_f; domains_f; repeat_f ] (fun ~out ->
          speedup_suite ~smoke:!smoke ~domains:!domains ~repeat:(reps ()) ~out
            ());
      command "robustness" [ ("--seeds", ints seeds) ] (fun ~out ->
          robustness_suite ~out ~seeds:!seeds ());
      command "analysis" [ smoke_f; repeat_f; domains_f ] (fun ~out ->
          analysis_suite ~smoke:!smoke ~repeat:(reps ()) ~out ~domains:!domains
            ());
      command "serve"
        [ smoke_f; ("--clients", int clients); domains_f ]
        (fun ~out ->
          serve_suite ~smoke:!smoke ~clients:(max 1 !clients)
            ~domains:!domains ~out ());
      command "chaos" [ smoke_f ] (fun ~out ->
          chaos_suite ~smoke:!smoke ~out ());
    ]

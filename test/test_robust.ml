(* Robustness of the resource-governed solver core.

   Three properties, over the whole corpus plus the adversarial stress
   nests:

   - totality: no budget, however tight, makes the analysis crash -
     exhaustion surfaces as [Gave_up] telemetry and conservative
     results, never as an exception;
   - monotone degradation: tightening the (deadline-free) budget can
     only shrink what the analysis proves - dead-dependence sets and
     doall plans under a tight budget are subsets of those under a
     looser one, so Proved/Disproved verdicts never flip;
   - fault soundness: with a deterministic fraction of queries forced
     to [Gave_up Injected], every plan is a subset of the clean plan
     and parallel execution still matches serial bit-for-bit. *)

open Omega
open Depend

let check = Alcotest.check
let bool_t = Alcotest.bool

let programs = Corpus.all @ Corpus.stress

let parse src = Lang.Sema.analyze (Lang.Parser.parse_string src)

(* The observable outcome of the full analysis stack on one program:
   which flow dependences were proved dead, and which loops each side
   may run as doalls.  Every Proved the analysis reaches is visible
   here as a dead edge or a doall; every Gave_up as its absence. *)
type outcome = {
  dead : string list;
  live : string list;
  std_doalls : string list;
  ext_doalls : string list;
}

let pair_key (fr : Driver.flow_result) =
  Printf.sprintf "%d->%d (%s->%s)" fr.Driver.dep.Deps.src.Lang.Ir.acc_id
    fr.Driver.dep.Deps.dst.Lang.Ir.acc_id
    fr.Driver.dep.Deps.src.Lang.Ir.label fr.Driver.dep.Deps.dst.Lang.Ir.label

let outcome_of src : outcome =
  Analyses.Memo.reset ();
  let prog = parse src in
  let r = Driver.analyze prog in
  let dead =
    Driver.dead_flows r |> List.map pair_key |> List.sort compare
  in
  let live =
    Driver.live_flows r |> List.map pair_key |> List.sort compare
  in
  let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
  let doalls side =
    List.filter_map
      (fun (v : Xform.Parallel.verdict) ->
        if side v then Some (Xform.Parallel.loop_path v.Xform.Parallel.v_loop)
        else None)
      vs
    |> List.sort compare
  in
  {
    dead;
    live;
    std_doalls = doalls (fun v -> v.Xform.Parallel.v_std_doall);
    ext_doalls = doalls (fun v -> v.Xform.Parallel.v_ext_doall);
  }

let subset a b = List.for_all (fun x -> List.mem x b) a

(* ------------------------------------------------------------------ *)
(* Totality                                                            *)
(* ------------------------------------------------------------------ *)

let tiny =
  { Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }

let mid =
  { Budget.fuel = 5_000; splinters = 64; disjuncts = 256; deadline_ms = None }

let test_totality_default () =
  Metrics.reset ();
  List.iter (fun (name, src) ->
      match outcome_of src with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s crashed under the default budget: %s" name
          (Printexc.to_string e))
    programs

let test_totality_tiny () =
  Metrics.reset ();
  Budget.with_limits tiny (fun () ->
      List.iter (fun (name, src) ->
          match outcome_of src with
          | _ -> ()
          | exception e ->
            Alcotest.failf "%s crashed under the tiny budget: %s" name
              (Printexc.to_string e))
        programs);
  (* the tiny budget must actually bind somewhere, or this test proves
     nothing about exhaustion handling *)
  check bool_t "tiny budget caused give-ups" true
    (Metrics.gave_up (Metrics.current ()) > 0);
  Analyses.Memo.reset ()

(* ------------------------------------------------------------------ *)
(* Monotone degradation                                                *)
(* ------------------------------------------------------------------ *)

let test_budget_monotonicity () =
  List.iter
    (fun (name, src) ->
      let at lims = Budget.with_limits lims (fun () -> outcome_of src) in
      let o_tiny = at tiny and o_mid = at mid and o_def = at Budget.default in
      let chain label sel =
        check bool_t
          (Printf.sprintf "%s: %s tiny <= mid" name label)
          true
          (subset (sel o_tiny) (sel o_mid));
        check bool_t
          (Printf.sprintf "%s: %s mid <= default" name label)
          true
          (subset (sel o_mid) (sel o_def))
      in
      chain "dead set" (fun o -> o.dead);
      chain "std doalls" (fun o -> o.std_doalls);
      chain "ext doalls" (fun o -> o.ext_doalls);
      (* live dependences go the other way: loosening the budget can
         only remove conservative edges, never add real ones *)
      check bool_t
        (Printf.sprintf "%s: live mid <= tiny" name)
        true
        (subset o_mid.live o_tiny.live);
      check bool_t
        (Printf.sprintf "%s: live default <= mid" name)
        true
        (subset o_def.live o_mid.live))
    programs;
  Analyses.Memo.reset ()

(* ------------------------------------------------------------------ *)
(* Fault-injection soundness                                           *)
(* ------------------------------------------------------------------ *)

let init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

let test_fault_injection_soundness () =
  let clean = List.map (fun (name, src) -> (name, outcome_of src)) programs in
  List.iter
    (fun seed ->
      Budget.set_fault_injection ~seed ~rate:0.10;
      Metrics.reset ();
      Fun.protect ~finally:Budget.clear_fault_injection (fun () ->
          List.iter
            (fun (name, src) ->
              let faulty = outcome_of src in
              let cl = List.assoc name clean in
              let sub label a b =
                if not (subset a b) then
                  Alcotest.failf
                    "%s (seed %d): faulty %s [%s] not a subset of clean [%s]"
                    name seed label (String.concat "; " a)
                    (String.concat "; " b)
              in
              sub "dead set" faulty.dead cl.dead;
              sub "std doalls" faulty.std_doalls cl.std_doalls;
              sub "ext doalls" faulty.ext_doalls cl.ext_doalls;
              sub "live set (clean within faulty)" cl.live faulty.live)
            programs;
          check bool_t
            (Printf.sprintf "seed %d: faults actually fired" seed)
            true
            ((Metrics.current ()).Metrics.gave_up_injected
            > 0);
          (* a degraded plan must still execute soundly *)
          List.iter
            (fun name ->
              let prog = parse (Corpus.find name) in
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
              let serial = Xform.Exec.run_serial ~init prog ~syms in
              let mem, _ =
                Xform.Exec.run_parallel ~pool:(Test_exec.pool ()) ~init pl
                  prog ~syms
              in
              if not (Xform.Exec.equal_mem serial mem) then
                Alcotest.failf
                  "%s (seed %d): degraded plan diverges from serial: %s" name
                  seed
                  (Xform.Exec.diff_string (Xform.Exec.diff_mem serial mem)))
            [ "temp_reuse"; "copyin"; "kill_chain" ]))
    [ 1; 42 ];
  Analyses.Memo.reset ()

(* The fault stream is a pure function of (seed, canonical query key),
   never of execution order, so a domain-sharded analysis faults exactly
   the queries a serial one does: the assumed-dependence sets come out
   identical — not merely conservative — at any width.  (Conservatism
   w.r.t. the clean run is asserted again on the sharded outcomes, so a
   regression to order-dependent faulting fails loudly here.) *)
let test_fault_injection_parallel () =
  let clean = List.map (fun (name, src) -> (name, outcome_of src)) programs in
  Budget.set_fault_injection ~seed:42 ~rate:0.10;
  Fun.protect
    ~finally:(fun () ->
      Budget.clear_fault_injection ();
      Par.set_domains 1)
    (fun () ->
      let run () =
        List.map (fun (name, src) -> (name, outcome_of src)) programs
      in
      let serial = run () in
      Par.set_domains 3;
      let sharded = run () in
      Par.set_domains 1;
      List.iter2
        (fun (name, (s : outcome)) (_, (p : outcome)) ->
          if s <> p then
            Alcotest.failf
              "%s: 3-domain faulty outcome differs from serial faulty \
               outcome (dead %d/%d, live %d/%d)"
              name
              (List.length p.dead) (List.length s.dead)
              (List.length p.live) (List.length s.live))
        serial sharded;
      List.iter
        (fun (name, (f : outcome)) ->
          let cl = List.assoc name clean in
          let sub label a b =
            if not (subset a b) then
              Alcotest.failf
                "%s: sharded faulty %s not a subset of clean's" name label
          in
          sub "dead set" f.dead cl.dead;
          sub "std doalls" f.std_doalls cl.std_doalls;
          sub "ext doalls" f.ext_doalls cl.ext_doalls;
          sub "live set (clean within faulty)" cl.live f.live)
        sharded);
  Analyses.Memo.reset ()

let suite =
  ( "robust",
    [
      Alcotest.test_case "totality: corpus + stress, default budget" `Quick
        test_totality_default;
      Alcotest.test_case "totality: corpus + stress, tiny budget" `Quick
        test_totality_tiny;
      Alcotest.test_case "tightening budgets only shrinks what is proved"
        `Quick test_budget_monotonicity;
      Alcotest.test_case "fault injection: plans degrade soundly" `Quick
        test_fault_injection_soundness;
      Alcotest.test_case
        "fault injection: serial and sharded runs fault identically" `Quick
        test_fault_injection_parallel;
    ] )

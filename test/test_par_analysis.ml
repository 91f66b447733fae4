(* Differential suite for domain-sharded analysis (the domain-local
   solver worlds work): a serial run and an N-domain run of the full
   analysis stack must be bit-identical — dependence sets, direction
   vectors, carried levels, assumed-edge flags, refinement/cover/kill
   verdicts, and the exact JSON payloads petit --json and petitd emit —
   across the whole corpus plus the adversarial stress nests, at more
   than one domain count, at more than one budget rung, under fault
   injection, and across repeated runs.

   Why this can be demanded at all: variable ids are allocated
   per-domain but every co-occurring group of variables for one solver
   query is minted by a single domain in serial order, and every
   id-sensitive choice in the solver (elimination tie-breaks, canonical
   memo keys) depends only on that relative order; budget metering is
   per-query; and injected faults are a pure function of the query's
   canonical key, never of execution order.  So sharding may only change
   the clock, and this suite fails loudly if any of those invariants
   regresses. *)

open Omega
open Depend

let check = Alcotest.check
let string_t = Alcotest.string

let programs = Corpus.all @ Corpus.stress

let tiny =
  { Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }

(* A canonical, exhaustive rendering of everything the analysis stack
   decides about one program: every dependence with its direction
   vectors, carried levels and assumed flag; every flow result with its
   refinement, cover and live/dead verdict; and the exact JSON payloads
   the CLI's --json mode and the petitd daemon serve. *)
let signature src : string =
  Analyses.Memo.reset ();
  let prog = Lang.Sema.analyze (Lang.Parser.parse_string src) in
  let buf = Buffer.create 4096 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let dep (d : Deps.dep) =
    Printf.sprintf "%s->%s[%s] %s vec=[%s] lvl=[%s] assumed=%b"
      d.Deps.src.Lang.Ir.label d.Deps.dst.Lang.Ir.label
      d.Deps.src.Lang.Ir.array
      (Deps.kind_to_string d.Deps.kind)
      (String.concat " " (List.map Dirvec.to_string d.Deps.vectors))
      (String.concat "," (List.map string_of_int d.Deps.levels))
      d.Deps.assumed
  in
  let r = Driver.analyze prog in
  List.iter
    (fun (fr : Driver.flow_result) ->
      add "flow %s refined=[%s] covers=%b %s" (dep fr.Driver.dep)
        (match fr.Driver.refined with
        | None -> "-"
        | Some vs -> String.concat " " (List.map Dirvec.to_string vs))
        fr.Driver.covers
        (match fr.Driver.dead with
        | None -> "live"
        | Some (Driver.Killed k) -> "killed:" ^ k.Lang.Ir.label
        | Some (Driver.Covered c) -> "covered:" ^ c.Lang.Ir.label))
    r.Driver.flows;
  List.iter (fun d -> add "anti %s" (dep d)) r.Driver.antis;
  List.iter (fun d -> add "output %s" (dep d)) r.Driver.outputs;
  add "analyze %s"
    (Serve.Json.to_string
       (Serve.Service.analyze_payload ~in_bounds:false prog));
  add "parallelize %s"
    (Serve.Json.to_string
       (Serve.Service.parallelize_payload ~in_bounds:false prog));
  Buffer.contents buf

let corpus_pass lims =
  Budget.with_limits lims (fun () ->
      List.map (fun (name, src) -> (name, signature src)) programs)

(* Width is process-global state shared with every other test in this
   binary: always restore 1. *)
let with_width n f =
  Par.set_domains n;
  Fun.protect ~finally:(fun () -> Par.set_domains 1) f

let diff_check label serial sharded =
  List.iter2
    (fun (name, s) (_, p) ->
      check string_t (Printf.sprintf "%s: %s" name label) s p)
    serial sharded

let test_widths_and_budgets () =
  List.iter
    (fun (bname, lims) ->
      let serial = corpus_pass lims in
      List.iter
        (fun n ->
          let sharded = with_width n (fun () -> corpus_pass lims) in
          diff_check
            (Printf.sprintf "%d domains, %s budget" n bname)
            serial sharded)
        [ 2; 3 ])
    [ ("default", Budget.default); ("tiny", tiny) ];
  (* the tiny rung must actually bind, or it proves nothing about
     degraded-path determinism *)
  let tiny_pass = corpus_pass tiny in
  check Alcotest.bool "tiny budget produced assumed edges" true
    (List.exists
       (fun (_, s) ->
         (* substring search: any dependence carrying assumed=true *)
         let needle = "assumed=true" in
         let n = String.length needle and m = String.length s in
         let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
         at 0)
       tiny_pass);
  Analyses.Memo.reset ()

let test_fault_injection_config () =
  Budget.set_fault_injection ~seed:7 ~rate:0.10;
  Fun.protect
    ~finally:(fun () ->
      Budget.clear_fault_injection ();
      Par.set_domains 1)
    (fun () ->
      let serial = corpus_pass Budget.default in
      let sharded = with_width 2 (fun () -> corpus_pass Budget.default) in
      diff_check "2 domains, 10% injected faults" serial sharded);
  Analyses.Memo.reset ()

let test_repeated_runs () =
  let a = with_width 3 (fun () -> corpus_pass Budget.default) in
  let b = with_width 3 (fun () -> corpus_pass Budget.default) in
  diff_check "3 domains, repeated run" a b;
  Analyses.Memo.reset ()

(* Sharded counters equal serial counters.  With the verdict memo off no
   two domains can race a fresh key, so every solver query runs exactly
   once at every width, and each [Metrics] field must come out the same:
   queries, give-ups by reason, peaks, the worst query, FM counts,
   pruned constraints and the tier attempts/decides.  Only the tier
   times are the clock's. *)
let metrics_t =
  let untimed (m : Metrics.t) =
    let row (r : Metrics.row) = { r with elapsed = 0. } in
    {
      m with
      quick = row m.quick;
      fast = row m.fast;
      complete = row m.complete;
    }
  in
  Alcotest.testable
    (fun ppf m ->
      Format.fprintf ppf "%s; %s; %s; memo %d/%d" (Metrics.solver_summary m)
        (Metrics.tiers_summary m)
        (Metrics.governance_summary m)
        m.memo_hits m.memo_misses)
    (fun a b -> untimed a = untimed b)

let test_sharded_counters () =
  let saved = !Analyses.Memo.enabled in
  Analyses.Memo.enabled := false;
  Fun.protect
    ~finally:(fun () -> Analyses.Memo.enabled := saved)
    (fun () ->
      let counters n =
        with_width n (fun () ->
            Metrics.reset ();
            Budget.with_limits Budget.default (fun () ->
                List.iter
                  (fun (_, src) ->
                    ignore
                      (Driver.analyze
                         (Lang.Sema.analyze (Lang.Parser.parse_string src))))
                  programs);
            Metrics.current ())
      in
      let serial = counters 1 in
      check Alcotest.bool "the corpus ran solver queries" true
        (serial.queries > 0 && serial.fm_eliminations > 0);
      List.iter
        (fun n ->
          check metrics_t
            (Printf.sprintf "%d domains: counters equal serial" n)
            serial (counters n))
        [ 2; 3 ])

(* The same with the memo on, over repeated runs.  Two domains asking
   one fresh key do not both compute it: the second waits for the
   first's claim and replays its entry, so each key is computed once and
   every counter — the verdict and vector hit/miss counts included —
   equals the serial run's, run after run. *)
let test_sharded_counters_memo () =
  let counters n =
    with_width n (fun () ->
        Analyses.Memo.reset ();
        Metrics.reset ();
        Budget.with_limits Budget.default (fun () ->
            List.iter
              (fun (_, src) ->
                ignore
                  (Driver.analyze
                     (Lang.Sema.analyze (Lang.Parser.parse_string src))))
              programs);
        let s = Analyses.Memo.stats in
        ( Metrics.current (),
          Printf.sprintf "verdicts %d/%d, vectors %d/%d, %d entries"
            s.Analyses.Memo.hits s.misses s.vec_hits s.vec_misses
            (Analyses.Memo.size ()) ))
  in
  Fun.protect ~finally:Analyses.Memo.reset (fun () ->
      let serial, serial_memo = counters 1 in
      check Alcotest.bool "the memo answered some lookups" true
        (serial.memo_hits > 0);
      List.iter
        (fun (n, run) ->
          let m, memo = counters n in
          let label = Printf.sprintf "%d domains, run %d" n run in
          check metrics_t (label ^ ": counters equal serial") serial m;
          check string_t (label ^ ": memo counts equal serial") serial_memo
            memo)
        [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2) ])

let suite =
  ( "par_analysis",
    [
      Alcotest.test_case
        "serial = sharded at 2 and 3 domains, default and tiny budgets"
        `Slow test_widths_and_budgets;
      Alcotest.test_case "serial = sharded under fault injection" `Slow
        test_fault_injection_config;
      Alcotest.test_case "sharded runs are stable across repeats" `Slow
        test_repeated_runs;
      Alcotest.test_case "sharded counters = serial counters" `Slow
        test_sharded_counters;
      Alcotest.test_case "sharded counters = serial counters, memo on" `Slow
        test_sharded_counters_memo;
    ] )

(* The decision portfolio (DESIGN.md section 12).

   - the cascade-vs-complete oracle on a hand-built lying fast tier, on
     cholsky's screened refinement steps, and on the figure 6/7
     write/read pair corpus, where every fast verdict must agree with
     the complete tier;
   - soundness of the fast tier against the complete tier on queries
     whose real and dark shadows differ (QCheck);
   - degradation: an exhausted plan gives up instead of answering, and
     tightening the budget can only turn Proved into Gave_up — never
     flip a verdict. *)

open Omega
open Depend

let check = Alcotest.check
let bool_t = Alcotest.bool
let str_t = Alcotest.string
let i n = Linexpr.of_int n
let t c x = Linexpr.scale (Zint.of_int c) (Linexpr.var x)

let unit_tests =
  [
    ( "portfolio: first definite tier wins and is attributed",
      `Quick,
      fun () ->
        match
          Portfolio.decide ~label:"test/first-wins"
            ~fast:(fun () -> true)
            (fun () -> false)
        with
        | Budget.Proved, Some Portfolio.Tier_fast -> ()
        | v, _ ->
          Alcotest.failf "expected fast-tier Proved, got %s"
            (Budget.verdict_to_string v) );
    ( "portfolio: cascade degrades monotonically under fuel",
      `Quick,
      fun () ->
        let burn n =
          Budget.with_meter (fun m ->
              for _ = 1 to n do
                Budget.tick m
              done)
        in
        let verdict_at fuel =
          Budget.with_limits { Budget.default with Budget.fuel } (fun () ->
              fst
                (Portfolio.decide ~label:"test/degrade"
                   ~fast:(fun () -> false)
                   (fun () ->
                     burn 50;
                     true)))
        in
        (match verdict_at 1 with
        | Budget.Gave_up Budget.Fuel -> ()
        | v ->
          Alcotest.failf "tight budget: expected Gave_up fuel, got %s"
            (Budget.verdict_to_string v));
        check bool_t "loose budget proves" true (verdict_at 10_000 = Budget.Proved);
        (* once the budget is large enough to prove, every larger budget
           still proves: no flip back to Gave_up as fuel grows *)
        let proved = ref false in
        List.iter
          (fun fuel ->
            match verdict_at fuel with
            | Budget.Proved -> proved := true
            | Budget.Gave_up _ ->
              check bool_t
                (Printf.sprintf "no flip back at fuel %d" fuel)
                false !proved
            | Budget.Disproved -> Alcotest.fail "verdict flipped to Disproved")
          [ 1; 2; 5; 10; 25; 60; 100; 1_000; 10_000 ] );
    ( "portfolio: an empty lhs is proved by the complete tier",
      `Quick,
      fun () ->
        (* the fast tier does not test the lhs for points: with no rhs
           dark shadow it passes, and the complete tier proves the
           vacuous implication *)
        let x = Var.fresh "x" and e = Var.fresh "e" in
        let empty v = [ Constr.ge (t 1 v) (i 1); Constr.le (t 1 v) (i 0) ] in
        let lhs = [ Problem.of_list (empty x) ] in
        let rhs = [ Problem.of_list (Constr.eq2 (t 1 e) (t 1 x) :: empty e) ] in
        match
          Portfolio.decide ~label:"test/empty-lhs"
            ~fast:(Analyses.fast_tier ~hyp:[] lhs ~evars:[ e ] rhs)
            (Analyses.complete_tier ~hyp:[] lhs ~evars:[ e ] rhs)
        with
        | Budget.Proved, Some Portfolio.Tier_complete -> ()
        | v, tier ->
          Alcotest.failf "expected complete-tier Proved, got %s (%s)"
            (Budget.verdict_to_string v)
            (match tier with
             | Some Portfolio.Tier_fast -> "fast"
             | Some Portfolio.Tier_complete -> "complete"
             | None -> "no tier") );
  ]

(* ------------------------------------------------------------------ *)
(* The oracle: the one cascade-vs-complete gate                        *)
(* ------------------------------------------------------------------ *)

(* [decide] once under the oracle, with a fast tier that proves: the
   verdict, the replay count and the divergences recorded. *)
let under_oracle label complete =
  Portfolio.Oracle.enable ();
  let verdict =
    Fun.protect ~finally:Portfolio.Oracle.disable (fun () ->
        fst
          (Portfolio.decide ~label ~fast:(fun () -> true) (fun () -> complete)))
  in
  (verdict, Portfolio.Oracle.checks (), Portfolio.Oracle.divergences ())

let oracle_tests =
  [
    ( "oracle: a lying fast tier is one divergence",
      `Quick,
      fun () ->
        let label = "test/lying-fast" in
        let verdict, checks, found = under_oracle label false in
        check bool_t "the lying verdict is still returned" true
          (verdict = Budget.Proved);
        check Alcotest.int "one replay" 1 checks;
        check (Alcotest.list str_t) "the query's label" [ label ] found );
    ( "oracle: a truthful plan is one check, no divergence",
      `Quick,
      fun () ->
        let _, checks, found = under_oracle "test/truthful" true in
        check Alcotest.int "one replay" 1 checks;
        check Alcotest.int "no divergence" 0 (List.length found) );
    ( "oracle: nothing is recorded while disabled",
      `Quick,
      fun () ->
        Portfolio.Oracle.enable ();
        Portfolio.Oracle.disable ();
        ignore
          (Portfolio.decide ~label:"test/disabled"
             ~fast:(fun () -> true)
             (fun () -> false));
        check Alcotest.int "no replay" 0 (Portfolio.Oracle.checks ());
        check Alcotest.int "no divergence" 0
          (List.length (Portfolio.Oracle.divergences ())) );
    ( "oracle: every screened refinement step is replayed",
      `Quick,
      fun () ->
        (* with the memo off, a run's replays are its fast-tier decides
           plus its screened refinement steps, one complete-procedure
           decision each (a replay through the tiered query would add a
           check of its own fast-tier proof), and the replays move no
           verdict, give-up or peak of the run.  Every replay decides:
           posed over the carried levels only, even cholsky's largest
           fast-tier kill is within the complete procedure's default
           disjunct limit *)
        let run ~oracle name =
          let enabled = !Analyses.Memo.enabled in
          Analyses.Memo.enabled := false;
          Metrics.reset ();
          if oracle then Portfolio.Oracle.enable ();
          let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
          let json =
            Fun.protect
              ~finally:(fun () ->
                Portfolio.Oracle.disable ();
                Analyses.Memo.enabled := enabled)
              (fun () ->
                Serve.Json.to_string
                  (Serve.Service.analyze_payload ~in_bounds:false prog))
          in
          (json, Metrics.current ())
        in
        let replays name =
          let plain, m0 = run ~oracle:false name in
          let replayed, m = run ~oracle:true name in
          let at what = name ^ ": " ^ what in
          check str_t (at "payload") plain replayed;
          check
            Alcotest.(list (pair string int))
            (at "give-ups")
            (Metrics.gave_up_by_reason m0)
            (Metrics.gave_up_by_reason m);
          check Alcotest.int (at "queries") m0.Metrics.queries
            m.Metrics.queries;
          check Alcotest.int (at "peak fuel") m0.Metrics.peak_fuel
            m.Metrics.peak_fuel;
          check (Alcotest.list str_t) (at "no divergence") []
            (Portfolio.Oracle.divergences ());
          check (Alcotest.list str_t) (at "no replay gave up") []
            (Portfolio.Oracle.gave_up ());
          Portfolio.Oracle.checks () - m.Metrics.fast.Metrics.decides
        in
        check Alcotest.int "matmul: 2 screened steps replayed" 2
          (replays "matmul");
        check Alcotest.int "transpose_sum: 1 screened step replayed" 1
          (replays "transpose_sum");
        check Alcotest.int "cholsky: 17 screened steps replayed" 17
          (replays "cholsky") );
    ( "oracle: replays leave the memo alone",
      `Quick,
      fun () ->
        (* with the memo on, cholsky's counters and memo traffic are the
           same with the oracle on and off: the replays neither read nor
           fill the memo *)
        let run ~oracle =
          Analyses.Memo.reset ();
          Metrics.reset ();
          if oracle then Portfolio.Oracle.enable ();
          Fun.protect ~finally:Portfolio.Oracle.disable (fun () ->
              ignore
                (Driver.analyze
                   (Lang.Sema.parse_and_analyze (Corpus.find "cholsky"))));
          let m = Metrics.current () and s = Analyses.Memo.stats in
          [
            m.Metrics.queries;
            m.Metrics.memo_hits;
            m.Metrics.memo_misses;
            s.Analyses.Memo.hits;
            s.Analyses.Memo.misses;
            Analyses.Memo.size ();
          ]
        in
        let plain = run ~oracle:false in
        let replayed = run ~oracle:true in
        check bool_t "replays ran" true (Portfolio.Oracle.checks () > 0);
        check (Alcotest.list Alcotest.int) "same counters and memo" plain
          replayed );
    ( "oracle: a replay that gives up is reported",
      `Quick,
      fun () ->
        (* the fast path proves; the complete procedure blows its fuel,
           under a meter of its own: the query stays proved and counted
           once, the replay is one check that gave up *)
        Metrics.reset ();
        Portfolio.Oracle.enable ();
        let verdict =
          Fun.protect ~finally:Portfolio.Oracle.disable (fun () ->
              fst
                (Portfolio.decide ~label:"test/replay-gives-up"
                   ~fast:(fun () -> true)
                   (fun () -> raise (Budget.Exhausted Budget.Fuel))))
        in
        let m = Metrics.current () in
        check bool_t "the query stays proved" true (verdict = Budget.Proved);
        check Alcotest.int "one query" 1 m.Metrics.queries;
        check Alcotest.int "no give-up counted" 0 (Metrics.gave_up m);
        check Alcotest.int "one replay" 1 (Portfolio.Oracle.checks ());
        check (Alcotest.list str_t) "no divergence" []
          (Portfolio.Oracle.divergences ());
        check (Alcotest.list str_t) "reported as a give-up"
          [ "test/replay-gives-up" ]
          (Portfolio.Oracle.gave_up ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Figure 6/7 pair corpus: the oracle agrees, the fast tier exercised  *)
(* ------------------------------------------------------------------ *)

let pair_lines () =
  List.concat_map
    (fun name ->
      Analyses.Memo.reset ();
      let prog = Lang.Sema.parse_and_analyze (Corpus.find name) in
      let ctx = Depctx.create prog in
      let outputs = Deps.all ctx Deps.Output in
      let writes = Lang.Ir.writes prog and reads = Lang.Ir.reads prog in
      List.concat_map
        (fun (a : Lang.Ir.access) ->
          List.filter_map
            (fun (b : Lang.Ir.access) ->
              if a.Lang.Ir.array <> b.Lang.Ir.array then None
              else
                match Driver.extend ctx ~outputs ~src:a ~dst:b with
                | None ->
                  Some
                    (Printf.sprintf "%s %s->%s none" name a.Lang.Ir.label
                       b.Lang.Ir.label)
                | Some fr ->
                  (* the extended per-pair step — refinement and cover
                     tests are the section-4 analyses that route through
                     the portfolio *)
                  Some
                    (Printf.sprintf "%s %s->%s %s covers=%b" name
                       a.Lang.Ir.label b.Lang.Ir.label
                       (String.concat ","
                          (List.map Dirvec.to_string (Driver.vectors fr)))
                       fr.Driver.covers))
            reads)
        writes)
    Corpus.timing_population

let corpus_tests =
  [
    ( "pair corpus: every fast verdict agrees with the complete tier",
      `Quick,
      fun () ->
        let plain = pair_lines () in
        Metrics.reset ();
        Portfolio.Oracle.enable ();
        let replayed =
          Fun.protect ~finally:Portfolio.Oracle.disable pair_lines
        in
        let tiers = Metrics.current () in
        check bool_t "pair corpus is non-trivial" true (plain <> []);
        check (Alcotest.list str_t) "no divergence" []
          (Portfolio.Oracle.divergences ());
        check bool_t "verdicts replayed" true (Portfolio.Oracle.checks () > 0);
        check (Alcotest.list str_t) "the replay changes no line" plain
          replayed;
        check bool_t "fast tier consulted" true
          (tiers.Metrics.fast.Metrics.attempts > 0);
        check bool_t "fast tier decided some queries" true
          (tiers.Metrics.fast.Metrics.decides > 0) );
  ]

(* ------------------------------------------------------------------ *)
(* The fast tier against the complete tier                             *)
(* ------------------------------------------------------------------ *)

(* [p => exists e. q] where [q] bounds [e] with non-unit coefficients,
   so eliminating [e] is inexact and its real shadow is larger than its
   dark shadow.  Either a window [L <= a*e <= L + s], which has an
   integer [e] for every [L] only when [s >= a - 1] while its real
   shadow is just [s >= 0], or independent bounds [L <= a*e],
   [b*e <= K].  [p] boxes the universals [fx], [fy] (plus at most one
   random constraint), wide enough that residues of [L] mod [a] vary. *)
let fx = Oracle.pool.(0)
let fy = Oracle.pool.(1)
let fe = Var.fresh "e"

let gen_shadow_query =
  QCheck.Gen.(
    let lin2 cx cy c =
      Linexpr.add_term
        (Linexpr.add_term (i c) (Zint.of_int cx) fx)
        (Zint.of_int cy) fy
    in
    let* a = int_range 2 5 and* b = int_range 2 5 in
    let* lx = int_range (-2) 2 and* ly = int_range (-2) 2 in
    let* c1 = int_range (-6) 6 in
    let* window = bool in
    let* s = int_range 0 8 in
    let* kx = int_range (-2) 2 and* ky = int_range (-2) 2 in
    let* c2 = int_range (-6) 12 in
    let* lo = int_range (-4) 2 and* w = int_range 1 6 in
    let* extra = opt (Oracle.gen_constr ~nvars:2 ~max_coeff:3 ~max_const:6) in
    let l = lin2 lx ly c1 in
    let q =
      let upper =
        if window then Constr.le (t a fe) (Linexpr.add_const l (Zint.of_int s))
        else Constr.le (t b fe) (lin2 kx ky c2)
      in
      [ Constr.ge (t a fe) l; upper ]
    in
    let p =
      Oracle.box_constraints [ fx; fy ] lo (lo + w) @ Option.to_list extra
    in
    return (Problem.of_list p, Problem.of_list q))

let arb_shadow_query =
  QCheck.make
    ~print:(fun (p, q) ->
      Printf.sprintf "%s => exists e. %s" (Problem.to_string p)
        (Problem.to_string q))
    gen_shadow_query

let keep_universal v = not (Var.equal v fe)

let shadows_differ q =
  match
    Elim.project_real ~keep:keep_universal q,
    Elim.project_dark ~keep:keep_universal q
  with
  | `Ok real, `Ok dark -> not (Gist.implies real dark)
  | `Ok _, `Contra -> true
  | `Contra, _ -> false

let fast_proves (p, q) =
  Analyses.fast_tier ~hyp:[] [ p ] ~evars:[ fe ] [ q ] ()

let complete_proves (p, q) =
  Analyses.complete_tier ~hyp:[] [ p ] ~evars:[ fe ] [ q ] ()

let fast_tier_tests =
  [
    QCheck.Test.make ~count:300
      ~name:"fast tier Proved implies complete tier Proved (inexact shadows)"
      arb_shadow_query
      (fun query ->
        (not (fast_proves query))
        ||
        match complete_proves query with
        | proved -> proved
        | exception Budget.Exhausted _ -> true);
  ]

(* The property above is only as strong as its population: it must
   hold cases where the shadows differ, some the fast tier proves, and
   some only the real shadow would "prove" (the complete tier refutes
   them although the real shadow is implied). *)
let fast_tier_coverage () =
  let rand = Random.State.make [| 23 |] in
  let cases = List.init 300 (fun _ -> gen_shadow_query rand) in
  let differ = List.filter (fun (_, q) -> shadows_differ q) cases in
  let count f l = List.length (List.filter f l) in
  let real_only (p, q) =
    (match Elim.project_real ~keep:keep_universal q with
    | `Ok real -> Gist.implies p real
    | `Contra -> false)
    && not (complete_proves (p, q))
  in
  check bool_t "shadows differ in a third of the cases" true
    (List.length differ > 100);
  check bool_t "the fast tier proves some of them" true
    (count fast_proves differ > 30);
  check bool_t "some are implied only by the real shadow" true
    (count real_only differ > 10)

(* ------------------------------------------------------------------ *)
(* The complete tier's refutation hook                                 *)
(* ------------------------------------------------------------------ *)

(* Random small [hyp => (lhs => exists e. rhs)] queries: [hyp] and each
   [lhs] disjunct over the universals [fx], [fy], each [rhs] disjunct
   over them and the bound [re].  Every [lhs] disjunct boxes [fx], [fy]
   and every [rhs] disjunct boxes [re] to [-4..4], so a search of that
   box sees every [rhs] witness. *)
let re = Oracle.pool.(2)
let rlo, rhi = (-4, 4)

let gen_refute_query =
  QCheck.Gen.(
    let constrs nvars lo hi =
      list_size (int_range lo hi)
        (Oracle.gen_constr ~nvars ~max_coeff:3 ~max_const:6)
    in
    let* hyp = constrs 2 0 1 in
    let* lhs = list_size (int_range 1 2) (constrs 2 0 2) in
    let* rhs = list_size (int_range 1 2) (constrs 3 1 3) in
    let box vs cs = Problem.of_list (cs @ Oracle.box_constraints vs rlo rhi) in
    return (hyp, List.map (box [ fx; fy ]) lhs, List.map (box [ re ]) rhs))

let arb_refute_query =
  QCheck.make
    ~print:(fun (hyp, lhs, rhs) ->
      let ps ps = String.concat " or " (List.map Problem.to_string ps) in
      Printf.sprintf "%s => (%s => exists %s. %s)"
        (Problem.to_string (Problem.of_list hyp))
        (ps lhs) (Var.name re) (ps rhs))
    gen_refute_query

let counterexample (hyp, lhs, rhs) =
  Analyses.counterexample ~hyp lhs ~evars:[ re ] rhs ()

(* The point is in [hyp /\ l] for some [lhs] disjunct [l], and no value
   of [re] in the box satisfies any [rhs] disjunct there. *)
let is_counterexample (hyp, lhs, rhs) point =
  let value env v = snd (List.find (fun (u, _) -> Var.equal u v) env) in
  let in_lhs =
    List.exists
      (fun l ->
        match Problem.eval (value point) (Problem.add_list hyp l) with
        | holds -> holds
        | exception Not_found -> false)
      lhs
  in
  let rhs_witness =
    Seq.exists
      (fun e ->
        let env = (re, Zint.of_int e) :: point in
        List.exists (fun r -> Problem.eval (value env) r) rhs)
      (Seq.init (rhi - rlo + 1) (fun k -> rlo + k))
  in
  in_lhs && not rhs_witness

let refutation_tests =
  [
    QCheck.Test.make ~count:400
      ~name:"counterexample points are checked counterexamples"
      arb_refute_query
      (fun query ->
        match counterexample query with
        | None -> true
        | Some point -> is_counterexample query point);
  ]

(* The property above is only as strong as its population: the check
   must find points for a good share of the queries the complete tier
   refutes, and never for one it proves. *)
let refutation_coverage () =
  let rand = Random.State.make [| 24 |] in
  let cases = List.init 300 (fun _ -> gen_refute_query rand) in
  let complete (hyp, lhs, rhs) =
    Analyses.complete_tier ~hyp lhs ~evars:[ re ] rhs ()
  in
  let refuted = List.filter (fun q -> not (complete q)) cases in
  let found = List.filter (fun q -> counterexample q <> None) cases in
  check bool_t "the complete tier refutes a third of the queries" true
    (List.length refuted > 100);
  check bool_t "the check finds points for three quarters of them" true
    (4 * List.length found > 3 * List.length refuted);
  check bool_t "never for a proved query" true
    (List.for_all (fun q -> List.memq q refuted) found)

(* stress_coupled under a sweep of disjunct limits around the stall
   point.  Just below it (63) its ten hopeless complete-tier queries
   (three in analyze, seven in parallelize) exhaust the limit and give
   up, as they did before the hook; at 32 so does one more, a refutation
   that enters more than 32 alternatives.  From the stall point on, the
   hook refutes every one of them.  No verdict the payloads rest on
   moves: no kill or cover is proved at any limit, and the payloads are
   the same. *)
let stress_sweep () =
  let prog = Lang.Sema.parse_and_analyze (Corpus.find "stress_coupled") in
  let run disjuncts payload =
    Analyses.Memo.reset ();
    Metrics.reset ();
    Budget.with_limits { Budget.default with Budget.disjuncts } (fun () ->
        let json = Serve.Json.to_string (payload ~in_bounds:false prog) in
        let m = Metrics.current () in
        let give_ups = (Metrics.gave_up m, m.Metrics.gave_up_disjuncts) in
        let r = Driver.analyze prog in
        let proved =
          List.filter
            (fun (f : Driver.flow_result) -> f.Driver.covers || f.Driver.dead <> None)
            (r.Driver.flows
            @ Driver.classify_storage r.Driver.ctx ~outputs:r.Driver.outputs
                r.Driver.antis
            @ Driver.classify_storage r.Driver.ctx ~outputs:r.Driver.outputs
                r.Driver.outputs)
        in
        (json, give_ups, List.map Driver.status_string proved))
  in
  let stall = Presburger.stall_point in
  List.iter
    (fun (op, payload, give_ups_at) ->
      let json, _, _ = run 2048 payload in
      List.iter
        (fun (limit, give_ups) ->
          let json', (all, disjuncts), proved' = run limit payload in
          let at what = Printf.sprintf "%s at %d: %s" op limit what in
          check Alcotest.int (at "give-ups") give_ups all;
          check Alcotest.int (at "on the disjunct limit") give_ups disjuncts;
          check (Alcotest.list str_t) (at "no kill or cover proved") []
            proved';
          check str_t (at "payload") json json')
        (List.combine
           [ stall / 2; stall - 1; stall; 2048; 65_536 ]
           give_ups_at))
    [
      ("analyze", Serve.Service.analyze_payload, [ 4; 3; 0; 0; 0 ]);
      ("parallelize", Serve.Service.parallelize_payload, [ 8; 7; 0; 0; 0 ]);
    ]

let suite =
  ( "portfolio",
    unit_tests @ oracle_tests @ corpus_tests
    @ [
        Alcotest.test_case "fast-tier population: inexact shadows" `Quick
          fast_tier_coverage;
        Alcotest.test_case "refutation population" `Quick refutation_coverage;
        Alcotest.test_case "stress_coupled: disjunct-limit sweep" `Quick
          stress_sweep;
      ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false)
        (fast_tier_tests @ refutation_tests) )

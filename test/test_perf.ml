(* Regression tests for the solver's performance work (DESIGN.md
   section 9): the hot-path transforms preserve solutions and the
   analysis is deterministic.

   - determinism: the full analysis yields identical dead/live sets and
     doall plans across repeated runs, and across a shift of the global
     Var-id space (fresh variables allocated between runs), so nothing
     in the solver depends on allocation order or on values of internal
     ids;
   - redundancy pruning: [Problem.simplify] on problems the interval
     screen actually runs on preserves the exact integer solution set,
     pointwise over the box, and the screen does fire;
   - memo bound: the verdict cache never exceeds its capacity, evicts
     FIFO under pressure, and a tiny capacity changes no results. *)

open Omega
open Depend

let check = Alcotest.check
let slist = Alcotest.(list string)

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

(* Parse anew on every call: each run allocates fresh [Var]s for the
   program's loop indices and symbolic constants, so comparing two runs
   also compares analyses over distinct id spaces. *)
let outcome_of src : outcome =
  Analyses.Memo.reset ();
  let prog = Lang.Sema.analyze (Lang.Parser.parse_string src) in
  let r = Driver.analyze prog in
  let dead = Driver.dead_flows r |> List.map pair_key |> List.sort compare in
  let live = Driver.live_flows r |> List.map pair_key |> List.sort compare in
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

let check_outcome name (a : outcome) (b : outcome) =
  check slist (name ^ ": dead") a.dead b.dead;
  check slist (name ^ ": live") a.live b.live;
  check slist (name ^ ": std doalls") a.std_doalls b.std_doalls;
  check slist (name ^ ": ext doalls") a.ext_doalls b.ext_doalls

let test_determinism_reruns () =
  List.iter
    (fun (name, src) -> check_outcome name (outcome_of src) (outcome_of src))
    Corpus.all

let test_determinism_var_ids () =
  List.iter
    (fun (name, src) ->
      let a = outcome_of src in
      (* shift the global id space by a prime stride so the second run's
         variables land on unrelated ids (and unrelated hash buckets) *)
      for _ = 1 to 997 do
        ignore (Var.fresh "pad")
      done;
      let b = outcome_of src in
      check_outcome name a b)
    Corpus.all

(* ------------------------------------------------------------------ *)
(* Interval screen                                                     *)
(* ------------------------------------------------------------------ *)

(* The screen in [Problem.simplify] runs only on grown, red-free
   problems of at least ten constraints, and only ever drops
   inequalities, so the generated problems are grown conjunctions of
   four to ten random inequalities plus a narrow box: equalities would
   make most of them unsatisfiable, where a wrongly dropped constraint
   cannot show, and on a narrow box multi-term constraints are often
   implied by it. *)
let arb_screened =
  let lo, hi = (-2, 2) in
  let vars = Array.to_list (Array.sub Oracle.pool 0 3) in
  QCheck.make ~print:Oracle.problem_print
    QCheck.Gen.(
      let* cs =
        list_size (int_range 4 10)
          (map Constr.geq
             (Oracle.gen_linexpr ~nvars:3 ~max_coeff:3 ~max_const:8))
      in
      let p = Problem.of_list (cs @ Oracle.box_constraints vars lo hi) in
      Problem.mark_grown p;
      return (p, vars, lo, hi))

let prop_redundancy_preserves_solutions =
  QCheck.Test.make ~count:1000
    ~name:"redundancy pruning preserves the solution set" arb_screened
    (fun (p, vars, lo, hi) ->
      let simplified = Problem.simplify p in
      Seq.for_all
        (fun env ->
          let kept =
            match simplified with
            | Problem.Contra -> false
            | Problem.Ok q -> Oracle.holds_at env q
          in
          kept = Oracle.holds_at env p)
        (Oracle.assignments vars lo hi))

(* The property, plus a check that the screen dropped at least one
   constraint over the run, so it cannot silently go vacuous. *)
let test_redundancy_preserves_solutions =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~long:false prop_redundancy_preserves_solutions
  in
  let pruned () = (Metrics.current ()).Metrics.pruned_interval in
  ( name,
    speed,
    fun () ->
      let before = pruned () in
      run ();
      check Alcotest.bool "the interval screen fired" true (pruned () > before)
  )

(* ------------------------------------------------------------------ *)
(* Domain-local id spaces                                              *)
(* ------------------------------------------------------------------ *)

(* Each domain draws Var ids from its own slot of the id space, so
   allocations on concurrently spawned domains can never collide with
   each other or with the main domain's. *)
let prop_var_ids_disjoint =
  QCheck.Test.make ~count:20 ~name:"per-domain Var ids are disjoint"
    QCheck.(pair (int_range 1 4) (int_range 1 128))
    (fun (doms, n) ->
      let ids_of () = List.init n (fun _ -> Var.id (Var.fresh "q")) in
      let spawned = List.init doms (fun _ -> Domain.spawn ids_of) in
      let mine = ids_of () in
      let all = List.concat (mine :: List.map Domain.join spawned) in
      List.length (List.sort_uniq compare all) = List.length all)

(* The canonical (alpha-renamed) memo key erases variable identity
   entirely, so the same query construction performed on different
   domains — whose Var ids live in unrelated slots — produces
   byte-identical keys, and a verdict cached by one domain replays for
   all of them. *)
let prop_canon_key_domain_invariant =
  QCheck.Test.make ~count:30
    ~name:"canonical memo keys are domain-invariant"
    QCheck.(pair (int_range 1 5) (int_range 0 7))
    (fun (n, c) ->
      let build () =
        let xs =
          Array.init n (fun i -> Var.fresh (Printf.sprintf "x%d" i))
        in
        let w = Var.fresh_wild () in
        let cs =
          Constr.eq2 (Linexpr.var w) (Linexpr.var xs.(0))
          :: List.init n (fun i ->
                 Constr.ge (Linexpr.var xs.(i)) (Linexpr.of_int (i + c)))
        in
        Canon.of_problems [ Problem.of_list cs ]
      in
      let here = build () in
      let there = Domain.join (Domain.spawn build) in
      here = there)

(* ------------------------------------------------------------------ *)
(* Memo bound                                                          *)
(* ------------------------------------------------------------------ *)

let test_memo_bound () =
  let saved = !Analyses.Memo.capacity in
  Fun.protect
    ~finally:(fun () ->
      Analyses.Memo.capacity := saved;
      Analyses.Memo.reset ())
    (fun () ->
      let unbounded = outcome_of Corpus.cholsky in
      Analyses.Memo.capacity := 4;
      let bounded = outcome_of Corpus.cholsky in
      check Alcotest.bool "size stays within capacity" true
        (Analyses.Memo.size () <= 4);
      check Alcotest.bool "pressure causes evictions" true
        (Analyses.Memo.stats.Analyses.Memo.evictions > 0);
      check_outcome "cholsky under tiny memo" unbounded bounded)

(* ------------------------------------------------------------------ *)
(* Memo identity                                                       *)
(* ------------------------------------------------------------------ *)

let memo_programs = Corpus.all @ Corpus.stress

(* Everything a client sees of one program: the two daemon payloads and
   the dependence graph, each parsed afresh. *)
let outputs src =
  let prog () = Lang.Sema.analyze (Lang.Parser.parse_string src) in
  let analyze = Serve.Service.analyze_payload ~in_bounds:false (prog ()) in
  let parallelize =
    Serve.Service.parallelize_payload ~in_bounds:false (prog ())
  in
  [
    Serve.Json.to_string analyze;
    Serve.Json.to_string parallelize;
    Xform.Graph.to_json (Xform.Graph.build (prog ()));
  ]

let all_outputs ?(reset = false) () =
  List.map
    (fun (name, src) ->
      if reset then Analyses.Memo.reset ();
      (name, outputs src))
    memo_programs

let check_outputs what expected got =
  List.iter2
    (fun (name, e) (_, g) ->
      check slist (Printf.sprintf "%s: %s" name what) e g)
    expected got

let with_memo_restored f =
  let enabled = !Analyses.Memo.enabled in
  Fun.protect
    ~finally:(fun () ->
      Analyses.clear_fault_injection ();
      Analyses.Memo.enabled := enabled;
      Analyses.Memo.reset ())
    f

let test_memo_identity () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.enabled := true;
  let cold = all_outputs ~reset:true () in
  (* warm the cache over the corpus in another order first, so a key
     shared by mistake between programs would hand one program another
     program's vectors *)
  Analyses.Memo.reset ();
  let rng = Random.State.make [| 13 |] in
  memo_programs
  |> List.map (fun p -> (Random.State.bits rng, p))
  |> List.sort compare
  |> List.iter (fun (_, (_, src)) -> ignore (outputs src));
  check_outputs "warm = cold" cold (all_outputs ());
  check Alcotest.bool "vector entries were replayed" true
    (Analyses.Memo.stats.Analyses.Memo.vec_hits > 0);
  (* keyed faults bypass the cache: a warm cache and a reset one give
     the same degraded outputs *)
  Analyses.set_fault_injection ~seed:7 ~rate:0.2;
  let faulted_warm = all_outputs () in
  let faulted_cold = all_outputs ~reset:true () in
  check_outputs "faulted warm = faulted cold" faulted_cold faulted_warm;
  Analyses.clear_fault_injection ();
  Analyses.Memo.enabled := false;
  check_outputs "disabled = cold" cold (all_outputs ())

(* A repeat request is answered from the cache: the second parallelize
   of a program poses no solver query at all (vectors, minimums,
   verdicts and existence checks all replay). *)
let test_memo_warm_repeat () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.enabled := true;
  Analyses.Memo.reset ();
  List.iter
    (fun (name, src) ->
      let parallelize () =
        ignore
          (Serve.Service.parallelize_payload ~in_bounds:false
             (Lang.Sema.analyze (Lang.Parser.parse_string src)))
      in
      parallelize ();
      Metrics.reset ();
      parallelize ();
      check Alcotest.int
        (name ^ ": solver queries of a warm repeat")
        0 (Metrics.current ()).Metrics.queries)
    Corpus.all

(* The key of a per-level family lists the distinguished variables, so
   the same problem stated over its distance variables in another order
   is another key, while a fresh instantiation of the same pair (new
   variables, same order) is the same key. *)
let test_memo_key_positions () =
  let prog = Lang.Sema.parse_and_analyze Corpus.cholsky in
  let ctx = Depctx.create prog in
  let w =
    List.find (fun a -> Lang.Ir.depth a >= 2) (Lang.Ir.writes prog)
  in
  let key_of ?(permute = false) () =
    let p = Deps.make_pair ctx w w in
    let levels = Depctx.order_before ctx p.Deps.a p.Deps.b in
    let dvars = Array.to_list p.Deps.dvars in
    Deps.levels_key (Result.get_ok p.Deps.base) levels
      ~evars:(if permute then List.rev dvars else dvars)
  in
  check Alcotest.string "fresh instantiation, same key" (key_of ())
    (key_of ());
  check Alcotest.bool "permuted distance variables, different key" false
    (key_of () = key_of ~permute:true ())

(* Random affine access pairs: a write and a read of [a] in a nest of
   depth 1-3 (rectangular or triangular), the read at a random depth.
   Small coefficients make alpha-equivalent pairs across programs
   common, so a later program's pairs often hit entries an earlier one
   filled. *)
let gen_pair_program =
  QCheck.Gen.(
    let* depth = int_range 1 3 in
    let* triangular = bool in
    let* rdepth = int_range 1 depth in
    let var k = Printf.sprintf "i%d" k in
    let gen_sub vars =
      let* c0 = int_range (-1) 1 in
      let* cs = flatten_l (List.map (fun _ -> int_range (-1) 2) vars) in
      return
        (List.fold_left2
           (fun e v c -> if c = 0 then e else Printf.sprintf "%s + %d*%s" e c v)
           (string_of_int c0) vars cs)
    in
    let vars_to d = List.init d (fun k -> var (k + 1)) in
    let* w1 = gen_sub (vars_to depth) in
    let* w2 = gen_sub (vars_to depth) in
    let* r1 = gen_sub (vars_to rdepth) in
    let* r2 = gen_sub (vars_to rdepth) in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "symbolic n;\nreal a[-60:60, -60:60], x[-60:60];\n";
    for k = 1 to depth do
      let hi = if triangular && k > 1 then var (k - 1) else "n" in
      Buffer.add_string buf
        (Printf.sprintf "for %s := 1 to %s do\n" (var k) hi)
    done;
    Buffer.add_string buf (Printf.sprintf "W: a(%s, %s) := x(i1);\n" w1 w2);
    for k = depth downto 1 do
      if k = rdepth then
        Buffer.add_string buf
          (Printf.sprintf "R: x(i1) := a(%s, %s);\n" r1 r2);
      Buffer.add_string buf "endfor\n"
    done;
    return (Buffer.contents buf))

(* The constraints pinning the first distances of a pair. *)
let pin_constraints (p : Deps.pair) pins =
  List.mapi
    (fun l d -> Constr.eq2 (Linexpr.var p.Deps.dvars.(l)) (Linexpr.of_int d))
    pins

(* The per-level vectors of a pair under pins, merged as a dependence
   states them: a level that gives up contributes its weakest vectors. *)
let vectors_under ctx ~src ~dst pins =
  let p = Deps.make_pair ctx src dst in
  let levels = Depctx.order_before ctx p.Deps.a p.Deps.b in
  Deps.level_vectors ~label:"test/vectors" ~fix:(pin_constraints p pins) p
    levels
  |> Deps.vectors_by_level p levels
  |> List.concat_map snd
  |> List.sort_uniq Dirvec.compare

(* The section 4.4 candidate generator written the way it was before it
   read the per-level vectors: each step minimizes the next distance
   with [Omega.minimize], one governed query per ordering level under
   the pins so far (a level that is empty, unbounded or gives up is left
   out), checks the pinned candidate, and the vectors under the final
   pins are asked last.  [Analyses.refine] must return the same pins
   and vectors. *)
let reference_refine ctx ~src ~dst =
  let p = Deps.make_pair ctx src dst in
  let c = p.Deps.common in
  let levels = Depctx.order_before ctx p.Deps.a p.Deps.b in
  let min_distance pins l =
    List.filter_map
      (fun (_, order) ->
        let prob =
          Problem.add_list (pin_constraints p pins @ order)
            (Result.get_ok p.Deps.base)
        in
        match
          Budget.run ~label:"test/minimize" (fun () ->
              Omega.minimize prob p.Deps.dvars.(l))
        with
        | Ok (`Min m) -> Some (Zint.to_int m)
        | Ok (`Unbounded | `Unsat) | Error _ -> None)
      levels
  in
  let rec go pins l =
    if l >= c then pins
    else
      match min_distance pins l with
      | [] -> pins
      | m :: rest ->
        let pins' = pins @ [ List.fold_left min m rest ] in
        let cand =
          List.init c (fun l' ->
              match List.nth_opt pins' l' with
              | Some d -> (Some d, Some d)
              | None -> (None, None))
        in
        if Analyses.check_refinement ctx ~src ~dst cand then go pins' (l + 1)
        else pins
  in
  let pins = go [] 0 in
  (pins, vectors_under ctx ~src ~dst pins)

(* [Analyses.refine] against [reference_refine] on every write/read pair
   of the same array in [src]; the mismatches, as text. *)
let refine_mismatches name src =
  let prog = Lang.Sema.parse_and_analyze src in
  let ctx = Depctx.create prog in
  let show (pins, vecs) =
    Printf.sprintf "pins [%s] vectors %s"
      (String.concat ";" (List.map string_of_int pins))
      (String.concat " " (List.map Dirvec.to_string vecs))
  in
  List.concat_map
    (fun (w : Lang.Ir.access) ->
      List.filter_map
        (fun (r : Lang.Ir.access) ->
          if w.Lang.Ir.array <> r.Lang.Ir.array then None
          else
            let got = Analyses.refine ctx ~src:w ~dst:r in
            let want = reference_refine ctx ~src:w ~dst:r in
            if got = want then None
            else
              Some
                (Printf.sprintf "%s %s->%s: got %s, want %s" name
                   w.Lang.Ir.label r.Lang.Ir.label (show got) (show want)))
        (Lang.Ir.reads prog))
    (Lang.Ir.writes prog)

let test_refine_reference_corpus () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.reset ();
  check slist "refine = reference generator on every corpus pair" []
    (List.concat_map
       (fun (name, src) -> refine_mismatches name src)
       (Corpus.all @ Corpus.stress))

(* The flow, anti and output dependences of the pair, the flow
   dependence's refinement, and the vectors under pins the generator
   would not choose (all 0, all 1), as plain data: entries that differ
   only in their pinned distances must not share. *)
let pair_results src =
  let prog = Lang.Sema.parse_and_analyze src in
  let ctx = Depctx.create prog in
  let on_a = List.filter (fun a -> a.Lang.Ir.array = "a") in
  let w = List.hd (on_a (Lang.Ir.writes prog)) in
  let r = List.hd (on_a (Lang.Ir.reads prog)) in
  let dep ~src ~dst kind =
    Option.map
      (fun (d : Deps.dep) ->
        ( List.map Dirvec.to_string d.Deps.vectors,
          d.Deps.levels,
          d.Deps.assumed ))
      (Deps.compute ctx ~src ~dst ~kind)
  in
  let strings = List.map Dirvec.to_string in
  let pinned, refined = Analyses.refine ctx ~src:w ~dst:r in
  let c = Lang.Ir.common_loops w r in
  let off_generator =
    List.map
      (fun d -> strings (vectors_under ctx ~src:w ~dst:r (List.init c (fun _ -> d))))
      [ 0; 1 ]
  in
  ( [ dep ~src:w ~dst:r Deps.Flow; dep ~src:r ~dst:w Deps.Anti;
      dep ~src:w ~dst:w Deps.Output ],
    pinned,
    strings refined :: off_generator )

let prop_memo_pairs_sound =
  QCheck.Test.make ~count:40
    ~name:"cached vectors and refinements = uncached, across pairs"
    QCheck.(
      make
        ~print:(fun ps -> String.concat "----\n" ps)
        Gen.(list_size (int_range 2 5) gen_pair_program))
    (fun srcs ->
      with_memo_restored @@ fun () ->
      Analyses.Memo.enabled := false;
      let uncached = List.map pair_results srcs in
      Analyses.Memo.enabled := true;
      Analyses.Memo.reset ();
      let filling = List.map pair_results srcs in
      let replayed = List.map pair_results (List.rev srcs) |> List.rev in
      uncached = filling && uncached = replayed)

let prop_refine_reference_pairs =
  QCheck.Test.make ~count:40
    ~name:"refine = reference generator, across random pairs"
    QCheck.(
      make
        ~print:(fun ps -> String.concat "----\n" ps)
        Gen.(list_size (int_range 2 5) gen_pair_program))
    (fun srcs ->
      with_memo_restored @@ fun () ->
      Analyses.Memo.reset ();
      List.for_all (fun src -> refine_mismatches "random" src = []) srcs)

(* Repeated cold analyses do not grow the live heap: after a full major
   collection, the live words after [rounds] passes of cold
   [analyze_payload]/[parallelize_payload] over every corpus and stress
   program (one fresh verdict cache per operation) are no more than
   after two passes, plus [slack] words.  The slack (64 KiB) is far below
   one leaked payload per operation: a pass is 98 operations, and one
   cholsky payload alone is several kilobytes. *)
let test_cold_analyses_live_heap () =
  let programs =
    List.map
      (fun (_, src) -> Lang.Sema.analyze (Lang.Parser.parse_string src))
      (Corpus.all @ Corpus.stress)
  in
  let pass () =
    List.iter
      (fun prog ->
        Analyses.Memo.reset ();
        ignore (Serve.Service.analyze_payload ~in_bounds:false prog);
        Analyses.Memo.reset ();
        ignore (Serve.Service.parallelize_payload ~in_bounds:false prog))
      programs
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let passes n =
    for _ = 1 to n do pass () done;
    live_words ()
  in
  let rounds = 6 and slack = 8192 in
  let after_two = passes 2 in
  let after_all = passes (rounds - 2) in
  (* the parsed programs stay reachable until both measurements *)
  ignore (Sys.opaque_identity programs);
  Analyses.Memo.reset ();
  if after_all > after_two + slack then
    Alcotest.failf "live heap grew from %d words after 2 passes to %d after %d"
      after_two after_all rounds

let unit_tests =
  [
    Alcotest.test_case "determinism across reruns" `Quick
      test_determinism_reruns;
    Alcotest.test_case "determinism across Var-id shifts" `Quick
      test_determinism_var_ids;
    Alcotest.test_case "memo bound and eviction" `Quick test_memo_bound;
    Alcotest.test_case "memo identity: cold, warm, disabled, faulted" `Quick
      test_memo_identity;
    Alcotest.test_case "memo: warm repeat makes no solver query" `Quick
      test_memo_warm_repeat;
    Alcotest.test_case "memo: keys fix distance-variable positions" `Quick
      test_memo_key_positions;
    Alcotest.test_case "refine = reference generator: corpus pairs" `Quick
      test_refine_reference_corpus;
    Alcotest.test_case "cold analyses: live heap flat" `Quick
      test_cold_analyses_live_heap;
  ]

let suite =
  ( "perf",
    unit_tests
    @ test_redundancy_preserves_solutions
      :: List.map
           (QCheck_alcotest.to_alcotest ~long:false)
           [
             prop_var_ids_disjoint;
             prop_canon_key_domain_invariant;
             prop_memo_pairs_sound;
             prop_refine_reference_pairs;
           ] )

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

(* [Depctx.create] mints every instance once, tag-major: the symbolic
   constants first, then for tags [t < t'] every variable of any
   access's [t] instance below every variable of any access's [t']
   instance.  A query pairing distinct tags then sees the relative id
   order that minting fresh instances per query gave it.  Repeated
   [instantiate] and default [domain] calls return the very same
   values, and in-bounds domains equal ones.  The failures found, [[]]
   when the context keeps all three. *)
let tag_major_failures (prog : Lang.Ir.program) =
  let ctx = Depctx.create prog in
  let accs = Array.to_list prog.Lang.Ir.accesses in
  let tags = [ Depctx.I; Depctx.J; Depctx.K ] in
  let ids tag =
    List.concat_map
      (fun a ->
        List.map Var.id (Depctx.inst_vars (Depctx.instantiate ctx a ~tag)))
      accs
  in
  let below xs ys =
    List.for_all (fun x -> List.for_all (fun y -> x < y) ys) xs
  in
  let syms = List.map (fun (_, v) -> Var.id v) ctx.Depctx.syms in
  let order =
    (if below syms (List.concat_map ids tags) then []
     else [ "symbolic constants not first" ])
    @ (if below (ids Depctx.I) (ids Depctx.J) then [] else [ "i not below j" ])
    @ if below (ids Depctx.J) (ids Depctx.K) then [] else [ "j not below k" ]
  in
  let same =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun tag ->
            let inst = Depctx.instantiate ctx a ~tag in
            let stable =
              Depctx.instantiate ctx a ~tag == inst
              && List.for_all
                   (fun (in_bounds, eq) ->
                     match
                       ( Depctx.domain ~in_bounds ctx inst,
                         Depctx.domain ~in_bounds ctx inst )
                     with
                     | d1, d2 -> eq d1 d2
                     | exception Zint.Overflow -> true)
                   [ (false, ( == )); (true, List.equal Constr.equal) ]
            in
            if stable then None
            else
              Some
                (Printf.sprintf "access %d: a second call built anew"
                   a.Lang.Ir.acc_id))
          tags)
      accs
  in
  order @ same

let test_tag_major_corpus () =
  List.iter
    (fun (name, src) ->
      check slist name []
        (tag_major_failures (Lang.Sema.parse_and_analyze src)))
    (Corpus.all @ Corpus.stress)

(* A loop from min_int overflows [i - lo] while [create] builds the
   domain: [create] still succeeds, every [domain] call raises the
   overflow, and the flow it would have decided is assumed, not lost. *)
let test_domain_overflow () =
  let prog =
    Lang.Sema.parse_and_analyze
      "real a[-5:5];\nfor i := -4611686018427387903 - 1 to 3 do\n  a(i) := \
       a(i+1);\nendfor\n"
  in
  check slist "order" [] (tag_major_failures prog);
  let ctx = Depctx.create prog in
  let inst =
    Depctx.instantiate ctx (List.hd (Lang.Ir.writes prog)) ~tag:Depctx.I
  in
  List.iter
    (fun in_bounds ->
      for _ = 1 to 2 do
        match Depctx.domain ~in_bounds ctx inst with
        | _ -> Alcotest.fail "the domain was built"
        | exception Zint.Overflow -> ()
      done)
    [ false; true ];
  let flows = (Driver.analyze prog).Driver.flows in
  check Alcotest.bool "flow assumed" true
    (flows <> []
    && List.for_all
         (fun (fr : Driver.flow_result) -> fr.Driver.dep.Deps.assumed)
         flows)

let prop_tag_major_opaque =
  QCheck.Test.make ~count:60
    ~name:"Depctx: instances minted once, tag-major (opaque programs)"
    (QCheck.make ~print:Lang.Ast.program_to_string Test_e2e.gen_opaque_program)
    (fun ast ->
      match tag_major_failures (Lang.Sema.analyze ast) with
      | [] -> true
      | fs -> QCheck.Test.fail_report (String.concat "; " fs))

(* [Canon.key] against a reference renumbering that keeps its
   first-occurrence ids in a [Hashtbl], on keys over 65 to 200
   variables: past the 64 the id table holds before it first grows.
   The variables are used in a shuffled order, so first occurrence
   differs from allocation order, and mix all three kinds. *)
let reference_key ~tag ~hyp lhs ~evars rhs =
  let buf = Buffer.create 1024 in
  let canon = Hashtbl.create 16 in
  let cid v =
    match Hashtbl.find_opt canon (Var.id v) with
    | Some c -> c
    | None ->
      let c = Hashtbl.length canon in
      Hashtbl.add canon (Var.id v) c;
      c
  in
  let kind_char v =
    match Var.kind v with Var.Input -> 'i' | Var.Sym -> 's' | Var.Wild -> 'w'
  in
  let add_constr c =
    Buffer.add_char buf
      (match Constr.kind c with Constr.Eq -> 'E' | Constr.Geq -> 'G');
    let e = Constr.expr c in
    Linexpr.iter_terms
      (fun v k ->
        Buffer.add_string buf
          (Printf.sprintf "%d*%c%d+" (Zint.to_int k) (kind_char v) (cid v)))
      e;
    Buffer.add_string buf (string_of_int (Zint.to_int (Linexpr.constant e)));
    Buffer.add_char buf ';'
  in
  let add_problem p =
    Buffer.add_char buf '[';
    List.iter add_constr (Problem.constraints p);
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf (tag ^ ":");
  List.iter add_constr hyp;
  Buffer.add_char buf '|';
  List.iter add_problem lhs;
  Buffer.add_char buf '|';
  List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%d," (cid v))) evars;
  Buffer.add_char buf '|';
  List.iter add_problem rhs;
  Buffer.contents buf

let prop_canon_key_reference =
  QCheck.Test.make ~count:40
    ~name:"Canon.key = Hashtbl reference renumbering, > 64 variables"
    QCheck.(pair (int_range 65 200) small_nat)
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let vars =
        Array.init n (fun i ->
            match Random.State.int st 3 with
            | 0 -> Var.fresh (Printf.sprintf "x%d" i)
            | 1 -> Var.fresh ~kind:Var.Sym (Printf.sprintf "s%d" i)
            | _ -> Var.fresh_wild ())
      in
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      (* one constraint per variable, in the shuffled order, each with a
         few more variables drawn at random *)
      let constr i =
        let term v =
          (* a coefficient in -3..-1 or 1..3 *)
          let k = Random.State.int st 6 - 3 in
          Linexpr.add_term Linexpr.zero (Zint.of_int (if k >= 0 then k + 1 else k)) v
        in
        let e =
          List.fold_left
            (fun e _ -> Linexpr.add e (term vars.(Random.State.int st n)))
            (term vars.(order.(i)))
            (List.init (Random.State.int st 3) Fun.id)
        in
        let e = Linexpr.add e (Linexpr.of_int (Random.State.int st 21 - 10)) in
        if Random.State.bool st then Constr.geq e else Constr.eq e
      in
      let cs = Array.init n constr in
      let slice lo hi = Array.to_list (Array.sub cs lo (hi - lo)) in
      let q = n / 4 in
      let hyp = slice 0 q in
      let lhs = [ Problem.of_list (slice q (2 * q)) ] in
      let evars = List.init 5 (fun _ -> vars.(Random.State.int st n)) in
      let rhs =
        [ Problem.of_list (slice (2 * q) (3 * q)); Problem.of_list (slice (3 * q) n) ]
      in
      Canon.key ~tag:"t" ~hyp lhs ~evars rhs
      = reference_key ~tag:"t" ~hyp lhs ~evars rhs)

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
      Budget.clear_fault_injection ();
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
  Budget.set_fault_injection ~seed:7 ~rate:0.2;
  let faulted_warm = all_outputs () in
  let faulted_cold = all_outputs ~reset:true () in
  check_outputs "faulted warm = faulted cold" faulted_cold faulted_warm;
  Budget.clear_fault_injection ();
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
   is another key, while a second pair built from the same accesses
   (new distance variables, same order) is the same key. *)
let test_memo_key_positions () =
  let prog = Lang.Sema.parse_and_analyze Corpus.cholsky in
  let ctx = Depctx.create prog in
  let w =
    List.find (fun a -> Lang.Ir.depth a >= 2) (Lang.Ir.writes prog)
  in
  let key_of ?(permute = false) () =
    let p = Deps.make_pair ctx w w in
    let q = Lazy.force p.Deps.problem in
    let levels = Depctx.order_before p.Deps.a p.Deps.b in
    let dvars = Array.to_list q.Deps.dvars in
    Deps.levels_key (Result.get_ok q.Deps.base) levels
      ~evars:(if permute then List.rev dvars else dvars)
  in
  check Alcotest.string "second pair, same key" (key_of ())
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

(* The constraints pinning the first distances of a pair's problem. *)
let pin_constraints (q : Deps.problem) pins =
  List.mapi
    (fun l d -> Constr.eq2 (Linexpr.var q.Deps.dvars.(l)) (Linexpr.of_int d))
    pins

(* The per-level vectors of a pair under pins, merged as a dependence
   states them: a level that gives up contributes its weakest vectors. *)
let vectors_under ctx ~src ~dst pins =
  let p = Deps.make_pair ctx src dst in
  Deps.level_vectors ~label:"test/vectors" ~pins p
  |> Deps.vectors_by_level p
  |> List.concat_map snd
  |> List.sort_uniq Dirvec.compare

(* Every ordering level of a pair of accesses ([0] = loop-independent,
   when [src] is textually first), whatever the dependence between them:
   a section-4 query over these levels is the unrestricted one, the
   reference for the queries the driver restricts to a dependence's
   carried levels. *)
let all_levels (src : Lang.Ir.access) (dst : Lang.Ir.access) =
  List.init (Lang.Ir.common_loops src dst) succ
  @ if Lang.Ir.textually_before src dst then [ 0 ] else []

(* The carried levels of the flow dependence from [src] to [dst] ([[]]
   when there is none): what the driver passes to [Analyses.refine]. *)
let flow_levels ctx ~src ~dst =
  match Deps.compute ctx ~src ~dst ~kind:Deps.Flow with
  | Some d -> d.Deps.levels
  | None -> []

(* The section 4.4 candidate generator written the way it was before it
   read the per-level vectors: each step minimizes the next distance
   with [Omega.minimize], one governed query per ordering level under
   the pins so far (a level that is empty, unbounded or gives up is left
   out), checks the pinned candidate over every ordering level, and the
   vectors under the final pins are asked last.  [Analyses.refine],
   whose checks range over the dependence's carried levels only, must
   return the same pins and vectors. *)
let reference_refine ctx ~src ~dst =
  let p = Deps.make_pair ctx src dst in
  let q = Lazy.force p.Deps.problem in
  let c = p.Deps.common in
  let levels = Depctx.order_before p.Deps.a p.Deps.b in
  let min_distance pins l =
    List.filter_map
      (fun (_, order) ->
        let prob =
          Problem.add_list (pin_constraints q pins @ order)
            (Result.get_ok q.Deps.base)
        in
        match
          Budget.run ~label:"test/minimize" (fun () ->
              Omega.minimize prob q.Deps.dvars.(l))
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
        if
          Analyses.check_refinement ctx ~src ~dst
            ~levels:(all_levels src dst) cand
        then go pins' (l + 1)
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
            let got =
              Analyses.refine ctx ~src:w ~dst:r
                ~levels:(flow_levels ctx ~src:w ~dst:r)
            in
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
  let pinned, refined =
    Analyses.refine ctx ~src:w ~dst:r ~levels:(flow_levels ctx ~src:w ~dst:r)
  in
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

(* The refinement screen is sound: on every write/read pair of [src],
   each candidate it settles is proved by [check_refinement].  It is
   asked of the pair's unpinned per-level vectors twice: as computed,
   and with fault injection at [seed] forcing some levels to give up.
   The candidates are every prefix of a vector's lower bounds (the
   generator's pins are among them, and so are bounds that are not
   exact).  Returns the settled candidates' count and the failures. *)
let screen_outcomes ~seed src =
  let prog = Lang.Sema.parse_and_analyze src in
  let ctx = Depctx.create prog in
  let unpinned (p : Deps.pair) = Deps.level_vectors ~label:"test/vectors" p in
  let settled = ref 0 in
  let failures =
    List.concat_map
      (fun (w : Lang.Ir.access) ->
        List.concat_map
          (fun (r : Lang.Ir.access) ->
            if w.Lang.Ir.array <> r.Lang.Ir.array then []
            else
              let p = Deps.make_pair ctx w r in
              let clean = unpinned p in
              Budget.set_fault_injection ~seed ~rate:0.5;
              let faulted =
                Fun.protect ~finally:Budget.clear_fault_injection (fun () ->
                    unpinned p)
              in
              let rec prefixes acc = function
                | { Dirvec.lo = Some d; _ } :: v ->
                  let acc = acc @ [ d ] in
                  acc :: prefixes acc v
                | _ -> []
              in
              let candidates =
                List.concat_map
                  (function Ok vecs -> vecs | Error _ -> [])
                  clean
                |> List.concat_map (prefixes [])
                |> List.sort_uniq compare
              in
              List.concat_map
                (fun results ->
                  List.filter_map
                    (fun pins ->
                      if not (Analyses.refinement_screen results pins) then
                        None
                      else begin
                        incr settled;
                        let cand =
                          List.init p.Deps.common (fun l ->
                              match List.nth_opt pins l with
                              | Some d -> (Some d, Some d)
                              | None -> (None, None))
                        in
                        if
                          Analyses.check_refinement ctx ~src:w ~dst:r
                            ~levels:(all_levels w r) cand
                        then None
                        else
                          Some
                            (Printf.sprintf "%s->%s pins [%s] not proved"
                               w.Lang.Ir.label r.Lang.Ir.label
                               (String.concat ";"
                                  (List.map string_of_int pins)))
                      end)
                    candidates)
                [ clean; faulted ])
          (Lang.Ir.reads prog))
      (Lang.Ir.writes prog)
  in
  (!settled, failures)

let test_screen_sound_corpus () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.reset ();
  let settled = ref 0 in
  let failures =
    List.concat_map
      (fun (name, src) ->
        List.concat_map
          (fun seed ->
            let n, failed = screen_outcomes ~seed src in
            settled := !settled + n;
            List.map (fun f -> name ^ " " ^ f) failed)
          [ 1; 2 ])
      (Corpus.all @ Corpus.stress)
  in
  check slist "every settled candidate is proved" [] failures;
  check Alcotest.bool "the screen settles corpus candidates" true
    (!settled > 0)

let prop_screen_sound_pairs =
  QCheck.Test.make ~count:60
    ~name:"refinement screen: every settled candidate is proved"
    QCheck.(
      make
        ~print:(fun (seed, src) -> Printf.sprintf "seed %d\n%s" seed src)
        Gen.(pair (int_range 0 1000) gen_pair_program))
    (fun (seed, src) ->
      with_memo_restored @@ fun () ->
      Analyses.Memo.reset ();
      match screen_outcomes ~seed src with
      | _, [] -> true
      | _, failures -> QCheck.Test.fail_report (String.concat "\n" failures))

(* The screen's decides under [Driver.analyze]: the steps it settles in
   the refinements [analyze] asks for (every flow dependence whose
   source has a self-output dependence), replayed with the quick row
   reset.  Only cholsky, matmul and transpose_sum have refinement steps
   whose unpinned vectors already state the pins. *)
let test_screen_decides_corpus () =
  with_memo_restored @@ fun () ->
  let decides src =
    Analyses.Memo.reset ();
    let r = Driver.analyze (Lang.Sema.parse_and_analyze src) in
    Metrics.reset ();
    List.iter
      (fun (fr : Driver.flow_result) ->
        let src = fr.Driver.dep.Deps.src and dst = fr.Driver.dep.Deps.dst in
        if Driver.refinement_possible r.Driver.outputs src then
          ignore
            (Analyses.refine r.Driver.ctx ~src ~dst
               ~levels:fr.Driver.dep.Deps.levels))
      r.Driver.flows;
    (Metrics.current ()).Metrics.quick.Metrics.decides
  in
  let got =
    List.filter_map
      (fun (name, src) ->
        match decides src with
        | 0 -> None
        | n -> Some (Printf.sprintf "%s %d" name n))
      (Corpus.all @ Corpus.stress)
  in
  check slist "screen decides per program"
    [ "cholsky 17"; "matmul 2"; "transpose_sum 1" ]
    got

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

(* ------------------------------------------------------------------ *)
(* Recipes                                                             *)
(* ------------------------------------------------------------------ *)

(* The ordering disjuncts as [Depctx.order_before] built them before
   [Depctx.levels] split the levels from their constraints. *)
let reference_order (a : Depctx.inst) (b : Depctx.inst) =
  let c = Lang.Ir.common_loops a.Depctx.access b.Depctx.access in
  let eq_prefix l =
    List.init l (fun d ->
        Constr.eq2
          (Linexpr.var a.Depctx.ivars.(d))
          (Linexpr.var b.Depctx.ivars.(d)))
  in
  let levels =
    List.init c (fun l ->
        ( l + 1,
          eq_prefix l
          @ [
              Constr.lt
                (Linexpr.var a.Depctx.ivars.(l))
                (Linexpr.var b.Depctx.ivars.(l));
            ] ))
  in
  if Lang.Ir.textually_before a.Depctx.access b.Depctx.access then
    levels @ [ (0, eq_prefix c) ]
  else levels

(* [Depctx.levels] lists, for every ordered access pair of every corpus
   program, the levels the constraint-building form listed, and
   [Depctx.ordering] builds each level's conjunction as it did. *)
let test_levels_corpus () =
  let show_order order =
    String.concat "; "
      (List.map
         (fun (l, cs) ->
           Printf.sprintf "%d: %s" l
             (String.concat ", "
                (List.map (Format.asprintf "%a" Constr.pp) cs)))
         order)
  in
  List.iter
    (fun (name, src) ->
      let prog = Lang.Sema.parse_and_analyze src in
      let ctx = Depctx.create prog in
      let accs = Array.to_list prog.Lang.Ir.accesses in
      List.iter
        (fun (x : Lang.Ir.access) ->
          List.iter
            (fun (y : Lang.Ir.access) ->
              let a = Depctx.instantiate ctx x ~tag:Depctx.I in
              let b = Depctx.instantiate ctx y ~tag:Depctx.J in
              let reference = reference_order a b in
              let what =
                Printf.sprintf "%s: %d -> %d" name x.Lang.Ir.acc_id
                  y.Lang.Ir.acc_id
              in
              check (Alcotest.list Alcotest.int) (what ^ " levels")
                (List.map fst reference) (Depctx.levels x y);
              check Alcotest.string (what ^ " ordering")
                (show_order reference)
                (show_order (Depctx.order_before a b)))
            accs)
        accs)
    (Corpus.all @ Corpus.stress)

(* The tight budget of the payload digests. *)
let tight =
  { Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }

(* One program's payloads and the memo traffic of producing them:
   analyze and parallelize, at [in_bounds], under the ambient budget. *)
let payloads ?(in_bounds = false) prog =
  Metrics.reset ();
  let analyze = Serve.Service.analyze_payload ~in_bounds prog in
  let parallelize = Serve.Service.parallelize_payload ~in_bounds prog in
  let m = Metrics.current () in
  ( [ Serve.Json.to_string analyze; Serve.Json.to_string parallelize ],
    (m.Metrics.memo_hits, m.Metrics.memo_misses) )

(* Analyzed and parallelized twice without a reset, the second run of a
   program at a budget and a width is answered by recipe: the same
   payloads, every verdict lookup a hit (as many as the first run
   made), no miss, and no new memo entry. *)
let warm_repeat_holds ast =
  match Lang.Sema.analyze ast with
  | exception _ -> true
  | prog ->
    List.for_all
      (fun (lims, width) ->
        Par.set_domains width;
        Fun.protect ~finally:(fun () -> Par.set_domains 1) @@ fun () ->
        Budget.with_limits lims @@ fun () ->
        let first, (hits, misses) = payloads prog in
        let size = Analyses.Memo.size () in
        let second, (hits', misses') = payloads prog in
        let size' = Analyses.Memo.size () in
        if first <> second then QCheck.Test.fail_report "payloads differ"
        else if hits' <> hits + misses || misses' <> 0 then
          QCheck.Test.fail_reportf
            "first run %d hits %d misses, second %d hits %d misses" hits
            misses hits' misses'
        else if size' <> size then
          QCheck.Test.fail_reportf "memo size %d -> %d" size size'
        else true)
      [
        (Budget.default, 1);
        (Budget.default, 2);
        (tight, 1);
        (tight, 2);
      ]

let prop_warm_repeat name arb =
  QCheck.Test.make ~count:25 ~name arb warm_repeat_holds

(* Programs that differ from [recipe_base] in one place each: a loop
   bound, a subscript coefficient, an assumption, an array range (seen
   only under [in_bounds]) and the statement order.  Analyzed back to
   back in one process, each must still get its own fresh-memo
   payloads: a fingerprint that missed the difference would hand one
   program another's keys. *)
let recipe_base =
  "symbolic n, m;\n\
   real a[1:n, 1:n], b[1:n], c[1:5];\n\
   assume m >= 1;\n\
   for i := 1 to n do\n\
  \  for j := 1 to n do\n\
  \    S1: a(i, j) := a(i - m, j) + b(j);\n\
  \    S2: b(j) := a(i, j - 1);\n\
  \  endfor\n\
  \  S3: c(i) := c(i + 10);\n\
   endfor\n"

let recipe_variants =
  let edit from into =
    let i =
      let n = String.length from in
      let rec find i =
        if String.sub recipe_base i n = from then i else find (i + 1)
      in
      find 0
    in
    String.sub recipe_base 0 i
    ^ into
    ^ String.sub recipe_base
        (i + String.length from)
        (String.length recipe_base - i - String.length from)
  in
  [
    ("base", recipe_base, false);
    ("base, in bounds", recipe_base, true);
    ("loop bound", edit "j := 1 to n" "j := 2 to n", false);
    ("coefficient", edit "a(i - m, j)" "a(i - m, 2*j)", false);
    ("assumption", edit "m >= 1" "m >= 0", false);
    ("array range", edit "c[1:5]" "c[1:n]", true);
    ( "statement order",
      edit
        "    S1: a(i, j) := a(i - m, j) + b(j);\n\
        \    S2: b(j) := a(i, j - 1);\n"
        "    S2: b(j) := a(i, j - 1);\n\
        \    S1: a(i, j) := a(i - m, j) + b(j);\n",
      false );
  ]

let test_fingerprint_exact () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.enabled := true;
  let run (_, src, in_bounds) =
    fst (payloads ~in_bounds (Lang.Sema.parse_and_analyze src))
  in
  let fresh =
    List.map
      (fun v ->
        Analyses.Memo.reset ();
        run v)
      recipe_variants
  in
  (* every variant's answer differs from the base's in the same mode,
     and the base's in bounds from the base's *)
  List.iter2
    (fun (name, _, in_bounds) got ->
      if name <> "base" then
        check Alcotest.bool
          (name ^ ": its payloads differ from the base's")
          false
          (got
          = List.nth fresh
              (if in_bounds && name <> "base, in bounds" then 1 else 0)))
    recipe_variants fresh;
  Analyses.Memo.reset ();
  List.iter2
    (fun ((name, _, _) as v) expected ->
      check slist (name ^ ": back to back = fresh") expected (run v))
    recipe_variants fresh

(* Each section-4 query and vector family asked by recipe, with every
   access pair of a program, several level lists, distance pins and
   candidates, both modes of [in_bounds]: a recipe that left out what
   tells two queries apart would answer the second with the first's
   key.  The answers with the memo on, asked twice in a row, equal
   those with it off. *)
let recipe_answers prog =
  let ctx = Depctx.create prog in
  let accs = Array.to_list prog.Lang.Ir.accesses in
  let writes = Lang.Ir.writes prog in
  let b = string_of_bool in
  List.concat_map
    (fun in_bounds ->
      List.concat_map
        (fun (x : Lang.Ir.access) ->
          List.concat_map
            (fun (y : Lang.Ir.access) ->
              if x.Lang.Ir.array <> y.Lang.Ir.array then []
              else
                let all = Depctx.levels x y in
                let level_lists = all :: List.map (fun l -> [ l ]) all in
                let c = Lang.Ir.common_loops x y in
                let pins =
                  List.filter
                    (fun p -> List.length p <= c)
                    [ []; [ 0 ]; [ 1 ] ]
                in
                let vectors =
                  List.map
                    (fun pins ->
                      Deps.level_vectors ~label:"test/vectors" ~pins
                        (Deps.make_pair ~in_bounds ctx x y)
                      |> List.map (function
                           | Ok vs ->
                             String.concat " " (List.map Dirvec.to_string vs)
                           | Error _ -> "gave up")
                      |> String.concat "|")
                    pins
                in
                let verdicts =
                  List.concat_map
                    (fun levels ->
                      [
                        b
                          (Analyses.covers ~in_bounds ctx ~src:x ~dst:y
                             ~levels);
                        b
                          (Analyses.terminates ~in_bounds ctx ~src:x ~dst:y
                             ~levels);
                      ]
                      @ List.map
                          (fun d ->
                            b
                              (Analyses.check_refinement ~in_bounds ctx ~src:x
                                 ~dst:y ~levels
                                 (List.init c (fun l ->
                                      if l = 0 then (Some d, Some d)
                                      else (None, None)))))
                          (if c > 0 then [ 0; 1 ] else [])
                      @ List.map
                          (fun (k : Lang.Ir.access) ->
                            b
                              (Analyses.kills ~in_bounds ctx ~src:x ~killer:k
                                 ~dst:y ~ac:levels ~ab:(Depctx.levels x k)
                                 ~bc:(Depctx.levels k y)))
                          (List.filter
                             (fun (k : Lang.Ir.access) ->
                               k.Lang.Ir.array = x.Lang.Ir.array)
                             writes))
                    level_lists
                in
                [
                  Printf.sprintf "%s -> %s in_bounds=%b: %s" x.Lang.Ir.label
                    y.Lang.Ir.label in_bounds
                    (String.concat ", " (vectors @ verdicts));
                ])
            accs)
        accs)
    [ false; true ]

let test_queries_by_recipe () =
  with_memo_restored @@ fun () ->
  List.iter
    (fun name ->
      let prog = Lang.Sema.parse_and_analyze (List.assoc name Corpus.all) in
      Analyses.Memo.enabled := false;
      let reference = recipe_answers prog in
      Analyses.Memo.enabled := true;
      Analyses.Memo.reset ();
      check slist (name ^ ": memo on = off") reference (recipe_answers prog);
      check slist (name ^ ": by recipe = off") reference (recipe_answers prog))
    [ "example1"; "example2"; "example3"; "example4"; "example6" ]

(* [Memo.reset] drops every recipe, and a fault-injected run neither
   reads nor records one. *)
let test_recipes_reset_and_faults () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.enabled := true;
  let prog () = Lang.Sema.parse_and_analyze Corpus.cholsky in
  Analyses.Memo.reset ();
  let clean = fst (payloads (prog ())) in
  let recipes = Analyses.Memo.recipe_count () in
  check Alcotest.bool "a clean run records recipes" true (recipes > 0);
  Budget.set_fault_injection ~seed:7 ~rate:0.2;
  let faulted_warm = fst (payloads (prog ())) in
  check Alcotest.int "a faulted run records no recipe" recipes
    (Analyses.Memo.recipe_count ());
  Analyses.Memo.reset ();
  check Alcotest.int "reset drops every recipe" 0
    (Analyses.Memo.recipe_count ());
  let faulted_cold = fst (payloads (prog ())) in
  check Alcotest.int "a faulted run on a reset memo records none" 0
    (Analyses.Memo.recipe_count ());
  check slist "faulted: warm recipes = none" faulted_cold faulted_warm;
  Budget.clear_fault_injection ();
  check slist "clean after faults" clean (fst (payloads (prog ())))

(* A long-lived cache fed distinct programs holds a bounded number of
   program tables: one that never records a recipe (a single write, no
   dependence pair to ask about) holds none, and under a small
   [capacity] programs that do record are evicted, whole, to stay
   within it. *)
let test_recipe_programs_bounded () =
  with_memo_restored @@ fun () ->
  Analyses.Memo.enabled := true;
  Analyses.Memo.reset ();
  let analyze src = ignore (payloads (Lang.Sema.parse_and_analyze src)) in
  for k = 1 to 50 do
    analyze
      (Printf.sprintf
         "symbolic n%d;\nreal a[-1000:1000];\nA: a(n%d) := 0;\n" k k)
  done;
  check Alcotest.int "query-free programs: no table" 0
    (Analyses.Memo.program_count ());
  let saved = !Analyses.Memo.capacity in
  Fun.protect ~finally:(fun () -> Analyses.Memo.capacity := saved)
  @@ fun () ->
  Analyses.Memo.capacity := 8;
  for k = 1 to 50 do
    analyze
      (Printf.sprintf
         "symbolic n%d;\n\
          real a[-1000:1000];\n\
          for L1 := 1 to n%d do\n\
         \  A: a(L1) := a(L1 - 1);\n\
          endfor\n"
         k k)
  done;
  let programs = Analyses.Memo.program_count () in
  check Alcotest.bool "recording programs: some tables" true (programs > 0);
  check Alcotest.bool "recording programs: within capacity" true
    (programs <= 8 && Analyses.Memo.recipe_count () <= 8)

(* The warm twin of [test_cold_analyses_live_heap]: with one verdict
   cache kept warm across every pass, the live words after [rounds]
   passes are no more than after two, plus [slack], and no recipe is
   added after the first pass. *)
let test_warm_analyses_live_heap () =
  let programs =
    List.map
      (fun (_, src) -> Lang.Sema.analyze (Lang.Parser.parse_string src))
      (Corpus.all @ Corpus.stress)
  in
  let pass () =
    List.iter
      (fun prog ->
        ignore (Serve.Service.analyze_payload ~in_bounds:false prog);
        ignore (Serve.Service.parallelize_payload ~in_bounds:false prog))
      programs
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let passes n =
    for _ = 1 to n do pass () done;
    (live_words (), Analyses.Memo.recipe_count ())
  in
  let rounds = 6 and slack = 8192 in
  Analyses.Memo.reset ();
  let after_two, recipes_two = passes 2 in
  let after_all, recipes_all = passes (rounds - 2) in
  ignore (Sys.opaque_identity programs);
  Analyses.Memo.reset ();
  check Alcotest.int "recipes after 2 and 6 passes" recipes_two recipes_all;
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
    Alcotest.test_case "refinement screen: settled candidates proved, corpus"
      `Quick test_screen_sound_corpus;
    Alcotest.test_case "refinement screen: decides per program" `Quick
      test_screen_decides_corpus;
    Alcotest.test_case "cold analyses: live heap flat" `Quick
      test_cold_analyses_live_heap;
    Alcotest.test_case "Depctx: instances minted once, tag-major (corpus)"
      `Quick test_tag_major_corpus;
    Alcotest.test_case "Depctx: a domain that overflows raises on every call"
      `Quick test_domain_overflow;
    Alcotest.test_case "Depctx: levels and orderings unchanged (corpus)"
      `Quick test_levels_corpus;
    Alcotest.test_case "recipes: one-edit programs back to back = fresh"
      `Quick test_fingerprint_exact;
    Alcotest.test_case "recipes: every query family = memo off" `Quick
      test_queries_by_recipe;
    Alcotest.test_case "recipes: reset drops them, faults bypass them"
      `Quick test_recipes_reset_and_faults;
    Alcotest.test_case "recipes: program tables bounded" `Quick
      test_recipe_programs_bounded;
    Alcotest.test_case "warm analyses: live heap flat" `Quick
      test_warm_analyses_live_heap;
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
             prop_canon_key_reference;
             prop_tag_major_opaque;
             prop_memo_pairs_sound;
             prop_refine_reference_pairs;
             prop_screen_sound_pairs;
             prop_warm_repeat "recipes: a warm repeat is all hits (programs)"
               Test_e2e.arb_program;
             prop_warm_repeat
               "recipes: a warm repeat is all hits (opaque programs)"
               (QCheck.make ~print:Lang.Ast.program_to_string
                  Test_e2e.gen_opaque_program);
           ] )

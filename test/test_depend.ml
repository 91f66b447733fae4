(* Golden tests for the dependence analyses: the paper's Examples 1-8 and
   the CHOLSKY tables of Figures 3 and 4. *)

open Depend

let analyze name = Driver.analyze (Lang.Sema.parse_and_analyze (Corpus.find name))

let find_flow result ~src ~dst =
  List.find_opt
    (fun (fr : Driver.flow_result) ->
      fr.Driver.dep.Deps.src.Lang.Ir.label = src
      && fr.Driver.dep.Deps.dst.Lang.Ir.label = dst)
    result.Driver.flows

let vec_strings (fr : Driver.flow_result) =
  let vecs =
    match fr.Driver.refined with
    | Some v -> v
    | None -> fr.Driver.dep.Deps.vectors
  in
  List.map Dirvec.to_string vecs

let check_flow result ~src ~dst ~vectors ~dead ~refined ~covers msg =
  match find_flow result ~src ~dst with
  | None -> Alcotest.fail (msg ^ ": dependence not found")
  | Some fr ->
    Alcotest.(check (list string)) (msg ^ ": vectors") vectors (vec_strings fr);
    Alcotest.(check bool) (msg ^ ": dead") dead (fr.Driver.dead <> None);
    Alcotest.(check bool) (msg ^ ": refined") refined (fr.Driver.refined <> None);
    Alcotest.(check bool) (msg ^ ": covers") covers fr.Driver.covers

(* The carried levels of the dependence from [src] to [dst] ([[]] when
   there is none), computed in [ctx] as the section-4 queries need. *)
let levels ctx ~src ~dst kind =
  match Deps.compute ctx ~src ~dst ~kind with
  | Some d -> d.Deps.levels
  | None -> []

let unit_tests =
  [
    Alcotest.test_case "example 1: killed flow dependence" `Quick (fun () ->
        let r = analyze "example1" in
        check_flow r ~src:"A" ~dst:"C" ~vectors:[ "()" ] ~dead:true
          ~refined:false ~covers:false "A->C";
        check_flow r ~src:"B" ~dst:"C" ~vectors:[ "()" ] ~dead:false
          ~refined:false ~covers:false "B->C");
    Alcotest.test_case "example 1 variant: kill needs the assertion" `Quick
      (fun () ->
        let r = analyze "example1m" in
        (match find_flow r ~src:"A" ~dst:"C" with
         | Some fr ->
           Alcotest.(check bool) "live without assertion" true
             (fr.Driver.dead = None)
         | None -> Alcotest.fail "dep missing");
        let r = analyze "example1m_assert" in
        match find_flow r ~src:"A" ~dst:"C" with
        | Some fr ->
          Alcotest.(check bool) "killed with assertion" true
            (fr.Driver.dead <> None)
        | None -> Alcotest.fail "dep missing");
    Alcotest.test_case "example 2: covering and killed deps" `Quick (fun () ->
        let r = analyze "example2" in
        (* D: a(L2-1) covers the read and is refined to loop-independent *)
        check_flow r ~src:"D" ~dst:"E" ~vectors:[ "(0)" ] ~dead:false
          ~refined:true ~covers:true "D->E";
        (* B and C flows are dead *)
        (match find_flow r ~src:"B" ~dst:"E" with
         | Some fr -> Alcotest.(check bool) "B->E dead" true (fr.Driver.dead <> None)
         | None -> Alcotest.fail "B->E missing");
        match find_flow r ~src:"C" ~dst:"E" with
        | Some fr -> Alcotest.(check bool) "C->E dead" true (fr.Driver.dead <> None)
        | None -> Alcotest.fail "C->E missing");
    Alcotest.test_case "example 3: refinement (0+,1) -> (0,1)" `Quick
      (fun () ->
        let r = analyze "example3" in
        check_flow r ~src:"s" ~dst:"s" ~vectors:[ "(0,1)" ] ~dead:false
          ~refined:true ~covers:false "s->s");
    Alcotest.test_case "section 4.4: refinement pins distance vectors"
      `Quick (fun () ->
        (* The paper's refinement examples, asserted structurally rather
           than through rendered strings: the apparent dependence admits
           both a loop-independent and an outer-carried form; refinement
           proves every realized dependence has distance exactly (0,1) -
           zero on the outer loop (hence outer doall-able), one on the
           inner.  Same shape for the trapezoidal example 4. *)
        List.iter
          (fun name ->
            let r = analyze name in
            match find_flow r ~src:"s" ~dst:"s" with
            | None -> Alcotest.fail (name ^ ": s->s missing")
            | Some fr ->
              Alcotest.(check int)
                (name ^ ": two apparent vectors before refinement") 2
                (List.length fr.Driver.dep.Deps.vectors);
              Alcotest.(check bool)
                (name ^ ": an outer-carried form is apparent") true
                (List.exists
                   (fun v ->
                     match v with
                     | e :: _ -> e.Dirvec.sign = Dirvec.Pos
                     | [] -> false)
                   fr.Driver.dep.Deps.vectors);
              let refined =
                match fr.Driver.refined with
                | Some vs -> vs
                | None -> Alcotest.fail (name ^ ": not refined")
              in
              (match refined with
              | [ v ] ->
                Alcotest.(check bool)
                  (name ^ ": refined to the distance vector (0,1)") true
                  (Dirvec.equal v [ Dirvec.exact 0; Dirvec.exact 1 ]);
                List.iter2
                  (fun (e : Dirvec.entry) (sign, d) ->
                    Alcotest.(check bool) (name ^ ": entry sign") true
                      (e.Dirvec.sign = sign);
                    Alcotest.(check (option int)) (name ^ ": distance lo")
                      (Some d) e.Dirvec.lo;
                    Alcotest.(check (option int)) (name ^ ": distance hi")
                      (Some d) e.Dirvec.hi)
                  v
                  [ (Dirvec.Zero, 0); (Dirvec.Pos, 1) ]
              | vs ->
                Alcotest.failf "%s: expected one refined vector, got %d" name
                  (List.length vs));
              Alcotest.(check bool)
                (name ^ ": refined vector is not loop-independent") false
                (Dirvec.is_loop_independent (List.hd refined)))
          [ "example3"; "example4" ]);
    Alcotest.test_case "example 4: trapezoidal refinement" `Quick (fun () ->
        let r = analyze "example4" in
        check_flow r ~src:"s" ~dst:"s" ~vectors:[ "(0,1)" ] ~dead:false
          ~refined:true ~covers:false "s->s");
    Alcotest.test_case "example 5: refinement fails, general check passes"
      `Quick (fun () ->
        let r = analyze "example5" in
        (* the generator cannot refine this dependence... *)
        (match find_flow r ~src:"s" ~dst:"s" with
         | Some fr ->
           Alcotest.(check bool) "not refined" true (fr.Driver.refined = None)
         | None -> Alcotest.fail "dep missing");
        (* ...but the general test verifies the paper's (0:1,1) candidate *)
        let prog = Lang.Sema.parse_and_analyze (Corpus.find "example5") in
        let ctx = Depctx.create prog in
        let w = List.hd (Lang.Ir.writes prog) in
        let rd = List.hd (Lang.Ir.reads prog) in
        let levels = levels ctx ~src:w ~dst:rd Deps.Flow in
        Alcotest.(check bool) "(0:1,1) verifies" true
          (Analyses.check_refinement ctx ~src:w ~dst:rd ~levels
             [ (Some 0, Some 1); (Some 1, Some 1) ]);
        Alcotest.(check bool) "(0,1) does not verify" false
          (Analyses.check_refinement ctx ~src:w ~dst:rd ~levels
             [ (Some 0, Some 0); (Some 1, Some 1) ]));
    Alcotest.test_case "example 6: coupled refinement to (1,1)" `Quick
      (fun () ->
        let r = analyze "example6" in
        check_flow r ~src:"s" ~dst:"s" ~vectors:[ "(1,1)" ] ~dead:false
          ~refined:true ~covers:false "s->s");
    Alcotest.test_case "figure 3: CHOLSKY live dependences" `Quick (fun () ->
        let r = analyze "cholsky" in
        let live = Driver.live_flows r in
        let dead = Driver.dead_flows r in
        Alcotest.(check int) "21 live" 21 (List.length live);
        Alcotest.(check int) "14 dead" 14 (List.length dead);
        (* spot-check famous rows *)
        let row src dst =
          List.find_opt
            (fun (fr : Driver.flow_result) ->
              fr.Driver.dep.Deps.src.Lang.Ir.label = src
              && fr.Driver.dep.Deps.dst.Lang.Ir.label = dst)
        in
        (match row "3" "3" live with
         | Some fr ->
           Alcotest.(check (list string)) "3->3 refined vector"
             [ "(0,0,1,0)" ] (vec_strings fr)
         | None -> Alcotest.fail "3->3 live missing");
        (match row "4" "1" live with
         | Some fr ->
           Alcotest.(check bool) "4->1 covers" true fr.Driver.covers;
           Alcotest.(check bool) "4->1 refined" true
             (fr.Driver.refined <> None);
           Alcotest.(check (list string)) "4->1 vector" [ "(0)" ]
             (vec_strings fr)
         | None -> Alcotest.fail "4->1 missing");
        (* counts by status, as in the paper's figures *)
        let covers =
          List.length (List.filter (fun fr -> fr.Driver.covers) live)
        in
        let refined =
          List.length
            (List.filter (fun fr -> fr.Driver.refined <> None) live)
        in
        Alcotest.(check int) "10 live cover tags" 10 covers;
        Alcotest.(check int) "7 live refined tags" 7 refined;
        let covered_dead =
          List.length
            (List.filter
               (fun fr ->
                 match fr.Driver.dead with
                 | Some (Driver.Covered _) -> true
                 | _ -> false)
               dead)
        in
        Alcotest.(check int) "2 covered dead" 2 covered_dead);
    Alcotest.test_case "terminating dependences" `Quick (fun () ->
        (* kill_chain: w2 terminates w1 (every element w1 writes is later
           overwritten by w2) *)
        let prog = Lang.Sema.parse_and_analyze (Corpus.find "kill_chain") in
        let ctx = Depctx.create prog in
        let w1 =
          List.find (fun a -> a.Lang.Ir.label = "w1") (Lang.Ir.writes prog)
        in
        let w2 =
          List.find (fun a -> a.Lang.Ir.label = "w2") (Lang.Ir.writes prog)
        in
        let terminates ~src ~dst =
          Analyses.terminates ctx ~src ~dst
            ~levels:(levels ctx ~src ~dst Deps.Output)
        in
        Alcotest.(check bool) "w2 terminates w1" true
          (terminates ~src:w1 ~dst:w2);
        Alcotest.(check bool) "w1 does not terminate w2" false
          (terminates ~src:w2 ~dst:w1));
    Alcotest.test_case "partial kill leaves the dependence live" `Quick
      (fun () ->
        let r = analyze "partial_kill" in
        match find_flow r ~src:"w1" ~dst:"r" with
        | Some fr ->
          Alcotest.(check bool) "w1->r live" true (fr.Driver.dead = None)
        | None -> Alcotest.fail "w1->r missing");
    Alcotest.test_case "kill chain: w1->r dead, w2->r live" `Quick (fun () ->
        let r = analyze "kill_chain" in
        (match find_flow r ~src:"w1" ~dst:"r" with
         | Some fr ->
           Alcotest.(check bool) "w1->r dead" true (fr.Driver.dead <> None)
         | None -> Alcotest.fail "w1->r missing");
        match find_flow r ~src:"w2" ~dst:"r" with
        | Some fr ->
          Alcotest.(check bool) "w2->r live" true (fr.Driver.dead = None)
        | None -> Alcotest.fail "w2->r missing");
    Alcotest.test_case "independent kill within an iteration" `Quick
      (fun () ->
        let r = analyze "independent_kill" in
        (match find_flow r ~src:"w1" ~dst:"r" with
         | Some fr ->
           Alcotest.(check bool) "w1->r dead" true (fr.Driver.dead <> None)
         | None -> Alcotest.fail "w1->r missing");
        match find_flow r ~src:"w2" ~dst:"r" with
        | Some fr ->
          Alcotest.(check bool) "w2->r live" true (fr.Driver.dead = None)
        | None -> Alcotest.fail "w2->r missing");
    Alcotest.test_case "example 7: symbolic conditions" `Quick (fun () ->
        let prog = Lang.Sema.parse_and_analyze (Corpus.find "example7") in
        let ctx = Depctx.create prog in
        let w = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes prog) in
        let rd = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.reads prog) in
        let outer =
          Symbolic.analyze ctx ~src:w ~dst:rd
            ~restraint:[ Dirvec.Pos; Dirvec.Any ] ~hide:[ "n" ] ()
        in
        (match outer.Symbolic.cond with
         | Symbolic.When g ->
           (* condition must be exactly 1 <= x <= 50 *)
           let x = Depctx.sym_var ctx "x" in
           (match Omega.minimize g x, Omega.maximize g x with
            | `Min lo, `Max hi ->
              Alcotest.(check int) "x min" 1 (Zint.to_int lo);
              Alcotest.(check int) "x max" 50 (Zint.to_int hi)
            | _ -> Alcotest.fail "x not bounded")
         | _ -> Alcotest.fail "expected a condition for (+,*)");
        let inner =
          Symbolic.analyze ctx ~src:w ~dst:rd
            ~restraint:[ Dirvec.Zero; Dirvec.Pos ] ~hide:[ "n" ] ()
        in
        match inner.Symbolic.cond with
        | Symbolic.When g ->
          let x = Depctx.sym_var ctx "x" in
          (match Omega.minimize g x, Omega.maximize g x with
           | `Min lo, `Max hi ->
             Alcotest.(check int) "x = 0" 0 (Zint.to_int lo);
             Alcotest.(check int) "x = 0 (max)" 0 (Zint.to_int hi)
           | _ -> Alcotest.fail "x not pinned")
        | _ -> Alcotest.fail "expected a condition for (0,+)");
    Alcotest.test_case "example 8: index array queries and assertions" `Quick
      (fun () ->
        let prog = Lang.Sema.parse_and_analyze (Corpus.find "example8") in
        let ctx = Depctx.create prog in
        let w = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes prog) in
        let an =
          Symbolic.analyze ctx ~src:w ~dst:w ~restraint:[ Dirvec.Pos ] ()
        in
        (match an.Symbolic.cond with
         | Symbolic.When g ->
           (* the new information is exactly one equality: Q[a] = Q[b] *)
           (match Omega.Problem.constraints g with
            | [ c ] ->
              Alcotest.(check bool) "is equality" true
                (Omega.Constr.kind c = Omega.Constr.Eq)
            | _ -> Alcotest.fail "expected exactly one condition")
         | _ -> Alcotest.fail "expected a condition");
        Alcotest.(check bool) "output dep without assertion" true
          (Symbolic.dependence_exists_with ctx ~src:w ~dst:w ~props:[]);
        Alcotest.(check bool) "no output dep when injective" false
          (Symbolic.dependence_exists_with ctx ~src:w ~dst:w
             ~props:[ ("q", Symbolic.Injective) ]));
    Alcotest.test_case "example 11: induction kills the s141 dependences"
      `Quick (fun () ->
        let prog = Lang.Sema.parse_and_analyze (Corpus.find "example11") in
        let ctx = Depctx.create prog in
        let accs = Induction.detect ctx in
        (match accs with
         | [ { Induction.scalar = "k"; _ } ] -> ()
         | _ -> Alcotest.fail "expected to detect the accumulator k");
        let props =
          List.map
            (fun (a : Induction.accumulator) ->
              (a.Induction.scalar, Symbolic.Accumulator a.Induction.increment))
            accs
        in
        let w = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.writes prog) in
        let r = List.find (fun a -> a.Lang.Ir.array = "a") (Lang.Ir.reads prog) in
        Alcotest.(check bool) "output dep without facts" true
          (Symbolic.dependence_exists_with ctx ~src:w ~dst:w ~props:[]);
        Alcotest.(check bool) "output dep with induction" false
          (Symbolic.dependence_exists_with ctx ~src:w ~dst:w ~props);
        Alcotest.(check bool) "carried flow dep with induction" false
          (Symbolic.dependence_exists_with ctx ~src:w ~dst:r ~props));
    Alcotest.test_case "induction rejects non-accumulators" `Quick (fun () ->
        (* decreasing increment: not recognized *)
        let prog =
          Lang.Sema.parse_and_analyze
            {|
symbolic n;
real k, a[1:100];
for i := 1 to n do
  t: k := k - 1;
  s: a(i) := k;
endfor
|}
        in
        let ctx = Depctx.create prog in
        Alcotest.(check int) "no accumulators" 0
          (List.length (Induction.detect ctx));
        (* increment positive only thanks to the loop bound *)
        let prog2 =
          Lang.Sema.parse_and_analyze
            {|
symbolic n;
real k, a[1:10000];
for i := 1 to n do
  t: k := k + i;
  s: a(i) := k;
endfor
|}
        in
        let ctx2 = Depctx.create prog2 in
        Alcotest.(check int) "i >= 1 proves the increment" 1
          (List.length (Induction.detect ctx2)));
    Alcotest.test_case "stepped loops analyze correctly" `Quick (fun () ->
        (* writes to even elements never reach odd reads *)
        let prog =
          Lang.Sema.parse_and_analyze
            {|
symbolic n;
real a[0:400], o[0:400];
for i := 0 to 2*n by 2 do
  w: a(i) := 0;
endfor
for i := 1 to 2*n+1 by 2 do
  r: o(i) := a(i);
endfor
|}
        in
        let ctx = Depctx.create prog in
        let w = List.find (fun a -> a.Lang.Ir.label = "w") (Lang.Ir.writes prog) in
        let r = List.find (fun a -> a.Lang.Ir.label = "r") (Lang.Ir.reads prog) in
        Alcotest.(check bool) "no even-to-odd flow" false
          (Deps.compute ctx ~src:w ~dst:r ~kind:Deps.Flow <> None));
    Alcotest.test_case "output/anti dependence elimination (extension)"
      `Quick (fun () ->
        (* three sequential full overwrites: w1->w3 is transitive via w2 *)
        let prog =
          Lang.Sema.parse_and_analyze
            {|
symbolic n;
real a[0:300];
for i := 1 to n do
  w1: a(i) := 1;
endfor
for i := 1 to n do
  w2: a(i) := 2;
endfor
for i := 1 to n do
  w3: a(i) := 3;
endfor
|}
        in
        let outs = Driver.classify_kind prog Deps.Output in
        let find src dst =
          List.find_opt
            (fun (fr : Driver.flow_result) ->
              fr.Driver.dep.Deps.src.Lang.Ir.label = src
              && fr.Driver.dep.Deps.dst.Lang.Ir.label = dst)
            outs
        in
        (match find "w1" "w3" with
         | Some fr ->
           Alcotest.(check bool) "w1->w3 dead" true (fr.Driver.dead <> None)
         | None -> Alcotest.fail "w1->w3 missing");
        (match find "w1" "w2" with
         | Some fr ->
           Alcotest.(check bool) "w1->w2 live" true (fr.Driver.dead = None)
         | None -> Alcotest.fail "w1->w2 missing");
        (* anti dependences: r -> w2 is transitive via w1 *)
        let prog =
          Lang.Sema.parse_and_analyze
            {|
symbolic n;
real a[0:300], x[0:300];
for i := 1 to n do
  r: x(i) := a(i);
endfor
for i := 1 to n do
  w1: a(i) := 1;
endfor
for i := 1 to n do
  w2: a(i) := 2;
endfor
|}
        in
        let antis = Driver.classify_kind prog Deps.Anti in
        let find src dst =
          List.find_opt
            (fun (fr : Driver.flow_result) ->
              fr.Driver.dep.Deps.src.Lang.Ir.label = src
              && fr.Driver.dep.Deps.dst.Lang.Ir.label = dst)
            antis
        in
        (match find "r" "w2" with
         | Some fr ->
           Alcotest.(check bool) "r->w2 dead" true (fr.Driver.dead <> None)
         | None -> Alcotest.fail "r->w2 missing");
        match find "r" "w1" with
        | Some fr ->
          Alcotest.(check bool) "r->w1 live" true (fr.Driver.dead = None)
        | None -> Alcotest.fail "r->w1 missing");
    Alcotest.test_case "anti and output dependences reported" `Quick
      (fun () ->
        let r = analyze "example3" in
        Alcotest.(check int) "one output dep" 1 (List.length r.Driver.outputs);
        Alcotest.(check int) "one anti dep" 1 (List.length r.Driver.antis));
  ]

(* ------------------------------------------------------------------ *)
(* Direction vectors from one projection = the per-query algorithm     *)
(* ------------------------------------------------------------------ *)

open Omega

(* The per-query algorithm: every question asked of the full,
   unprojected level problem ([Dirvec.analyze] and [Dirvec.range_of] on
   it).  [Dirvec.vectors_of_level], which asks them of the projection
   onto the distance variables, must agree with it. *)
let per_query_vectors p (dvars : Var.t array) ~carried : Dirvec.t list =
  if not (Elim.satisfiable p) then []
  else if carried = 0 then
    [ List.init (Array.length dvars) (fun _ -> Dirvec.exact 0) ]
  else begin
    let entry =
      match Dirvec.range_of p dvars.(carried - 1) with
      | Some a, Some b when a = b -> Dirvec.exact a
      | lo, hi -> { Dirvec.sign = Dirvec.Pos; lo; hi }
    in
    let prefix = List.init (carried - 1) (fun _ -> Dirvec.exact 0) in
    List.map
      (fun tail -> prefix @ (entry :: tail))
      (Dirvec.analyze p dvars carried)
  end

(* A random pair problem over [c] common loops: source and sink
   instances [i], [j] in a (sometimes triangular) nest bounded by a
   symbolic [n], a subscript equality with non-unit coefficients (and
   sometimes a second subscript or an extra inequality), and the
   distance variables [d_l = j_l - i_l]. *)
let gen_pair_problem =
  QCheck.Gen.(
    let* c = int_range 2 3 in
    let coeff = int_range (-3) 3 in
    let* a = list_repeat c coeff and* b = list_repeat c coeff in
    let* k = int_range (-4) 4 in
    let* a2 = list_repeat c coeff and* b2 = list_repeat c coeff in
    let* k2 = int_range (-4) 4 in
    let* extra = int_range 0 3 in
    let* triangular = bool in
    let* nmax = int_range 3 9 in
    let n = Var.fresh "n" in
    let iv = Array.init c (fun l -> Var.fresh (Printf.sprintf "i%d" l)) in
    let jv = Array.init c (fun l -> Var.fresh (Printf.sprintf "j%d" l)) in
    let dv = Array.init c (fun l -> Var.fresh (Printf.sprintf "d%d" l)) in
    let lin coeffs vars k =
      List.fold_left2
        (fun e cf v -> Linexpr.add_term e (Zint.of_int cf) v)
        (Linexpr.of_int k) coeffs (Array.to_list vars)
    in
    let vn = Linexpr.var n in
    let domain vars =
      List.concat
        (List.init c (fun l ->
             let x = Linexpr.var vars.(l) in
             let lower =
               if triangular && l > 0 then Linexpr.var vars.(l - 1)
               else Linexpr.of_int 1
             in
             [ Constr.ge x lower; Constr.le x vn ]))
    in
    let subscripts =
      Constr.eq2 (lin a iv k) (lin b jv 0)
      ::
      (match extra with
      | 0 -> [ Constr.eq2 (lin a2 iv k2) (lin b2 jv 0) ]
      | 1 -> [ Constr.ge (lin a2 iv k2) (lin b2 jv 0) ]
      | _ -> [])
    in
    let dists =
      List.init c (fun l ->
          Constr.eq2 (Linexpr.var dv.(l))
            (Linexpr.sub (Linexpr.var jv.(l)) (Linexpr.var iv.(l))))
    in
    let base =
      Problem.of_list
        ([ Constr.ge vn (Linexpr.of_int 1); Constr.le vn (Linexpr.of_int nmax) ]
        @ domain iv @ domain jv @ subscripts @ dists)
    in
    return (base, dv))

(* The ordering constraints of level [carried]: outer distances zero,
   the carried one positive; [carried = 0] pins every distance at 0. *)
let level_constraints (dv : Var.t array) carried =
  List.concat
    (List.init (Array.length dv) (fun l ->
         let d = Linexpr.var dv.(l) in
         if carried = 0 || l < carried - 1 then [ Constr.eq d ]
         else if l = carried - 1 then [ Constr.gt d (Linexpr.of_int 0) ]
         else []))

(* Enough fuel for all but a few of the generated levels, little enough
   that those few give up quickly. *)
let roomy = { Budget.default with fuel = 20_000 }

let qcheck_tests =
  [
    QCheck.Test.make ~count:150
      ~name:"vectors from one projection = per-query vectors"
      (QCheck.make
         ~print:(fun (p, _) -> Problem.to_string p)
         gen_pair_problem)
      (fun (base, dv) ->
        List.for_all
          (fun carried ->
            let p = Problem.add_list (level_constraints dv carried) base in
            (* one governed query each, as in [Deps]; a level either side
               gives up on proves nothing *)
            let run f = Budget.with_limits roomy (fun () -> Budget.run f) in
            match
              ( run (fun () -> Dirvec.vectors_of_level p dv ~carried),
                run (fun () -> per_query_vectors p dv ~carried) )
            with
            | Ok got, Ok want ->
              List.compare Dirvec.compare got want = 0
              || QCheck.Test.fail_reportf "level %d: got [%s], want [%s]"
                   carried
                   (String.concat " " (List.map Dirvec.to_string got))
                   (String.concat " " (List.map Dirvec.to_string want))
            | _ -> true)
          (List.init (Array.length dv + 1) Fun.id));
  ]

let suite =
  ( "depend",
    unit_tests @ List.map QCheck_alcotest.to_alcotest qcheck_tests )

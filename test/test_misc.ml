(* Assorted unit tests: direction-vector rendering, Presburger work
   budget, lexer details, and a brute-force oracle for
   [Presburger.satisfiable]. *)

open Omega
open Depend

let unit_tests =
  [
    Alcotest.test_case "dirvec entry rendering" `Quick (fun () ->
        let e sign lo hi = { Dirvec.sign; lo; hi } in
        Alcotest.(check string) "exact" "3"
          (Dirvec.entry_to_string (e Dirvec.Pos (Some 3) (Some 3)));
        Alcotest.(check string) "range" "0:1"
          (Dirvec.entry_to_string (e Dirvec.NonNeg (Some 0) (Some 1)));
        Alcotest.(check string) "plus" "+"
          (Dirvec.entry_to_string (e Dirvec.Pos (Some 1) None));
        Alcotest.(check string) "star" "*"
          (Dirvec.entry_to_string (e Dirvec.Any None None));
        Alcotest.(check string) "nonneg" "0+"
          (Dirvec.entry_to_string (e Dirvec.NonNeg None None));
        Alcotest.(check string) "vector" "(0,1,-1,0)"
          (Dirvec.to_string
             [ Dirvec.exact 0; Dirvec.exact 1; Dirvec.exact (-1); Dirvec.exact 0 ]));
    Alcotest.test_case "dirvec zero predicates" `Quick (fun () ->
        Alcotest.(check bool) "loop independent" true
          (Dirvec.is_loop_independent [ Dirvec.exact 0; Dirvec.exact 0 ]);
        Alcotest.(check bool) "not loop independent" false
          (Dirvec.is_loop_independent [ Dirvec.exact 0; Dirvec.exact 1 ]);
        Alcotest.(check bool) "allows all zero" true
          (Dirvec.allows_all_zero
             [
               Dirvec.exact 0;
               { Dirvec.sign = Dirvec.NonNeg; lo = Some 0; hi = None };
             ]);
        Alcotest.(check bool) "plus excludes zero" false
          (Dirvec.allows_all_zero
             [ { Dirvec.sign = Dirvec.Pos; lo = Some 1; hi = None } ]));
    Alcotest.test_case "presburger budget exhausts disjuncts" `Quick
      (fun () ->
        (* a conjunction of many 2-way disjunctions: 2^k disjuncts *)
        let vars = Array.init 14 (fun i -> Var.fresh (Printf.sprintf "b%d" i)) in
        let f =
          Presburger.and_
            (Array.to_list
               (Array.map
                  (fun v ->
                    Presburger.or_
                      [
                        Presburger.eq (Linexpr.var v) (Linexpr.of_int 0);
                        Presburger.eq (Linexpr.var v) (Linexpr.of_int 1);
                      ])
                  vars))
        in
        (* the enumeration is lazy: the first leaf is already satisfiable *)
        Alcotest.(check bool) "satisfiable" true (Presburger.satisfiable f);
        match Presburger.dnf f with
        | exception Budget.Exhausted Budget.Disjuncts -> ()
        | ds ->
          (* acceptable if pruning kept it under budget, but with 2^14
             satisfiable disjuncts it cannot *)
          Alcotest.fail
            (Printf.sprintf "expected Exhausted Disjuncts, got %d disjuncts"
               (List.length ds)));
    Alcotest.test_case "kill test survives a blown disjunct budget" `Quick
      (fun () ->
        (* a program whose kill test needs the general procedure with
           coefficient-2 subscripts: must terminate and stay conservative *)
        let prog =
          Lang.Sema.parse_and_analyze
            {|
symbolic n;
real a[-300:300], x[-300:300, -300:300];
for i0 := 1 to n do
  for i1 := 2 to n do
    s0: a(-2 - i1) := a(-2 + 2*i0) + 1;
    s1: a(1 - i0 + 2*i1) := a(-i1) + 1;
  endfor
endfor
|}
        in
        let result = Driver.analyze prog in
        (* no hang, and flows classified one way or the other *)
        Alcotest.(check bool) "has flows" true (result.Driver.flows <> []));
    Alcotest.test_case "lexer: comments and operators" `Quick (fun () ->
        let p =
          Lang.Parser.parse_string
            "// a comment line\nreal a[0:3];\ns: a(0) := 1; // trailing\n"
        in
        Alcotest.(check int) "one stmt" 1 (List.length p.Lang.Ast.stmts));
    Alcotest.test_case "lexer: double negation is not a comment" `Quick
      (fun () ->
        let p = Lang.Parser.parse_string "real a[0:3];\ns: a(0) := - -3;\n" in
        match p.Lang.Ast.stmts with
        | [ Lang.Ast.Assign { rhs = Lang.Ast.Neg (Lang.Ast.Neg (Lang.Ast.Int 3)); _ } ] -> ()
        | _ -> Alcotest.fail "expected Neg (Neg 3)");
    Alcotest.test_case "constraint colors combine" `Quick (fun () ->
        Alcotest.(check bool) "red wins" true
          (Constr.combine_colors Constr.Red Constr.Black = Constr.Red);
        Alcotest.(check bool) "black stays" true
          (Constr.combine_colors Constr.Black Constr.Black = Constr.Black));
    Alcotest.test_case "restraint constraints match signs" `Quick (fun () ->
        let prog = Lang.Sema.parse_and_analyze (Corpus.find "example3") in
        let ctx = Depctx.create prog in
        let w = List.hd (Lang.Ir.writes prog) in
        let a = Depctx.instantiate ctx w ~tag:Depctx.I in
        let b = Depctx.instantiate ctx w ~tag:Depctx.J in
        Alcotest.(check int) "(+,0) gives two constraints" 2
          (List.length
             (Symbolic.restraint_constraints a b [ Dirvec.Pos; Dirvec.Zero ]));
        Alcotest.(check int) "(*,*) gives none" 0
          (List.length
             (Symbolic.restraint_constraints a b [ Dirvec.Any; Dirvec.Any ])));
  ]

let fparse_tests =
  [
    Alcotest.test_case "fparse: section 3.2 formulas" `Quick (fun () ->
        let valid s = Presburger.valid (Fparse.formula_of_string s) in
        let sat s = Presburger.satisfiable (Fparse.formula_of_string s) in
        Alcotest.(check bool) "parity cover" true
          (valid
             "forall x: 0 <= x and x <= 10 => exists y: x = 2*y or x = 2*y + 1");
        Alcotest.(check bool) "evens only" false
          (valid "forall x: 0 <= x and x <= 10 => exists y: x = 2*y");
        Alcotest.(check bool) "forall-exists" true
          (valid "forall x: exists y: y >= x and y <= x");
        Alcotest.(check bool) "contradictory conj" false
          (sat "exists y: x = 2*y and x = 2*y + 1");
        Alcotest.(check bool) "free vars existential in sat" true
          (sat "x >= 3 and x <= 5");
        (* shadowing: the inner x is a different variable *)
        Alcotest.(check bool) "quantifier shadowing" true
          (valid "forall x: x <= 0 or exists x: x >= 1"));
    Alcotest.test_case "fparse: errors" `Quick (fun () ->
        (match Fparse.formula_of_string "forall : x >= 0" with
         | exception Fparse.Error _ -> ()
         | _ -> Alcotest.fail "expected an error");
        match Fparse.formula_of_string "exists y: x*y = 3" with
        | exception Fparse.Error _ -> ()
        | _ -> Alcotest.fail "expected non-linear error");
    Alcotest.test_case "fparse: problem bindings name its variables" `Quick
      (fun () ->
        let p, binds = Fparse.problem_of_string "0 <= x and x + y <= 4" in
        Alcotest.(check (list string)) "both names bound" [ "x"; "y" ]
          (List.sort compare (List.map fst binds));
        let x = List.assoc "x" binds in
        Alcotest.(check bool) "x is the problem's variable" true
          (Var.Set.mem x (Problem.vars p)));
    Alcotest.test_case "integer literal out of range is a parse error" `Quick
      (fun () ->
        let huge = "99999999999999999999999" in
        (match
           Lang.Parser.parse_string
             ("real a[0:10];\nfor i := 1 to " ^ huge
            ^ " do\n  a(i) := 1;\nendfor\n")
         with
         | exception Lang.Parser.Error (msg, pos) ->
           Alcotest.(check string) "message" "integer literal out of range" msg;
           Alcotest.(check (pair int int)) "position of the literal" (2, 15)
             (pos.Lang.Ast.line, pos.Lang.Ast.col)
         | _ -> Alcotest.fail "expected a parse error");
        (match Lang.Parser.parse_conds_string ("x >= " ^ huge) with
         | exception Lang.Parser.Error (msg, pos) ->
           Alcotest.(check string) "message" "integer literal out of range" msg;
           Alcotest.(check int) "column of the literal" 6 pos.Lang.Ast.col
         | _ -> Alcotest.fail "expected a parse error");
        match Fparse.formula_of_string ("forall x: x >= " ^ huge) with
        | exception Fparse.Error msg ->
          Alcotest.(check string) "message" "integer literal out of range" msg
        | _ -> Alcotest.fail "expected an Fparse error");
  ]

(* Random quantifier-free formulas over 2-3 variables, evaluated by brute
   force over the box -4..4. *)
let rec holds env (f : Presburger.t) =
  let lookup v = Var.Map.find v env in
  match f with
  | Presburger.True -> true
  | False -> false
  | Atom c -> Constr.eval lookup c
  | Cong (m, e) -> Zint.divisible (Linexpr.eval lookup e) m
  | Not g -> not (holds env g)
  | And gs -> List.for_all (holds env) gs
  | Or gs -> List.exists (holds env) gs
  | Exists _ | Forall _ -> invalid_arg "holds: quantified formula"

let gen_qf vars =
  let open QCheck.Gen in
  let lin =
    map2
      (fun cs c ->
        List.fold_left2
          (fun e v k -> Linexpr.add_term e (Zint.of_int k) v)
          (Linexpr.of_int c) vars cs)
      (list_repeat (List.length vars) (int_range (-3) 3))
      (int_range (-4) 4)
  in
  let atom =
    frequency
      [
        (3, map (fun e -> Presburger.Atom (Constr.geq e)) lin);
        (1, map (fun e -> Presburger.Atom (Constr.eq e)) lin);
        ( 1,
          map2
            (fun m e -> Presburger.Cong (Zint.of_int m, e))
            (int_range 2 4) lin );
      ]
  in
  let branch g = list_size (int_range 2 3) g in
  int_range 1 3
  >>= fix (fun self depth ->
          if depth = 0 then atom
          else
            let sub = self (depth - 1) in
            frequency
              [
                (2, atom);
                (1, map (fun g -> Presburger.Not g) sub);
                (2, map (fun gs -> Presburger.And gs) (branch sub));
                (2, map (fun gs -> Presburger.Or gs) (branch sub));
              ])

(* A random formula [g] with a point of the box; the property checks
   [box /\ g] against the brute force and also [g] pinned to the point,
   which is unsatisfiable about as often as not and so catches answers
   that are too optimistic. *)
let arb_qf_and_point =
  QCheck.make
    ~print:(fun (vars, g, pt) ->
      Printf.sprintf "%s at (%s)" (Presburger.to_string g)
        (String.concat ", "
           (List.map2
              (fun v k -> Printf.sprintf "%s=%d" (Var.name v) k)
              vars pt)))
    QCheck.Gen.(
      int_range 2 3 >>= fun n ->
      let vars = List.filteri (fun i _ -> i < n) (Array.to_list Oracle.pool) in
      map2 (fun g pt -> (vars, g, pt)) (gen_qf vars)
        (list_repeat n (int_range (-4) 4)))

let enumerator_props =
  [
    QCheck.Test.make ~name:"presburger satisfiable agrees with brute force"
      ~count:300 arb_qf_and_point (fun (vars, g, pt) ->
        let open Presburger in
        let box = List.map atom (Oracle.box_constraints vars (-4) 4) in
        let pins =
          List.map2 (fun v k -> eq (Linexpr.var v) (Linexpr.of_int k)) vars pt
        in
        let env =
          List.fold_left2
            (fun m v k -> Var.Map.add v (Zint.of_int k) m)
            Var.Map.empty vars pt
        in
        satisfiable (And (box @ [ g ]))
        = Seq.exists (fun env -> holds env g) (Oracle.assignments vars (-4) 4)
        && satisfiable (And (pins @ [ g ])) = holds env g);
  ]

let suite =
  ( "misc",
    unit_tests @ fparse_tests
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) enumerator_props )

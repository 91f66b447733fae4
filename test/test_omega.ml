(* Tests for the Omega test core: satisfiability, projection (real/dark
   shadows, splintering), gists, implication, Presburger decisions. *)

open Omega

let v name = Var.fresh name
let x = v "x"
let y = v "y"
let z = v "z"

let i n = Linexpr.of_int n
let vx = Linexpr.var x
let vy = Linexpr.var y
let vz = Linexpr.var z

(* c1 * var + c0 *)
let lin c1 var c0 = Linexpr.add_term (i c0) (Zint.of_int c1) var

let sat cs = Elim.satisfiable (Problem.of_list cs)

let unit_tests =
  [
    Alcotest.test_case "trivial problems" `Quick (fun () ->
        Alcotest.(check bool) "empty sat" true (sat []);
        Alcotest.(check bool) "0 >= 0" true (sat [ Constr.geq (i 0) ]);
        Alcotest.(check bool) "-1 >= 0" false (sat [ Constr.geq (i (-1)) ]);
        Alcotest.(check bool) "1 = 0" false (sat [ Constr.eq (i 1) ]));
    Alcotest.test_case "single variable intervals" `Quick (fun () ->
        (* 5x >= 6 and 5x <= 9: no integer *)
        Alcotest.(check bool) "5x in [6,9]" false
          (sat [ Constr.ge (lin 5 x 0) (i 6); Constr.le (lin 5 x 0) (i 9) ]);
        (* 5x >= 6 and 5x <= 10: x = 2 *)
        Alcotest.(check bool) "5x in [6,10]" true
          (sat [ Constr.ge (lin 5 x 0) (i 6); Constr.le (lin 5 x 0) (i 10) ]));
    Alcotest.test_case "equality elimination with gcd" `Quick (fun () ->
        (* 2x + 4y = 5 has no integer solutions *)
        Alcotest.(check bool) "2x+4y=5" false
          (sat [ Constr.eq2 (Linexpr.add (lin 2 x 0) (lin 4 y 0)) (i 5) ]);
        (* 2x + 3y = 5 does *)
        Alcotest.(check bool) "2x+3y=5" true
          (sat [ Constr.eq2 (Linexpr.add (lin 2 x 0) (lin 3 y 0)) (i 5) ]));
    Alcotest.test_case "mod-hat elimination (non-unit equality)" `Quick
      (fun () ->
        (* 7x + 12y = 1, 0 <= x <= 100, 0 <= y: solvable? 7*7+12*(-4)=1;
           force positivity: 7x + 12y = 1 with x,y >= 0 has no small...
           7x = 1 - 12y; y=0 -> 7x=1 no; need x = 7+12k, y = -4-7k <= ...
           y >= 0 requires k <= -1 -> x = 7-12 < 0.  So unsat. *)
        Alcotest.(check bool) "7x+12y=1, x,y>=0" false
          (sat
             [
               Constr.eq2 (Linexpr.add (lin 7 x 0) (lin 12 y 0)) (i 1);
               Constr.ge vx (i 0);
               Constr.ge vy (i 0);
             ]);
        Alcotest.(check bool) "7x+12y=1 free" true
          (sat [ Constr.eq2 (Linexpr.add (lin 7 x 0) (lin 12 y 0)) (i 1) ]));
    Alcotest.test_case "paper projection example" `Quick (fun () ->
        (* projecting {0 <= a <= 5; b < a <= 5b} onto a gives {2 <= a <= 5} *)
        let p =
          Problem.of_list
            [
              Constr.ge vx (i 0);
              Constr.le vx (i 5);
              Constr.lt vy vx;
              Constr.le vx (lin 5 y 0);
            ]
        in
        let keep u = Var.equal u x in
        let pieces = Elim.project ~keep p in
        (* membership for a = 0..6 must be exactly {2,3,4,5} *)
        for a = 0 to 6 do
          let member =
            List.exists
              (fun q ->
                Oracle.holds_at (Var.Map.singleton x (Zint.of_int a)) q)
              pieces
          in
          Alcotest.(check bool)
            (Printf.sprintf "a=%d" a)
            (a >= 2 && a <= 5) member
        done);
    Alcotest.test_case "projection produces congruences" `Quick (fun () ->
        (* project {x = 2y} onto x: x must be even *)
        let p = Problem.of_list [ Constr.eq2 vx (lin 2 y 0) ] in
        let keep u = Var.equal u x in
        let pieces = Elim.project ~keep p in
        List.iter
          (fun a ->
            let member =
              List.exists
                (fun q ->
                  Oracle.holds_at (Var.Map.singleton x (Zint.of_int a)) q)
                pieces
            in
            Alcotest.(check bool)
              (Printf.sprintf "x=%d" a)
              (a mod 2 = 0) member)
          [ -3; -2; -1; 0; 1; 2; 3; 4 ]);
    Alcotest.test_case "dark shadow misses, splinter catches" `Quick
      (fun () ->
        (* 2y <= x, x <= 2y + 1, 3 <= x <= 3: x=3 needs y=1 (2<=3<=3). *)
        Alcotest.(check bool) "splinter case sat" true
          (sat
             [
               Constr.le (lin 2 y 0) vx;
               Constr.le vx (lin 2 y 1);
               Constr.eq2 vx (i 3);
             ]);
        (* Classic: 2 <= 3y - 2x and 3y - 2x <= 3 and ... craft unsat via
           parity: x = 2y and x = 2z + 1 *)
        Alcotest.(check bool) "parity conflict" false
          (sat [ Constr.eq2 vx (lin 2 y 0); Constr.eq2 vx (lin 2 z 1) ]));
    Alcotest.test_case "implies" `Quick (fun () ->
        let p =
          Problem.of_list [ Constr.ge vx (i 2); Constr.le vx (i 5) ]
        in
        let q1 = Problem.of_list [ Constr.ge vx (i 0) ] in
        let q2 = Problem.of_list [ Constr.ge vx (i 3) ] in
        Alcotest.(check bool) "2<=x<=5 => x>=0" true (Gist.implies p q1);
        Alcotest.(check bool) "2<=x<=5 => x>=3" false (Gist.implies p q2));
    Alcotest.test_case "gist basics" `Quick (fun () ->
        (* gist {x >= 0 && x <= 5} given {x >= 3} = {x <= 5} *)
        let p = Problem.of_list [ Constr.ge vx (i 0); Constr.le vx (i 5) ] in
        let q = Problem.of_list [ Constr.ge vx (i 3) ] in
        (match Gist.gist p ~given:q with
         | Gist.Gist g ->
           Alcotest.(check int) "one constraint" 1
             (List.length (Problem.constraints g));
           (* the surviving constraint is x <= 5 *)
           let c = List.hd (Problem.constraints g) in
           Alcotest.(check bool) "is x<=5" true
             (Constr.equal c
                (match Constr.normalize (Constr.le vx (i 5)) with
                 | Constr.Ok c -> c
                 | _ -> assert false))
         | Gist.Tautology -> Alcotest.fail "expected a gist, got tautology"
         | Gist.False -> Alcotest.fail "expected a gist, got false");
        (* gist of implied constraints is True *)
        (match
           Gist.gist
             (Problem.of_list [ Constr.ge vx (i 1) ])
             ~given:(Problem.of_list [ Constr.ge vx (i 4) ])
         with
         | Gist.Tautology -> ()
         | _ -> Alcotest.fail "expected tautology"));
    Alcotest.test_case "paper kill example as implication" `Quick (fun () ->
        (* Example 1: k = n  =>  n <= k <= n+10 *)
        let n = v "n" in
        let k = v "k" in
        let vk = Linexpr.var k and vn = Linexpr.var n in
        let p = Problem.of_list [ Constr.eq2 vk vn ] in
        let q =
          Problem.of_list
            [ Constr.ge vk vn; Constr.le vk (Linexpr.add_const vn (Zint.of_int 10)) ]
        in
        Alcotest.(check bool) "kill verified" true (Gist.implies p q);
        (* with k = m instead, and n <= k <= n+20, the kill fails *)
        let m = v "m" in
        let p' =
          Problem.of_list
            [
              Constr.eq2 vk (Linexpr.var m);
              Constr.ge vk vn;
              Constr.le vk (Linexpr.add_const vn (Zint.of_int 20));
            ]
        in
        Alcotest.(check bool) "kill not verified" false (Gist.implies p' q);
        (* asserting n <= m <= n+10 restores it *)
        let p'' =
          Problem.add_list
            [
              Constr.ge (Linexpr.var m) vn;
              Constr.le (Linexpr.var m) (Linexpr.add_const vn (Zint.of_int 10));
            ]
            p'
        in
        Alcotest.(check bool) "kill with assertion" true (Gist.implies p'' q));
    Alcotest.test_case "minimize/maximize" `Quick (fun () ->
        let p =
          Problem.of_list
            [
              Constr.ge (lin 2 x 0) (i 3) (* x >= 1.5 -> x >= 2 *);
              Constr.le vx (i 9);
            ]
        in
        (match Omega.minimize p x with
         | `Min m -> Alcotest.(check int) "min" 2 (Zint.to_int m)
         | _ -> Alcotest.fail "expected min");
        (match Omega.maximize p x with
         | `Max m -> Alcotest.(check int) "max" 9 (Zint.to_int m)
         | _ -> Alcotest.fail "expected max");
        (match
           Omega.minimize (Problem.of_list [ Constr.le vx (i 9) ]) x
         with
         | `Unbounded -> ()
         | _ -> Alcotest.fail "expected unbounded");
        (match Omega.minimize (Problem.of_list [ Constr.eq (i 1) ]) x with
         | `Unsat -> ()
         | _ -> Alcotest.fail "expected unsat"));
    Alcotest.test_case "minimize with congruence" `Quick (fun () ->
        (* x = 3y, x >= 4: minimum is 6 *)
        let p =
          Problem.of_list [ Constr.eq2 vx (lin 3 y 0); Constr.ge vx (i 4) ]
        in
        match Omega.minimize p x with
        | `Min m -> Alcotest.(check int) "min" 6 (Zint.to_int m)
        | _ -> Alcotest.fail "expected min");
    Alcotest.test_case "bounds: one projection, both sides" `Quick (fun () ->
        let range = function
          | `Unsat -> "unsat"
          | `Range (l, h) ->
            let side = function None -> "inf" | Some z -> Zint.to_string z in
            Printf.sprintf "[%s, %s]" (side l) (side h)
        in
        let bounds cs = range (Omega.bounds (Problem.of_list cs) x) in
        let cong a r g =
          (* a*x + r = g*w *)
          Constr.eq
            (Linexpr.add_term (lin a x r) (Zint.of_int (-g))
               (Var.fresh_wild ()))
        in
        (* x = 3y, 4 <= x <= 20 *)
        Alcotest.(check string) "congruence, both ends" "[6, 18]"
          (bounds
             [ Constr.eq2 vx (lin 3 y 0); Constr.ge vx (i 4); Constr.le vx (i 20) ]);
        Alcotest.(check string) "unbounded above" "[6, inf]"
          (bounds [ Constr.eq2 vx (lin 3 y 0); Constr.ge vx (i 4) ]);
        Alcotest.(check string) "unbounded below" "[inf, 3]"
          (bounds [ cong 1 0 3; Constr.le vx (i 5) ]);
        (* x even and x = 1 (mod 4): no solution, though no side bounds x *)
        Alcotest.(check string) "conflicting congruences" "unsat"
          (bounds [ cong 1 0 2; cong 1 (-1) 4 ]);
        Alcotest.(check string) "conflicting congruences, one side" "unsat"
          (bounds [ cong 1 0 2; cong 1 (-1) 4; Constr.le vx (i 5) ]);
        Alcotest.(check string) "free" "[inf, inf]" (bounds [ cong 1 0 2 ]));
    Alcotest.test_case "presburger: forall-exists" `Quick (fun () ->
        let open Presburger in
        (* forall x, 0 <= x <= 10 => exists y. x = 2y or x = 2y+1 *)
        let f =
          forall [ x ]
            (implies_
               (and_ [ ge vx (i 0); le vx (i 10) ])
               (exists [ y ] (or_ [ eq vx (lin 2 y 0); eq vx (lin 2 y 1) ])))
        in
        Alcotest.(check bool) "parity cover" true (valid f);
        (* forall x, 0 <= x <= 10 => exists y. x = 2y : false *)
        let g =
          forall [ x ]
            (implies_
               (and_ [ ge vx (i 0); le vx (i 10) ])
               (exists [ y ] (eq vx (lin 2 y 0))))
        in
        Alcotest.(check bool) "evens only" false (valid g));
    Alcotest.test_case "presburger: congruence negation" `Quick (fun () ->
        let open Presburger in
        (* not (2 | x) and not (2 | x + 1) is unsatisfiable *)
        let f =
          and_
            [
              not_ (cong Zint.two vx);
              not_ (cong Zint.two (Linexpr.add_const vx Zint.one));
            ]
        in
        Alcotest.(check bool) "both parities excluded" false (satisfiable f));
    Alcotest.test_case "presburger: the stall hook runs once, at the stall point"
      `Quick (fun () ->
        let open Presburger in
        (* nine two-way choices, then a contradiction every leaf meets:
           1022 alternatives entered, no satisfiable leaf *)
        let f =
          and_
            (List.init 9 (fun k ->
                 let w = Linexpr.var (Var.fresh (Printf.sprintf "w%d" k)) in
                 or_ [ ge w (i 0); le w (i (-1)) ])
            @ [ ge vx (i 1); le vx (i 0) ])
        in
        let calls = ref 0 in
        let witness answer () =
          incr calls;
          answer
        in
        let run ~disjuncts answer =
          calls := 0;
          Budget.with_limits { Budget.default with Budget.disjuncts }
            (fun () ->
              match satisfiable ~witness:(witness answer) f with
              | sat -> Some sat
              | exception Budget.Exhausted Budget.Disjuncts -> None)
        in
        Alcotest.(check (option bool)) "no hook: unsatisfiable" (Some false)
          (run ~disjuncts:2048 false);
        Alcotest.(check int) "asked once" 1 !calls;
        Alcotest.(check (option bool)) "a witness ends it" (Some true)
          (run ~disjuncts:2048 true);
        Alcotest.(check int) "asked once, then stopped" 1 !calls;
        Alcotest.(check (option bool)) "at a limit of the stall point, it runs"
          (Some true) (run ~disjuncts:stall_point true);
        Alcotest.(check (option bool)) "below it the limit comes first" None
          (run ~disjuncts:(stall_point - 1) true);
        Alcotest.(check int) "never asked" 0 !calls;
        Alcotest.(check int) "the stall point" 64 stall_point);
    Alcotest.test_case "corner: each variable in turn at an end" `Quick
      (fun () ->
        let corner side cs =
          match Omega.corner side (Problem.of_list cs) with
          | None -> "none"
          | Some pt ->
            String.concat ","
              (List.map
                 (fun (v, n) -> Var.name v ^ "=" ^ Zint.to_string n)
                 pt)
        in
        (* x before y: y's range depends on the x already fixed *)
        let box =
          [
            Constr.ge vx (i 1); Constr.le vx (i 5); Constr.ge vy vx;
            Constr.le vy (lin 2 x 0);
          ]
        in
        Alcotest.(check string) "low" "x=1,y=1" (corner `Low box);
        Alcotest.(check string) "high" "x=5,y=10" (corner `High box);
        (* an unbounded side takes the other end *)
        Alcotest.(check string) "high, unbounded above" "x=3"
          (corner `High [ Constr.ge (lin 2 x 0) (i 5) ]);
        Alcotest.(check string) "free" "none" (corner `Low [ Constr.ge vx vy ]);
        Alcotest.(check string) "empty" "none"
          (corner `Low [ Constr.eq2 (lin 2 x 0) (i 3) ]));
  ]

(* -------------------------------------------------------------------- *)
(* Property tests against the brute-force oracle                         *)
(* -------------------------------------------------------------------- *)

(* Brute force for [Omega.bounds] on problems where the bounded
   variable [bx] may lack either box side, so its range can be infinite,
   and may sit in a congruence.  Every other variable is boxed to
   [lo..hi]; for each assignment of them, the constraints leave [bx] an
   interval (pinned by equalities, either end possibly infinite) cut by
   congruences [a*bx + r = 0 (mod g)], whose solutions repeat with
   period lcm(g).  Scanning one period from a finite end finds that
   end's extreme value or proves the set empty; with both ends infinite
   one period from 0 decides emptiness.  The union over the assignments
   is the answer. *)
let bx = Oracle.pool.(0)

let gen_bounds_problem =
  QCheck.Gen.(
    let lo = -4 and hi = 4 in
    let* nvars = int_range 2 3 in
    let* cs =
      list_size (int_range 1 3)
        (Oracle.gen_constr ~nvars ~max_coeff:3 ~max_const:8)
    in
    (* sometimes only the congruences and box sides mention bx *)
    let* free = bool in
    let cs =
      if free then
        List.map
          (fun c ->
            let e = Linexpr.set_coeff (Constr.expr c) bx Zint.zero in
            if Constr.kind c = Constr.Eq then Constr.eq e else Constr.geq e)
          cs
      else cs
    in
    let* keep_lo = bool and* keep_hi = bool in
    let* cong = int_range 0 3 in
    let* a = int_range (-3) 3 and* b = int_range (-3) 3 in
    let* r = int_range (-5) 5 and* g = int_range 2 5 in
    let* a2 = int_range 1 3 and* r2 = int_range (-5) 5 in
    let* g2 = int_range 2 4 in
    let others = Array.to_list (Array.sub Oracle.pool 1 (nvars - 1)) in
    let vb = Linexpr.var bx in
    let box =
      (if keep_lo then [ Constr.ge vb (Linexpr.of_int (lo - 3)) ] else [])
      @ if keep_hi then [ Constr.le vb (Linexpr.of_int (hi + 3)) ] else []
    in
    (* a*bx + b*y + r = g*w: a congruence through a wildcard; a second
       one on bx alone may contradict it *)
    let congruence a b r g =
      Constr.eq
        (Linexpr.add_term
           (Linexpr.add_term
              (Linexpr.add_term (Linexpr.of_int r) (Zint.of_int a) bx)
              (Zint.of_int b) Oracle.pool.(1))
           (Zint.of_int (-g)) (Var.fresh_wild ()))
    in
    let congruences =
      (if cong >= 1 then [ congruence a b r g ] else [])
      @ if cong >= 2 then [ congruence a2 0 r2 g2 ] else []
    in
    return
      ( Problem.of_list
          (cs @ box @ congruences @ Oracle.box_constraints others lo hi),
        others,
        lo,
        hi ))

let arb_bounds_problem =
  QCheck.make ~print:(fun (p, _, _, _) -> Problem.to_string p)
    gen_bounds_problem

let brute_bounds p others lo hi =
  (* the range of [bx] in the slice at one assignment of [others] *)
  let slice env =
    let lower = ref None and upper = ref None and empty = ref false in
    let congs = ref [] in
    let tighten r pick z =
      r := Some (match !r with None -> z | Some w -> pick w z)
    in
    List.iter
      (fun c ->
        let e = Constr.expr c in
        let a = Linexpr.coeff e bx in
        let wild_gcd = ref Zint.zero in
        let rest =
          Linexpr.fold_terms
            (fun v cv acc ->
              if Var.is_wild v then begin
                wild_gcd := Zint.gcd !wild_gcd cv;
                acc
              end
              else if Var.equal v bx then acc
              else Zint.add acc (Zint.mul cv (Var.Map.find v env)))
            e (Linexpr.constant e)
        in
        match Constr.kind c with
        | _ when not (Zint.is_zero !wild_gcd) ->
          congs := (a, rest, !wild_gcd) :: !congs
        | Constr.Eq when Zint.is_zero a ->
          if not (Zint.is_zero rest) then empty := true
        | Constr.Eq ->
          if Zint.divisible rest a then begin
            let z = Zint.neg (Zint.divexact rest a) in
            tighten lower Zint.max z;
            tighten upper Zint.min z
          end
          else empty := true
        | Constr.Geq when Zint.is_zero a ->
          if Zint.sign rest < 0 then empty := true
        | Constr.Geq when Zint.sign a > 0 ->
          tighten lower Zint.max (Zint.cdiv (Zint.neg rest) a)
        | Constr.Geq -> tighten upper Zint.min (Zint.fdiv rest (Zint.neg a)))
      (Problem.constraints p);
    let ok z =
      List.for_all
        (fun (a, rest, g) -> Zint.divisible (Zint.add (Zint.mul a z) rest) g)
        !congs
    in
    let period =
      Zint.to_int
        (List.fold_left (fun m (_, _, g) -> Zint.lcm m g) Zint.one !congs)
    in
    let within z =
      (match !lower with Some l -> Zint.(z >= l) | None -> true)
      && match !upper with Some u -> Zint.(z <= u) | None -> true
    in
    let first start step =
      List.find_opt
        (fun z -> within z && ok z)
        (List.init period (fun k -> step start k))
    in
    let up s k = Zint.add s (Zint.of_int k) in
    let down s k = Zint.sub s (Zint.of_int k) in
    if !empty then None
    else
      match !lower, !upper with
      | Some l, _ ->
        Option.map
          (fun m -> (Some m, Option.bind !upper (fun u -> first u down)))
          (first l up)
      | None, Some u -> Option.map (fun m -> (None, Some m)) (first u down)
      | None, None -> Option.map (fun _ -> (None, None)) (first Zint.zero up)
  in
  match
    List.of_seq (Seq.filter_map slice (Oracle.assignments others lo hi))
  with
  | [] -> `Unsat
  | (l, h) :: rest ->
    let join pick a b =
      match a, b with Some a, Some b -> Some (pick a b) | _ -> None
    in
    `Range
      (List.fold_left
         (fun (l, h) (l', h') -> (join Zint.min l l', join Zint.max h h'))
         (l, h) rest)

(* Problems that exercise every branch of [Problem.simplify]: a few
   shared directions (so constraints meet parallel, opposite and scaled
   copies of each other), duplicates in both colors, touching and
   crossing opposite bounds, equalities that agree or clash, unit
   single-variable bounds (the interval screen's box), and sizes up to
   18 constraints, marked grown or not, with or without red ones. *)
let gen_simplify_case =
  QCheck.Gen.(
    let nvars = 3 in
    let* dirs =
      list_size (int_range 1 4)
        (Oracle.gen_linexpr ~nvars ~max_coeff:3 ~max_const:0)
    in
    let units = List.init nvars (fun k -> Linexpr.var Oracle.pool.(k)) in
    let dirs = Array.of_list (dirs @ units) in
    let* allow_red = bool in
    let color =
      if allow_red then
        map (fun r -> if r then Constr.Red else Constr.Black) bool
      else return Constr.Black
    in
    let one =
      let* d = oneofa dirs in
      let* scale = oneofl [ 1; 1; 1; -1; -1; 2; -2; 3 ] in
      let* k = int_range (-3) 8 in
      let* kind = int_range 0 7 and* col = color in
      let e = Linexpr.add_const (Linexpr.scale_int scale d) (Zint.of_int k) in
      return
        [
          (if kind = 0 then Constr.eq ~color:col e
           else Constr.geq ~color:col e);
        ]
    in
    (* e + k >= 0 with -e - k + t >= 0: touching at t = 0, crossing below *)
    let pair =
      let* d = oneofa dirs in
      let* k = int_range (-4) 4 and* t = oneofl [ -1; 0; 0; 1; 2; 3 ] in
      let* c1 = color and* c2 = color in
      let e = Linexpr.add_const d (Zint.of_int k) in
      return
        [
          Constr.geq ~color:c1 e;
          Constr.geq ~color:c2
            (Linexpr.add_const (Linexpr.neg e) (Zint.of_int t));
        ]
    in
    let dup =
      let* c = one in
      let* col = color in
      let recolor c = Constr.make ~color:col (Constr.kind c) (Constr.expr c) in
      return (c @ List.map recolor c)
    in
    let* groups =
      list_size (int_range 1 9) (frequency [ (5, one); (2, pair); (1, dup) ])
    in
    let* grown = frequency [ (3, return true); (1, return false) ] in
    return (Problem.of_list (List.concat groups), grown))

let arb_simplify_case =
  QCheck.make
    ~print:(fun (p, grown) ->
      Printf.sprintf "%s (grown %b)" (Problem.to_string p) grown)
    gen_simplify_case

let same_constr a b =
  Constr.kind a = Constr.kind b
  && Constr.color a = Constr.color b
  && Linexpr.compare (Constr.expr a) (Constr.expr b) = 0

(* The solver's counters pinned over a seeded population of 300
   problems from this file's generators: 100 harder boxed problems
   (coefficients to 5), 100 wider ones (four variables, up to six
   constraints on a box of 13, where Fourier-Motzkin grows the system
   and the interval screen prunes) and 100 bounds problems with
   wildcard congruences.  Each row reads
   [sat: fm/split/pruned/peak-fuel | project: pieces fm/split/pruned/peak-fuel]
   for [Elim.satisfiable] and for [Elim.project] keeping the first pool
   variable, each run as one governed query from a zero counter record.
   The kernel's variable, substitution and constraint-order choices
   decide every count, so a rewrite that keeps its decisions leaves
   every row as it is. *)
let counter_population () =
  let st = Random.State.make [| 34 |] in
  let draw gen n =
    List.init n (fun _ ->
        let p, _, _, _ = gen st in
        p)
  in
  draw (Oracle.gen_problem ~nvars:3 ~ncons:4 ~max_coeff:5 ~max_const:12 ()) 100
  @ draw (Oracle.gen_problem ~nvars:4 ~ncons:6 ~lo:(-6) ~hi:6 ()) 100
  @ draw gen_bounds_problem 100

let counter_row p =
  let one f =
    let saved = Metrics.exchange (Metrics.make ()) in
    let r = Budget.run f in
    let m = Metrics.exchange saved in
    Printf.sprintf "%s %d/%d/%d/%d"
      (match r with
       | Ok s -> s
       | Error r -> "gave-up-" ^ Budget.reason_to_string r)
      m.Metrics.fm_eliminations m.fm_split m.pruned_interval m.peak_fuel
  in
  let keep u = Var.equal u Oracle.pool.(0) in
  one (fun () -> string_of_bool (Elim.satisfiable p))
  ^ " | "
  ^ one (fun () -> string_of_int (List.length (Elim.project ~keep p)))

let expected_counter_rows =
  [
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/0/0/8 | 1 2/0/0/6";
    "false 1/1/0/7 | 0 1/1/0/62"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 2/0/0/8 | 4 1/1/0/18"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/3 | 0 0/0/0/3"; "true 3/0/0/8 | 3 2/1/0/14";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 2/0/0/8 | 22 1/1/0/73";
    "true 3/1/0/8 | 5 2/1/0/22"; "true 2/0/0/8 | 5 1/1/0/22";
    "false 1/1/0/8 | 0 1/1/0/90"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 2/0/0/7 | 3 1/1/0/13";
    "true 3/0/0/8 | 1 2/0/0/6"; "false 9/6/0/363 | 0 4/4/0/39";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 2/0/0/8 | 1 1/0/0/6";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/1/1/8 | 6 4/4/0/28";
    "true 2/0/0/7 | 1 1/0/0/6"; "true 2/1/0/7 | 8 1/1/0/33";
    "true 3/0/0/8 | 1 2/0/0/6"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 2/1/0/8 | 5 1/1/0/18"; "true 2/0/0/7 | 1 1/0/0/5";
    "true 3/0/0/8 | 3 2/1/0/14"; "true 2/0/0/8 | 1 1/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/6 | 0 0/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 3/0/0/8 | 2 2/1/0/10";
    "true 3/0/0/8 | 1 2/0/0/6"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 1/1/0/8 | 12 1/1/0/52"; "true 2/1/0/7 | 10 1/1/0/39";
    "true 2/0/0/7 | 7 1/1/0/30"; "true 2/0/0/8 | 6 1/1/0/24";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 0/0/0/8 | 1 0/0/0/5";
    "true 3/1/0/8 | 3 2/1/0/20"; "true 3/1/0/8 | 3 2/1/0/14";
    "true 0/0/0/6 | 1 0/0/0/5"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 2/0/0/7 | 5 1/1/0/34"; "true 3/1/0/8 | 38 6/6/1/206";
    "true 2/1/0/7 | 16 1/1/0/68"; "true 2/1/0/54 | 9 1/1/0/42";
    "true 2/0/0/7 | 1 1/0/0/5"; "true 2/0/0/7 | 1 1/0/0/5";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 2/0/0/7 | 1 2/1/0/15"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 1/1/0/6 | 3 1/1/0/51"; "true 3/0/0/8 | 1 2/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 3 2/1/0/14"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 4 2/1/0/18"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 2/0/0/8 | 4 1/1/0/15";
    "true 3/0/0/8 | 4 2/1/0/18"; "false 2/1/0/8 | 0 5/5/0/306";
    "false 0/0/0/4 | 0 0/0/0/3"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 2/0/0/7 | 7 1/1/0/29";
    "false 0/0/0/4 | 0 0/0/0/4"; "true 3/0/0/8 | 7 2/1/0/30";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 2/0/0/8 | 4 1/1/0/18"; "false 0/0/0/3 | 0 0/0/0/3";
    "true 3/1/0/98 | 28 4/4/0/302"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 2 2/1/0/10"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 3/0/0/8 | 1 2/0/0/6"; "false 1/1/4/6 | 0 3/3/3/44";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/2/1/8 | 10 3/3/1/77";
    "true 2/0/0/8 | 1 1/0/0/6"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/1/0/8 | 5 4/3/1/32";
    "true 1/0/0/6 | 9 1/1/0/38"; "true 2/0/0/8 | 1 1/0/0/6";
    "true 3/0/1/8 | 17 5/5/0/85"; "false 1/0/0/6 | 0 1/1/0/21";
    "true 1/1/0/6 | 3 1/1/0/16"; "true 3/1/0/8 | 7 4/2/0/36";
    "false 3/1/4/10 | 0 79/78/35/10844"; "true 4/0/0/10 | 6 5/4/0/53";
    "true 4/0/0/10 | 133 9/8/9/837"; "true 4/0/0/10 | 1 3/0/0/8";
    "false 0/0/0/4 | 0 0/0/0/4"; "true 1/0/0/8 | 9 1/1/0/73";
    "true 3/0/0/9 | 1 2/0/0/7"; "true 3/1/0/9 | 36 8/7/2/169";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 3/2/0/9 | 58 9/8/1/322";
    "true 3/1/0/9 | 2 2/1/0/35"; "true 3/0/1/9 | 1 2/0/1/7";
    "true 3/0/0/9 | 2 2/1/0/11"; "true 4/2/9/10 | 192 13/12/3/1566";
    "true 4/1/0/10 | 27 6/5/2/133"; "true 1/1/0/8 | 1 1/1/0/25";
    "true 4/0/0/10 | 1 3/0/1/8"; "false 1/1/0/8 | 0 1/1/0/30";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 3/0/0/10 | 1 2/0/2/8";
    "true 4/2/9/10 | 918 20/19/9/5648"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 3/2/0/9 | 83 4/4/0/414"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 3/0/0/9 | 1 2/0/1/7";
    "true 4/1/4/10 | 3 3/1/4/58"; "true 4/0/0/10 | 1 3/1/1/11";
    "true 3/1/0/9 | 7 3/2/5/51"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 3/0/0/9 | 1 2/0/0/7"; "true 4/0/0/10 | 1 3/0/0/8";
    "false 2/1/0/9 | 0 2/1/0/128"; "true 4/0/0/10 | 1 3/1/0/14";
    "true 3/0/0/9 | 4 2/1/0/34"; "true 2/0/0/10 | 1 1/1/0/11";
    "true 3/0/0/10 | 3 2/1/0/14"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/4 | 0 0/0/0/4"; "false 1/1/0/8 | 0 1/1/0/46";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 4/3/6/10 | 27 9/8/8/253";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 3/0/0/9 | 1 2/0/0/7";
    "true 4/0/1/10 | 7 3/1/0/32"; "true 3/0/4/9 | 15 3/3/3/68";
    "true 3/2/0/9 | 1 2/1/0/17"; "true 3/1/1/9 | 10 2/1/1/49";
    "true 3/1/0/9 | 3 2/1/0/15"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 4/0/1/10 | 2 3/1/1/12"; "true 3/1/0/9 | 3 2/1/0/22";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 1/0/0/9 | 10 1/1/0/40";
    "true 3/0/0/9 | 2 2/1/1/11"; "true 4/1/0/10 | 2 3/1/0/18";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 3/1/11/9 | 10 8/6/11/267";
    "true 2/0/0/8 | 2 1/1/0/10"; "false 0/0/0/9 | 0 0/0/0/5";
    "false 1/1/0/8 | 0 1/1/0/54"; "true 4/3/3/10 | 87 16/15/12/1012";
    "false 2/1/0/8 | 0 2/1/4/10"; "false 3/3/12/14 | 0 2/2/2/96";
    "true 3/1/0/9 | 3 2/1/0/15"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 4/0/0/10 | 1 3/0/0/8"; "false 2/1/2/10 | 0 7/6/6/184";
    "true 3/1/1/9 | 3 2/1/1/18"; "true 3/0/0/9 | 4 2/1/0/25";
    "true 4/1/4/10 | 1 3/1/4/29"; "false 3/1/2/10 | 0 3/1/2/68";
    "true 4/3/2/10 | 3 7/7/2/139"; "true 3/0/0/9 | 1 2/0/0/7";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 4/1/0/10 | 3 3/1/0/16"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 4/1/0/10 | 2 3/1/0/12"; "true 3/0/4/9 | 1 2/0/4/7";
    "true 4/0/0/10 | 2 4/2/2/17"; "true 4/0/0/10 | 2 3/1/0/18";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 3/1/6/12 | 0 17/17/1/2219";
    "false 0/0/0/3 | 0 0/0/0/5"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 0/0/0/7 | 1 0/0/0/8"; "true 4/0/0/10 | 1 3/0/0/8";
    "false 0/0/0/3 | 0 0/0/0/3"; "true 3/0/0/9 | 18 11/11/2/568";
    "false 1/1/0/9 | 0 1/1/0/114"; "true 3/0/0/9 | 28 5/5/0/121";
    "true 3/0/4/10 | 7 2/1/0/26"; "true 1/0/0/8 | 2 1/1/0/61";
    "true 1/1/0/8 | 9 1/1/0/61"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 4/0/0/10 | 1 3/0/0/8"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 4/0/0/10 | 1 3/0/0/8"; "true 4/0/0/10 | 1 3/0/0/8";
    "true 2/1/0/7 | 13 1/1/0/41"; "true 3/0/0/8 | 1 2/0/0/6";
    "true 2/1/0/10 | 8 1/1/0/29"; "false 1/1/0/10 | 0 1/1/0/18";
    "true 2/0/0/7 | 2 2/1/0/17"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 2/0/0/7 | 4 1/1/0/13";
    "true 2/0/0/7 | 2 1/1/0/7"; "true 3/0/0/10 | 5 2/1/0/21";
    "true 2/0/0/8 | 1 2/0/0/8"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/1/0/9 | 4 2/1/0/13"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 1/1/0/7 | 5 1/1/0/39"; "true 2/1/0/7 | 5 1/1/0/15";
    "true 1/1/0/8 | 3 1/1/0/13"; "true 1/0/0/6 | 1 0/0/0/4";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 2/1/0/9 | 5 1/1/0/18";
    "false 0/0/0/3 | 0 0/0/0/3"; "true 2/1/0/7 | 3 2/1/0/11";
    "true 3/1/0/12 | 5 2/1/0/16"; "true 0/0/0/3 | 1 0/0/0/3";
    "true 0/0/0/7 | 1 0/0/0/4"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/0/0/10 | 3 2/1/0/12"; "true 1/0/0/9 | 1 0/0/0/7";
    "true 1/0/0/8 | 1 0/0/0/4"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 3/0/0/8 | 2 2/1/1/10";
    "false 0/0/0/3 | 0 0/0/0/3"; "true 1/0/0/8 | 1 1/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/0/0/10 | 1 2/0/0/8"; "false 0/0/0/3 | 0 0/0/0/3";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 0/0/0/6 | 1 0/0/0/6";
    "true 2/0/0/6 | 1 1/0/0/4"; "true 3/0/0/8 | 1 2/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 3/1/0/10 | 5 2/1/0/15";
    "false 0/0/0/4 | 0 0/0/0/3"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/0/0/8 | 1 2/0/0/6"; "true 3/0/0/12 | 1 2/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 2/0/0/10 | 3 1/1/0/10";
    "true 2/0/0/7 | 1 1/0/0/5"; "true 2/0/0/7 | 2 1/1/0/8";
    "true 3/0/0/10 | 3 2/1/0/14"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 2/0/0/7 | 1 1/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 3/0/0/10 | 2 2/1/0/10";
    "true 2/0/0/7 | 2 1/1/0/9"; "true 2/0/0/7 | 13 1/1/0/42";
    "false 0/0/0/2 | 0 0/0/0/2"; "true 0/0/0/4 | 1 0/0/0/4";
    "true 2/0/0/8 | 1 2/0/0/7"; "true 3/0/0/8 | 1 2/0/0/6";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 2/0/0/7 | 3 1/1/0/9"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/1/0/10 | 2 2/1/0/9"; "true 2/0/0/8 | 3 1/1/0/10";
    "false 0/0/0/5 | 0 0/0/0/5"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/4 | 0 0/0/0/4"; "true 2/0/0/12 | 1 1/0/0/8";
    "true 2/0/0/7 | 1 1/0/0/5"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/3 | 3 2/1/0/14"; "true 3/0/0/11 | 1 2/0/0/7";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 3/0/0/9 | 1 2/0/0/7"; "true 3/0/0/10 | 2 2/1/0/11";
    "true 2/0/0/6 | 1 1/0/0/4"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/4 | 0 0/0/0/4";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 0/0/0/2 | 0 0/0/0/2";
    "true 2/0/0/7 | 5 2/1/0/17"; "true 1/0/0/8 | 2 1/1/0/14";
    "false 0/0/0/2 | 0 0/0/0/2"; "false 1/0/0/8 | 1 1/0/0/5";
  ]

let test_counters_pinned () =
  let got = List.map counter_row (counter_population ()) in
  Alcotest.(check (list string))
    "sat | project counters per seeded problem" expected_counter_rows got

let prop_tests =
  [
    QCheck.Test.make ~name:"satisfiable matches brute force" ~count:300
      (Oracle.arb_problem ())
      (fun (p, vars, lo, hi) ->
        Elim.satisfiable p = Oracle.exists_solution vars lo hi p);
    QCheck.Test.make ~name:"satisfiable matches brute force (harder)"
      ~count:150
      (Oracle.arb_problem ~nvars:3 ~ncons:4 ~max_coeff:5 ~max_const:12 ())
      (fun (p, vars, lo, hi) ->
        Elim.satisfiable p = Oracle.exists_solution vars lo hi p);
    QCheck.Test.make ~name:"exact projection = brute-force projection"
      ~count:200
      (Oracle.arb_problem ~nvars:3 ())
      (fun (p, vars, lo, hi) ->
        match vars with
        | vx :: rest ->
          let keep u = Var.equal u vx in
          let pieces = Elim.project ~keep p in
          let ok = ref true in
          for a = lo to hi do
            let env = Var.Map.singleton vx (Zint.of_int a) in
            let projected =
              List.exists (fun q -> Oracle.holds_at env q) pieces
            in
            let actual =
              Oracle.exists_solution rest lo hi
                (Problem.subst vx (Linexpr.const (Zint.of_int a)) p)
            in
            if projected <> actual then ok := false
          done;
          !ok
        | [] -> true);
    QCheck.Test.make ~name:"dark subset exact subset real" ~count:200
      (Oracle.arb_problem ~nvars:3 ())
      (fun (p, vars, lo, hi) ->
        match vars with
        | vx :: _ ->
          let keep u = Var.equal u vx in
          let pieces = Elim.project ~keep p in
          let dark = Elim.project_dark ~keep p in
          let real = Elim.project_real ~keep p in
          let ok = ref true in
          for a = lo to hi do
            let env = Var.Map.singleton vx (Zint.of_int a) in
            let in_exact =
              List.exists (fun q -> Oracle.holds_at env q) pieces
            in
            let in_dark =
              match dark with
              | `Contra -> false
              | `Ok d -> Oracle.holds_at env d
            in
            let in_real =
              match real with
              | `Contra -> false
              | `Ok r -> Oracle.holds_at env r
            in
            if in_dark && not in_exact then ok := false;
            if in_exact && not in_real then ok := false
          done;
          !ok
        | [] -> true);
    QCheck.Test.make ~name:"implies matches brute force" ~count:200
      (QCheck.pair (Oracle.arb_problem ()) (Oracle.arb_problem ()))
      (fun ((p, vars, lo, hi), (q, _, _, _)) ->
        let imp = Gist.implies p q in
        let brute =
          Seq.for_all
            (fun env ->
              (not (Oracle.holds_at env p)) || Oracle.holds_at env q)
            (Oracle.assignments vars lo hi)
        in
        imp = brute);
    QCheck.Test.make ~name:"gist defining property" ~count:150
      (QCheck.pair (Oracle.arb_problem ()) (Oracle.arb_problem ()))
      (fun ((p, vars, lo, hi), (q, _, _, _)) ->
        match Gist.gist p ~given:q with
        | Gist.False ->
          (* p && q must be unsatisfiable *)
          not (Elim.satisfiable (Problem.conj p q))
        | Gist.Tautology ->
          (* gist = True means q => p *)
          Seq.for_all
            (fun env ->
              (not (Oracle.holds_at env q)) || Oracle.holds_at env p)
            (Oracle.assignments vars lo hi)
        | Gist.Gist g ->
          Seq.for_all
            (fun env ->
              let lhs = Oracle.holds_at env g && Oracle.holds_at env q in
              let rhs = Oracle.holds_at env p && Oracle.holds_at env q in
              lhs = rhs)
            (Oracle.assignments vars lo hi));
    QCheck.Test.make ~name:"red/black gist_project defining property"
      ~count:60
      (QCheck.pair
         (Oracle.arb_problem ~max_coeff:2 ~ncons:2 ())
         (Oracle.arb_problem ~max_coeff:2 ~ncons:2 ()))
      (fun ((p, vars, lo, hi), (q, _, _, _)) ->
        match vars with
        | v0 :: v1 :: rest ->
          let keep v = Var.equal v v0 || Var.equal v v1 in
          (* the defining property is exact only when the joint projection
             does not splinter (the paper's own proviso); the splintered
             fallback is a dark-shadow approximation *)
          let splintered = ref false in
          ignore (Elim.project ~splintered ~keep (Problem.conj p q));
          QCheck.assume (not !splintered);
          let r = Gist.gist_project ~keep p ~given:q in
          (* brute-force projections over the box *)
          let proj pb x0 x1 =
            Oracle.exists_solution rest lo hi
              (Problem.subst v0 (Linexpr.const (Zint.of_int x0))
                 (Problem.subst v1 (Linexpr.const (Zint.of_int x1)) pb))
          in
          let ok = ref true in
          for x0 = lo to hi do
            for x1 = lo to hi do
              let env =
                Var.Map.add v0 (Zint.of_int x0)
                  (Var.Map.singleton v1 (Zint.of_int x1))
              in
              let r_holds =
                match r with
                | Gist.Tautology -> true
                | Gist.False -> false
                | Gist.Gist g -> Oracle.holds_at env g
              in
              let lhs = r_holds && proj q x0 x1 in
              let rhs = proj (Problem.conj p q) x0 x1 in
              if lhs <> rhs then ok := false
            done
          done;
          !ok
        | _ -> true);
    QCheck.Test.make ~name:"minimize matches brute force" ~count:200
      (Oracle.arb_problem ~nvars:2 ())
      (fun (p, vars, lo, hi) ->
        match vars with
        | vx :: _ ->
          let brute =
            Seq.fold_left
              (fun acc env ->
                if Oracle.holds_at env p then
                  let x = Var.Map.find vx env in
                  Some (match acc with None -> x | Some m -> Zint.min m x)
                else acc)
              None
              (Oracle.assignments vars lo hi)
          in
          let brute_max =
            Seq.fold_left
              (fun acc env ->
                if Oracle.holds_at env p then
                  let x = Var.Map.find vx env in
                  Some (match acc with None -> x | Some m -> Zint.max m x)
                else acc)
              None
              (Oracle.assignments vars lo hi)
          in
          (match Omega.minimize p vx, brute with
           | `Min m, Some b -> Zint.equal m b
           | `Unsat, None -> true
           | _ -> false)
          && (match Omega.maximize p vx, brute_max with
              | `Max m, Some b -> Zint.equal m b
              | `Unsat, None -> true
              | _ -> false)
          && (match Omega.bounds p vx, brute, brute_max with
              | `Range (Some l, Some h), Some bl, Some bh ->
                Zint.equal l bl && Zint.equal h bh
              | `Unsat, None, None -> true
              | _ -> false)
        | [] -> true);
    QCheck.Test.make
      ~name:"bounds matches brute force (congruences, unbounded sides)"
      ~count:300 arb_bounds_problem
      (fun (p, others, lo, hi) ->
        let want = brute_bounds p others lo hi in
        let got = Omega.bounds p bx in
        let show = function
          | `Unsat -> "unsat"
          | `Range (l, h) ->
            let side = function None -> "inf" | Some z -> Zint.to_string z in
            Printf.sprintf "[%s, %s]" (side l) (side h)
        in
        let same =
          match got, want with
          | `Unsat, `Unsat -> true
          | `Range (l, h), `Range (l', h') ->
            Option.equal Zint.equal l l' && Option.equal Zint.equal h h'
          | _ -> false
        in
        same
        || QCheck.Test.fail_reportf "bounds %s, brute force %s" (show got)
             (show want));
  ]

let presburger_tests =
  [
    QCheck.Test.make ~name:"presburger satisfiable matches brute force"
      ~count:100
      (QCheck.pair (Oracle.arb_problem ~ncons:2 ()) (Oracle.arb_problem ~ncons:2 ()))
      (fun ((p, vars, lo, hi), (q, _, _, _)) ->
        (* f = p or (not q): free vars existential *)
        let open Presburger in
        let f = or_ [ of_problem p; not_ (of_problem q) ] in
        let brute =
          Seq.exists
            (fun env ->
              Oracle.holds_at env p || not (Oracle.holds_at env q))
            (Oracle.assignments vars lo hi)
        in
        (* the formula is unconstrained outside the box for the (not q)
           branch, which the brute force cannot see; restrict to the box by
           conjoining p's box... instead check only the implication
           direction that is box-complete: if brute finds a witness, the
           decision procedure must agree *)
        (not brute) || satisfiable f);
    QCheck.Test.make ~name:"presburger qe preserves truth" ~count:60
      (Oracle.arb_problem ~ncons:2 ())
      (fun (p, vars, lo, hi) ->
        match vars with
        | vz :: rest ->
          (* f = exists vz. p;  qe f must hold exactly where a witness is *)
          let open Presburger in
          let f = exists [ vz ] (of_problem p) in
          let g = qe f in
          let disjuncts = List.map problem_of_conjuncts (dnf g) in
          Seq.for_all
            (fun env ->
              let lhs =
                List.exists (fun pb -> Oracle.holds_at env pb) disjuncts
              in
              let rhs =
                Seq.exists
                  (fun vzval ->
                    Oracle.holds_at (Var.Map.add vz (Var.Map.find vz vzval) env) p)
                  (Oracle.assignments [ vz ] lo hi)
              in
              lhs = rhs)
            (Oracle.assignments rest lo hi)
        | [] -> true);
    QCheck.Test.make ~name:"presburger validity of implication is sound"
      ~count:80
      (QCheck.pair (Oracle.arb_problem ~ncons:2 ()) (Oracle.arb_problem ~ncons:2 ()))
      (fun ((p, vars, lo, hi), (q, _, _, _)) ->
        let open Presburger in
        let imp = valid (implies_ (of_problem p) (of_problem q)) in
        let brute =
          Seq.for_all
            (fun env ->
              (not (Oracle.holds_at env p)) || Oracle.holds_at env q)
            (Oracle.assignments vars lo hi)
        in
        imp = brute);
    QCheck.Test.make ~name:"problem simplify matches the reference"
      ~count:1000 arb_simplify_case
      (fun (p, grown) ->
        if grown then Problem.mark_grown p;
        let stats = Metrics.current () in
        let before = stats.Metrics.pruned_interval in
        let got = Problem.simplify p in
        let pruned = stats.Metrics.pruned_interval - before in
        let want, want_pruned = Oracle.simplify_ref ~grown p in
        let show = function
          | `Contra -> "Contra"
          | `Ok cs -> Problem.to_string (Problem.of_list cs)
        in
        let got' =
          match got with
          | Problem.Contra -> `Contra
          | Problem.Ok q -> `Ok (Problem.constraints q)
        in
        let same =
          match got', want with
          | `Contra, `Contra -> true
          | `Ok a, `Ok b ->
            List.length a = List.length b && List.for_all2 same_constr a b
          | _ -> false
        in
        (same && pruned = want_pruned)
        || QCheck.Test.fail_reportf
             "simplify %s (%d pruned), reference %s (%d pruned)" (show got')
             pruned (show want) want_pruned);
    QCheck.Test.make ~name:"simplify_and matches the reference on the conjunction"
      ~count:500 arb_simplify_case
      (fun (p, _) ->
        match List.rev (Problem.constraints p) with
        | [] -> true
        | c :: rest ->
          let got =
            match Problem.simplify_and (Problem.of_list (List.rev rest)) c with
            | Problem.Contra -> `Contra
            | Problem.Ok q -> `Ok (Problem.constraints q)
          in
          (match got, fst (Oracle.simplify_ref ~grown:false p) with
           | `Contra, `Contra -> true
           | `Ok a, `Ok b ->
             List.length a = List.length b && List.for_all2 same_constr a b
           | _ -> false));
    QCheck.Test.make ~name:"constraint implies matches the parallel reference"
      ~count:500 arb_simplify_case
      (fun (p, _) ->
        (* [a] alone implies [b] when their linear parts are equal (or, for
           an equality [a], opposite) and [b]'s constant is large enough *)
        let linear e = Linexpr.add_const e (Zint.neg (Linexpr.constant e)) in
        let implies_ref a b =
          let ea = Constr.expr a and eb = Constr.expr b in
          let ca = Linexpr.constant ea and cb = Linexpr.constant eb in
          let same = Linexpr.compare (linear ea) (linear eb) = 0 in
          let opposite =
            Linexpr.compare (linear (Linexpr.neg ea)) (linear eb) = 0
          in
          match Constr.kind a, Constr.kind b with
          | Constr.Eq, Constr.Eq -> same && Zint.equal ca cb
          | Constr.Eq, Constr.Geq ->
            (same && Zint.(cb >= ca)) || (opposite && Zint.(cb >= Zint.neg ca))
          | Constr.Geq, Constr.Geq -> same && Zint.(cb >= ca)
          | Constr.Geq, Constr.Eq -> false
        in
        let cs = Problem.constraints p in
        List.for_all
          (fun a ->
            List.for_all (fun b -> Constr.implies a b = implies_ref a b) cs)
          cs);
    QCheck.Test.make ~name:"problem simplify preserves solutions" ~count:200
      (Oracle.arb_problem ())
      (fun (p, vars, lo, hi) ->
        match Problem.simplify p with
        | Problem.Contra ->
          not (Oracle.exists_solution vars lo hi p)
        | Problem.Ok p' ->
          Seq.for_all
            (fun env -> Oracle.holds_at env p = Oracle.holds_at env p')
            (Oracle.assignments vars lo hi));
    QCheck.Test.make ~name:"constraint normalize preserves solutions"
      ~count:300
      (Oracle.arb_problem ~ncons:1 ())
      (fun (p, vars, lo, hi) ->
        List.for_all
          (fun c ->
            match Constr.normalize c with
            | Constr.Tauto ->
              Seq.for_all
                (fun env -> Oracle.holds_at env (Problem.of_list [ c ]))
                (Oracle.assignments vars lo hi)
            | Constr.Contra ->
              Seq.for_all
                (fun env ->
                  not (Oracle.holds_at env (Problem.of_list [ c ])))
                (Oracle.assignments vars lo hi)
            | Constr.Ok c' ->
              Seq.for_all
                (fun env ->
                  Oracle.holds_at env (Problem.of_list [ c ])
                  = Oracle.holds_at env (Problem.of_list [ c' ]))
                (Oracle.assignments vars lo hi))
          (Problem.constraints p));
  ]

let suite =
  ( "omega",
    unit_tests
    @ [
        Alcotest.test_case "solver counters pinned on a seeded population"
          `Quick test_counters_pinned;
      ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false)
        (prop_tests @ presburger_tests) )

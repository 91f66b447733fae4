(* Tests for the checked native integers: exact results where they fit,
   [Zint.Overflow] where they do not. *)

let z = Zint.of_int
let zs = Zint.of_string

let check_z msg expected actual =
  Alcotest.(check string) msg (Zint.to_string expected) (Zint.to_string actual)

let overflows msg f =
  match f () with
  | v -> Alcotest.failf "%s: expected Overflow, got %s" msg (Zint.to_string v)
  | exception Zint.Overflow -> ()

(* [op a b] raises Overflow / equals [expected], on native operands *)
let ov msg op a b = overflows msg (fun () -> op (z a) (z b))
let eq msg expected op a b = check_z msg (z expected) (op (z a) (z b))

let unit_tests =
  [
    Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) "roundtrip" n (Zint.to_int (z n)))
          [ 0; 1; -1; 42; max_int; min_int; max_int - 1; min_int + 1 ]);
    Alcotest.test_case "add overflows at the boundary" `Quick (fun () ->
        ov "max_int + 1" Zint.add max_int 1;
        ov "max_int + max_int" Zint.add max_int max_int;
        ov "min_int + -1" Zint.add min_int (-1);
        ov "min_int + min_int" Zint.add min_int min_int;
        eq "max_int + min_int" (-1) Zint.add max_int min_int;
        eq "max_int + 0" max_int Zint.add max_int 0;
        eq "0 + min_int" min_int Zint.add 0 min_int);
    Alcotest.test_case "sub overflows at the boundary" `Quick (fun () ->
        ov "min_int - 1" Zint.sub min_int 1;
        ov "max_int - -1" Zint.sub max_int (-1);
        ov "0 - min_int" Zint.sub 0 min_int;
        ov "max_int - min_int" Zint.sub max_int min_int;
        eq "-1 - min_int" max_int Zint.sub (-1) min_int;
        eq "min_int - min_int" 0 Zint.sub min_int min_int);
    Alcotest.test_case "neg min_int" `Quick (fun () ->
        overflows "neg min_int" (fun () -> Zint.neg (z min_int));
        overflows "abs min_int" (fun () -> Zint.abs (z min_int));
        check_z "neg max_int" (z (min_int + 1)) (Zint.neg (z max_int));
        check_z "abs (min_int + 1)" (z max_int) (Zint.abs (z (min_int + 1))));
    Alcotest.test_case "mul overflows at the boundary" `Quick (fun () ->
        let p31 = 1 lsl 31 in
        ov "max_int * 2" Zint.mul max_int 2;
        ov "min_int * -1" Zint.mul min_int (-1);
        ov "-1 * min_int" Zint.mul (-1) min_int;
        ov "2^31 * 2^31" Zint.mul p31 p31;
        ov "max_int * max_int" Zint.mul max_int max_int;
        eq "-2^31 * 2^31" min_int Zint.mul (-p31) p31;
        eq "min_int * 1" min_int Zint.mul min_int 1;
        eq "max_int * -1" (min_int + 1) Zint.mul max_int (-1);
        eq "(2^31 - 1) * (2^31 + 1)" max_int Zint.mul (p31 - 1) (p31 + 1));
    Alcotest.test_case "string roundtrip big" `Quick (fun () ->
        List.iter
          (fun n ->
            let s = string_of_int n in
            check_z s (z n) (zs s);
            Alcotest.(check string) "to_string" s (Zint.to_string (z n)))
          [ max_int; min_int; max_int - 1; min_int + 1; 0 ];
        check_z "leading +" (z 42) (zs "+42");
        overflows "2^62" (fun () -> zs "4611686018427387904");
        overflows "-2^62 - 1" (fun () -> zs "-4611686018427387905");
        overflows "24 digits" (fun () -> zs "999999999999999999999999");
        Alcotest.check_raises "no digits"
          (Invalid_argument "Zint.of_string: no digits") (fun () ->
            ignore (zs "-")));
    Alcotest.test_case "big division" `Quick (fun () ->
        ov "tdiv min_int -1" Zint.tdiv min_int (-1);
        ov "fdiv min_int -1" Zint.fdiv min_int (-1);
        ov "cdiv min_int -1" Zint.cdiv min_int (-1);
        eq "trem min_int -1" 0 Zint.trem min_int (-1);
        eq "frem min_int -1" 0 Zint.frem min_int (-1);
        eq "tdiv min_int 1" min_int Zint.tdiv min_int 1;
        eq "fdiv max_int min_int" (-1) Zint.fdiv max_int min_int;
        eq "frem max_int min_int" (-1) Zint.frem max_int min_int;
        let a = z max_int and b = z 9876543210 in
        let q = Zint.tdiv a b and r = Zint.trem a b in
        check_z "reconstruct" a (Zint.add (Zint.mul q b) r);
        Alcotest.(check bool) "0 <= r" true Zint.(zero <= r);
        Alcotest.(check bool) "r < b" true Zint.(r < b));
    Alcotest.test_case "fdiv/cdiv signs" `Quick (fun () ->
        check_z "fdiv 7 2" (z 3) (Zint.fdiv (z 7) (z 2));
        check_z "fdiv -7 2" (z (-4)) (Zint.fdiv (z (-7)) (z 2));
        check_z "fdiv 7 -2" (z (-4)) (Zint.fdiv (z 7) (z (-2)));
        check_z "fdiv -7 -2" (z 3) (Zint.fdiv (z (-7)) (z (-2)));
        check_z "cdiv 7 2" (z 4) (Zint.cdiv (z 7) (z 2));
        check_z "cdiv -7 2" (z (-3)) (Zint.cdiv (z (-7)) (z 2));
        check_z "cdiv 7 -2" (z (-3)) (Zint.cdiv (z 7) (z (-2)));
        check_z "cdiv -7 -2" (z 4) (Zint.cdiv (z (-7)) (z (-2))));
    Alcotest.test_case "gcd/lcm" `Quick (fun () ->
        check_z "gcd 12 18" (z 6) (Zint.gcd (z 12) (z 18));
        check_z "gcd -12 18" (z 6) (Zint.gcd (z (-12)) (z 18));
        check_z "gcd 0 5" (z 5) (Zint.gcd Zint.zero (z 5));
        check_z "gcd 0 0" Zint.zero (Zint.gcd Zint.zero Zint.zero);
        eq "gcd min_int 6" 2 Zint.gcd min_int 6;
        ov "gcd min_int 0" Zint.gcd min_int 0;
        check_z "lcm 4 6" (z 12) (Zint.lcm (z 4) (z 6));
        check_z "lcm 0 6" Zint.zero (Zint.lcm Zint.zero (z 6));
        ov "lcm max_int 2" Zint.lcm max_int 2);
    Alcotest.test_case "mod_hat" `Quick (fun () ->
        (* mod_hat a b lies in (-b/2, b/2] and is congruent to a mod b *)
        for a = -20 to 20 do
          for b = 1 to 7 do
            let m = Zint.mod_hat (z a) (z b) in
            let mi = Zint.to_int m in
            Alcotest.(check bool)
              (Printf.sprintf "range %d mod^ %d = %d" a b mi)
              true
              (2 * mi <= b && 2 * mi > -b);
            Alcotest.(check int)
              (Printf.sprintf "congruent %d mod^ %d" a b)
              (((a - mi) mod b + b) mod b)
              0
          done
        done;
        (* 2r > b must not overflow when b is near max_int *)
        eq "max_int - 1 mod^ max_int" (-1) Zint.mod_hat (max_int - 1) max_int;
        eq "1 mod^ max_int" 1 Zint.mod_hat 1 max_int);
    Alcotest.test_case "compare mixed sizes" `Quick (fun () ->
        let lt a b = Alcotest.(check bool) "<" true Zint.(z a < z b) in
        lt 5 max_int;
        lt min_int (-5);
        lt min_int max_int;
        Alcotest.(check int) "sign min_int" (-1) (Zint.sign (z min_int));
        Alcotest.(check bool) "max_int = max_int" true
          Zint.(z max_int = zs "4611686018427387903"));
    Alcotest.test_case "divisible/divexact" `Quick (fun () ->
        Alcotest.(check bool) "12/3" true (Zint.divisible (z 12) (z 3));
        Alcotest.(check bool) "12/5" false (Zint.divisible (z 12) (z 5));
        Alcotest.(check bool) "0/0" true (Zint.divisible Zint.zero Zint.zero);
        Alcotest.(check bool) "5/0" false (Zint.divisible (z 5) Zint.zero);
        Alcotest.(check bool) "min_int/-1" true
          (Zint.divisible (z min_int) Zint.minus_one);
        check_z "divexact" (z (-4)) (Zint.divexact (z 12) (z (-3))));
  ]

(* -------------------------------------------------------------------- *)
(* Property tests.  The boundary-biased properties check each checked   *)
(* operation against a reference that does not reuse its overflow      *)
(* test: Int64 (63-bit operands cannot overflow a 64-bit sum or         *)
(* negation) and a schoolbook product over 30-bit limbs.                *)
(* -------------------------------------------------------------------- *)

let small_int = QCheck.int_range (-1_000_000) 1_000_000

(* Mostly values at or near an overflow edge: max_int/min_int, +-1,
   +-2^31 (whose square is 2^62), powers of two, plus small and
   arbitrary ints. *)
let boundary_gen =
  QCheck.Gen.(
    frequency
      [
        (2, int_range (-1000) 1000);
        (2, oneofl [ min_int; max_int; -1; 0; 1; 1 lsl 31; -(1 lsl 31) ]);
        ( 2,
          map2
            (fun k e -> if e then max_int - k else min_int + k)
            (int_range 0 3) bool );
        ( 2,
          map2
            (fun k neg -> if neg then -((1 lsl 31) + k) else (1 lsl 31) + k)
            (int_range (-3) 3) bool );
        ( 2,
          map3
            (fun e d neg -> let v = (1 lsl e) + d in if neg then -v else v)
            (int_range 0 61) (int_range (-1) 1) bool );
        (2, int);
      ])

let boundary_int = QCheck.make ~print:string_of_int boundary_gen

(* Int64 result of a 63-bit operation, as an int when it fits. *)
let fit64 r =
  if Int64.compare r (Int64.of_int max_int) > 0
     || Int64.compare r (Int64.of_int min_int) < 0
  then None
  else Some (Int64.to_int r)

(* The exact product as an int when it fits, via little-endian base-2^30
   limbs of the magnitudes (30, not 31 bits, so that a limb product
   plus a cell and a carry stays below max_int).  A magnitude is read
   off the non-positive [-|n|], which always fits. *)
let exact_mul a b =
  let base = 1 lsl 30 in
  let limbs n =
    let rec go x = if x = 0 then [] else -(x mod base) :: go (x / base) in
    Array.of_list (go (if n > 0 then -n else n))
  in
  let la = limbs a and lb = limbs b in
  let r = Array.make (Array.length la + Array.length lb + 1) 0 in
  Array.iteri
    (fun i ai ->
      let carry = ref 0 in
      Array.iteri
        (fun j bj ->
          let cur = r.(i + j) + (ai * bj) + !carry in
          r.(i + j) <- cur land (base - 1);
          carry := cur lsr 30)
        lb;
      let k = ref (i + Array.length lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land (base - 1);
        carry := cur lsr 30;
        incr k
      done)
    la;
  let limb i = if i < Array.length r then r.(i) else 0 in
  let high = ref 0 in
  for i = 3 to Array.length r - 1 do high := !high lor r.(i) done;
  (* 2^62 is limbs [0; 0; 4]: a negative product may reach it, a
     positive one stays below *)
  let negative = (a < 0) <> (b < 0) in
  let l0 = limb 0 and l1 = limb 1 and l2 = limb 2 in
  if !high <> 0 || l2 > 4 || (l2 = 4 && (l1 <> 0 || l0 <> 0 || not negative))
  then None
  else
    (* -|p| from the limbs, which never passes through +2^62 *)
    let neg_mag = ((-l2) lsl 60) - (l1 lsl 30) - l0 in
    Some (if negative then neg_mag else -neg_mag)

(* [op] on Zint either raises Overflow where [reference] has no result,
   or returns [reference]'s result. *)
let exact_or_overflow op reference =
  match op () with
  | v -> reference = Some (Zint.to_int v)
  | exception Zint.Overflow -> reference = None

let i64 = Int64.of_int

(* [zop] on [a], [b] against [reference] in Int64 *)
let exact2 zop reference a b =
  exact_or_overflow
    (fun () -> zop (z a) (z b))
    (fit64 (reference (i64 a) (i64 b)))

let prop_tests =
  [
    QCheck.Test.make ~name:"add matches int" ~count:1000
      QCheck.(pair small_int small_int)
      (fun (a, b) -> Zint.to_int (Zint.add (z a) (z b)) = a + b);
    QCheck.Test.make ~name:"mul matches int" ~count:1000
      QCheck.(pair small_int small_int)
      (fun (a, b) -> Zint.to_int (Zint.mul (z a) (z b)) = a * b);
    QCheck.Test.make ~name:"fdiv matches floor" ~count:1000
      QCheck.(pair small_int small_int)
      (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q = Zint.to_int (Zint.fdiv (z a) (z b)) in
        let f = int_of_float (floor (float_of_int a /. float_of_int b)) in
        q = f);
    QCheck.Test.make ~name:"f/c/t div-rem laws" ~count:1000
      QCheck.(pair boundary_int boundary_int)
      (fun (a, b) ->
        QCheck.assume (b <> 0 && not (a = min_int && b = -1));
        let za = z a and zb = z b in
        let fq = Zint.fdiv za zb and fr = Zint.frem za zb in
        let tq = Zint.tdiv za zb and tr = Zint.trem za zb in
        (* [q * b] may not fit an int although [a] does: recombine in
           Int64 *)
        let recombine q r =
          Int64.(add (mul (i64 (Zint.to_int q)) (i64 b)) (i64 (Zint.to_int r)))
        in
        recombine fq fr = i64 a
        && recombine tq tr = i64 a
        && (Zint.is_zero fr || Zint.sign fr = Zint.sign zb)
        && (Zint.is_zero tr || Zint.sign tr = Zint.sign za)
        && Int64.(compare (abs (i64 (Zint.to_int fr))) (abs (i64 b))) < 0);
    QCheck.Test.make ~name:"checked ops: exact or Overflow" ~count:3000
      QCheck.(pair boundary_int boundary_int)
      (fun (a, b) ->
        exact2 Zint.add Int64.add a b
        && exact2 Zint.sub Int64.sub a b
        && exact2 (fun x _ -> Zint.neg x) (fun x _ -> Int64.neg x) a b
        && exact2 (fun x _ -> Zint.abs x) (fun x _ -> Int64.abs x) a b
        && exact_or_overflow (fun () -> Zint.mul (z a) (z b)) (exact_mul a b)
        && exact_or_overflow (fun () -> Zint.mul (z b) (z a)) (exact_mul a b)
        && (b = 0 || exact2 Zint.tdiv Int64.div a b)
        && exact_or_overflow
             (fun () -> zs (Int64.to_string (Int64.add (i64 a) (i64 b))))
             (fit64 (Int64.add (i64 a) (i64 b))));
    QCheck.Test.make ~name:"gcd divides and is maximal" ~count:500
      QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
      (fun (a, b) ->
        let g = Zint.gcd (z a) (z b) in
        if a = 0 && b = 0 then Zint.is_zero g
        else
          Zint.sign g > 0
          && Zint.divisible (z a) g
          && Zint.divisible (z b) g
          &&
          (* g is the largest divisor: check against the int gcd *)
          let rec ig a b = if b = 0 then abs a else ig b (a mod b) in
          Zint.to_int g = ig a b);
    QCheck.Test.make ~name:"string roundtrip" ~count:500 boundary_int (fun a ->
        Zint.equal (z a) (Zint.of_string (Zint.to_string (z a))));
    QCheck.Test.make ~name:"compare is a total order consistent with sub"
      ~count:500
      QCheck.(pair boundary_int boundary_int)
      (fun (a, b) ->
        let c = Zint.compare (z a) (z b) in
        let s = Int64.compare (Int64.sub (i64 a) (i64 b)) 0L in
        (c > 0) = (s > 0) && (c < 0) = (s < 0) && (c = 0) = (s = 0));
  ]

let suite =
  ( "zint",
    unit_tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) prop_tests )

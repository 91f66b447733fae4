(* Tests for the petit mini-language: lexer, parser, semantic analysis and
   the tracing interpreter. *)

open Lang

let parse = Parser.parse_string
let analyze = Sema.parse_and_analyze

let unit_tests =
  [
    Alcotest.test_case "parse simple program" `Quick (fun () ->
        let p =
          parse
            {|
symbolic n;
real a[0:100];
for i := 1 to n do
  s: a(i) := a(i-1) + 1;
endfor
|}
        in
        Alcotest.(check int) "one stmt" 1 (List.length p.Ast.stmts);
        match p.Ast.stmts with
        | [ Ast.For { var; body = [ Ast.Assign { label; _ } ]; _ } ] ->
          Alcotest.(check string) "loop var" "i" var;
          Alcotest.(check (option string)) "label" (Some "s") label
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "parse numeric labels and brackets" `Quick (fun () ->
        let p =
          parse
            {|
real a[0:10];
3: a[0] := 1;
|}
        in
        match p.Ast.stmts with
        | [ Ast.Assign { label = Some "3"; _ } ] -> ()
        | _ -> Alcotest.fail "numeric label not parsed");
    Alcotest.test_case "parser error reporting" `Quick (fun () ->
        (match parse "for := 1 to" with
         | exception Parser.Error (_, pos) ->
           Alcotest.(check int) "line" 1 pos.Ast.line
         | _ -> Alcotest.fail "expected a parse error"));
    Alcotest.test_case "pretty-print roundtrip" `Quick (fun () ->
        let src =
          {|
symbolic n, m;
real a[0:100, -5:5];
assume n >= 1, m >= 2;
for i := 1 to n do
  for j := max(1, i - 3) to min(m, i + 3) do
    s: a(i, j) := a(i - 1, j) + 2*a(i, j - 1);
  endfor
endfor
|}
        in
        let p1 = parse src in
        let p2 = parse (Ast.program_to_string p1) in
        Alcotest.(check string) "stable"
          (Ast.program_to_string p1) (Ast.program_to_string p2));
    Alcotest.test_case "sema: affine extraction" `Quick (fun () ->
        let prog = analyze (Corpus.find "example3") in
        let w = List.hd (Ir.writes prog) in
        Alcotest.(check int) "depth 2" 2 (Ir.depth w);
        (match w.Ir.subs with
         | [ s ] ->
           Alcotest.(check int) "coeff L2" 1 (Ir.aff_coeff s (Ir.Loop 1));
           Alcotest.(check int) "const" 0 s.Ir.const
         | _ -> Alcotest.fail "one subscript expected");
        let r = List.hd (Ir.reads prog) in
        match r.Ir.subs with
        | [ s ] -> Alcotest.(check int) "const -1" (-1) s.Ir.const
        | _ -> Alcotest.fail "one subscript expected");
    Alcotest.test_case "sema: max/min bound arms" `Quick (fun () ->
        let prog =
          analyze
            {|
symbolic n, m;
real a[0:100];
for i := max(1, n - 3) - m to min(n, m) do
  s: a(i) := 0;
endfor
|}
        in
        let w = List.hd (Ir.writes prog) in
        match w.Ir.loops with
        | [ { Ir.lo; hi; _ } ] ->
          Alcotest.(check int) "two lower arms" 2 (List.length lo);
          Alcotest.(check int) "two upper arms" 2 (List.length hi)
        | _ -> Alcotest.fail "one loop expected");
    Alcotest.test_case "sema: opaque terms" `Quick (fun () ->
        let prog = analyze (Corpus.find "example10") in
        let w = List.hd (Ir.writes prog) in
        Alcotest.(check int) "one opaque" 1 (List.length w.Ir.opaques);
        let prog8 = analyze (Corpus.find "example8") in
        let w8 =
          List.find (fun a -> a.Ir.array = "a") (Ir.writes prog8)
        in
        (* a(q(L1)): the q-read is opaque with one affine arg *)
        match w8.Ir.opaques with
        | [ o ] ->
          Alcotest.(check (option string)) "base" (Some "q") o.Ir.base;
          Alcotest.(check int) "one arg" 1 (List.length o.Ir.args)
        | _ -> Alcotest.fail "one opaque expected");
    Alcotest.test_case "sema: undeclared name error" `Quick (fun () ->
        match analyze "real a[0:3];\ns: a(zz) := 0;" with
        | exception Sema.Error _ -> ()
        | _ -> Alcotest.fail "expected a sema error");
    Alcotest.test_case "sema: array rank mismatch errors" `Quick (fun () ->
        List.iter
          (fun (what, src) ->
            match analyze src with
            | exception Sema.Error _ -> ()
            | _ -> Alcotest.failf "%s: expected a sema error" what)
          [
            ( "2-D array, 1 subscript",
              "real a[0:200, 0:200];\nfor i := 1 to 10 do\n  for j := 1 to \
               10 do\n    a(i-j) := a(i-j) + 1;\n  endfor\nendfor\n" );
            ( "1-D array, 2 subscripts",
              "real a[0:200];\nfor i := 1 to 10 do\n  a(i, i) := 1;\nendfor\n"
            );
            ( "undeclared array at two ranks",
              "for i := 1 to 10 do\n  for j := 1 to 10 do\n    a(i) := a(i, \
               j);\n  endfor\nendfor\n" );
          ]);
    Alcotest.test_case "common loops and textual order" `Quick (fun () ->
        let prog = analyze (Corpus.find "example1") in
        let accs = Array.to_list prog.Ir.accesses in
        let find label kind =
          List.find (fun a -> a.Ir.label = label && a.Ir.kind = kind) accs
        in
        let a = find "A" Ir.Write in
        let b = find "B" Ir.Write in
        let c = find "C" Ir.Read in
        Alcotest.(check int) "A,B share no loop" 0 (Ir.common_loops a b);
        Alcotest.(check int) "B,C share no loop" 0 (Ir.common_loops b c);
        Alcotest.(check bool) "A before B" true (Ir.textually_before a b);
        Alcotest.(check bool) "B before C" true (Ir.textually_before b c);
        Alcotest.(check bool) "C not before B" false (Ir.textually_before c b));
    Alcotest.test_case "same-statement reads precede the write" `Quick
      (fun () ->
        let prog = analyze (Corpus.find "example3") in
        let w = List.hd (Ir.writes prog) in
        let r = List.hd (Ir.reads prog) in
        Alcotest.(check bool) "read before write" true
          (Ir.textually_before r w);
        Alcotest.(check int) "two shared loops" 2 (Ir.common_loops r w));
    Alcotest.test_case "interp: example3 value flows" `Quick (fun () ->
        let prog = analyze (Corpus.find "example3") in
        let trace = Interp.run prog ~syms:[ ("n", 3); ("m", 4) ] in
        let flows = Interp.value_flow_deps trace in
        (* a(L2) := a(L2-1): within one L1 iteration, L2 chain flows; all
           value flows have distance (0,1) *)
        Alcotest.(check bool) "some flows" true (flows <> []);
        List.iter
          (fun d ->
            Alcotest.(check (list int)) "distance (0,1)" [ 0; 1 ]
              (Interp.distance d))
          flows);
    Alcotest.test_case "interp: memory flows superset of value flows" `Quick
      (fun () ->
        let prog = analyze (Corpus.find "example5") in
        let trace = Interp.run prog ~syms:[ ("n", 4); ("m", 5) ] in
        let vflows = Interp.value_flow_deps trace in
        let mflows = Interp.memory_deps trace `Flow in
        Alcotest.(check bool) "value subset memory" true
          (List.for_all
             (fun (v : Interp.dep) ->
               List.exists
                 (fun (m : Interp.dep) ->
                   m.Interp.src.Interp.acc.Ir.acc_id
                   = v.Interp.src.Interp.acc.Ir.acc_id
                   && m.Interp.src.Interp.iters = v.Interp.src.Interp.iters
                   && m.Interp.dst.Interp.acc.Ir.acc_id
                      = v.Interp.dst.Interp.acc.Ir.acc_id
                   && m.Interp.dst.Interp.iters = v.Interp.dst.Interp.iters)
                 mflows)
             vflows));
    Alcotest.test_case "interp: empty loops execute nothing" `Quick (fun () ->
        let prog = analyze (Corpus.find "example3") in
        let trace = Interp.run prog ~syms:[ ("n", 0); ("m", 4) ] in
        Alcotest.(check int) "no events" 0 (List.length trace.Interp.events));
    Alcotest.test_case "interp: index arrays via init" `Quick (fun () ->
        let prog = analyze (Corpus.find "example8") in
        let init name idx =
          match name, idx with "q", [ i ] -> i | _ -> 0
        in
        let trace = Interp.run ~init prog ~syms:[ ("n", 4) ] in
        (* with q = identity, a(q(L1)) := a(q(L1+1)-1): writes a(i), reads
           a(i): same-iteration locations; check event counts: 4 iterations
           x (3 reads + 1 write) *)
        Alcotest.(check int) "events" 20 (List.length trace.Interp.events));
    Alcotest.test_case "stepped loops: bounds and interpretation" `Quick
      (fun () ->
        let prog =
          analyze
            {|
symbolic n;
real a[0:100], o[0:100];
for i := 0 to 2*n by 2 do
  w: a(i) := i;
endfor
for i := 10 to 1 by -3 do
  r: o(i) := a(i);
endfor
|}
        in
        let w = List.find (fun a -> a.Ir.label = "w") (Ir.writes prog) in
        (match w.Ir.loops with
         | [ l ] -> Alcotest.(check int) "step 2" 2 l.Ir.step
         | _ -> Alcotest.fail "one loop");
        (* subscripts are in terms of the normalized counter: i = 0 + 2*c *)
        (match w.Ir.subs with
         | [ s ] ->
           Alcotest.(check int) "coeff" 2 (Ir.aff_coeff s (Ir.Loop 0));
           Alcotest.(check int) "const" 0 s.Ir.const
         | _ -> Alcotest.fail "one subscript");
        let trace = Interp.run prog ~syms:[ ("n", 3) ] in
        (* first loop: i = 0,2,4,6 -> 4 writes; second: 10,7,4,1 -> 4 reads
           + 4 writes *)
        Alcotest.(check int) "events" 12 (List.length trace.Interp.events);
        (* dynamic value flows land on even locations 4 (i=4) only:
           reads at 10,7,4,1; writes covered 0,2,4,6 -> flow at loc 4 *)
        let flows = Interp.value_flow_deps trace in
        Alcotest.(check int) "one flow" 1 (List.length flows));
    Alcotest.test_case "negative-step loop matches normalized semantics"
      `Quick (fun () ->
        let prog =
          analyze
            {|
real a[0:20], o[0:20];
for i := 5 to 1 by -1 do
  w: a(i) := i;
endfor
for i := 1 to 5 do
  r: o(i) := a(i);
endfor
|}
        in
        let trace = Interp.run prog ~syms:[] in
        Alcotest.(check int) "5 flows" 5
          (List.length (Interp.value_flow_deps trace)));
    Alcotest.test_case "scalars parse, read and write" `Quick (fun () ->
        let prog =
          analyze
            {|
symbolic n;
real s, a[0:100];
s := 0;
for i := 1 to n do
  t: s := s + i;
  u: a(i) := s;
endfor
|}
        in
        (* s reads appear as accesses with no subscripts *)
        let s_reads =
          List.filter (fun a -> a.Ir.array = "s") (Ir.reads prog)
        in
        Alcotest.(check int) "two scalar reads" 2 (List.length s_reads);
        let trace = Interp.run prog ~syms:[ ("n", 4) ] in
        (* a(i) = sum 1..i *)
        let mem =
          List.filter_map
            (fun (ev : Interp.event) ->
              if ev.Interp.ev_write && fst ev.Interp.ev_loc = "a" then
                Some ev.Interp.ev_loc
              else None)
            trace.Interp.events
        in
        Alcotest.(check int) "4 writes to a" 4 (List.length mem));
    Alcotest.test_case "cholsky parses and analyzes" `Quick (fun () ->
        let prog = analyze (Corpus.find "cholsky") in
        Alcotest.(check int) "access count" 29 (Ir.access_count prog));
  ]

(* -------------------------------------------------------------------- *)
(* Property tests                                                        *)
(* -------------------------------------------------------------------- *)

(* Random expression/program generator for parser fuzzing. *)
let gen_expr : Ast.expr QCheck.Gen.t =
  QCheck.Gen.(
    sized_size (int_range 0 5) @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              map (fun i -> Ast.Int i) (int_range (-9) 9);
              oneofl [ Ast.Name "i"; Ast.Name "n" ];
            ]
        else
          oneof
            [
              map2 (fun a b -> Ast.Add (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Ast.Sub (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.Neg a) (self (n - 1));
              map2
                (fun k a -> Ast.Mul (Ast.Int k, a))
                (int_range (-3) 3) (self (n - 1));
              map (fun a -> Ast.Ref ("a", [ a ])) (self (n - 1));
            ]))

let gen_fuzz_program : Ast.program QCheck.Gen.t =
  QCheck.Gen.(
    let pos = { Ast.line = 0; col = 0 } in
    let* rhs = gen_expr in
    let* sub = gen_expr in
    return
      {
        Ast.decls =
          [ Ast.Symbolic [ "n" ]; Ast.Array [ ("a", [ (Ast.Int (-500), Ast.Int 500) ]) ] ];
        stmts =
          [
            Ast.For
              {
                var = "i";
                lo = Ast.Int 1;
                hi = Ast.Name "n";
                step = 1;
                body = [ Ast.Assign { label = Some "s"; lhs = ("a", [ sub ]); rhs; pos } ];
                pos;
              };
          ];
      })

let prop_tests =
  [
    QCheck.Test.make ~name:"pretty-print / parse roundtrip" ~count:300
      (QCheck.make ~print:Ast.program_to_string gen_fuzz_program)
      (fun p ->
        (* one cycle may normalize (e.g. a negative literal reparses as a
           negation); after that, print/parse must be a fixpoint *)
        let p1 = Parser.parse_string (Ast.program_to_string p) in
        let s1 = Ast.program_to_string p1 in
        let s2 = Ast.program_to_string (Parser.parse_string s1) in
        s1 = s2);
    QCheck.Test.make ~name:"interpreter is deterministic" ~count:50
      (QCheck.make ~print:Ast.program_to_string gen_fuzz_program)
      (fun p ->
        let prog = Sema.analyze p in
        let t1 = Interp.run prog ~syms:[ ("n", 4) ] in
        let t2 = Interp.run prog ~syms:[ ("n", 4) ] in
        t1 = t2);
  ]

(* every corpus program parses, analyzes and (where affine) drives the
   full analysis without error *)
let corpus_tests =
  [
    Alcotest.test_case "all corpus programs parse and analyze" `Quick
      (fun () ->
        List.iter
          (fun (name, src) ->
            match Sema.parse_and_analyze src with
            | exception e ->
              Alcotest.fail
                (Printf.sprintf "%s failed: %s" name (Printexc.to_string e))
            | prog ->
              Alcotest.(check bool)
                (name ^ " has accesses")
                true
                (Ir.access_count prog > 0))
          Corpus.all);
    Alcotest.test_case "corpus timing population runs the driver" `Quick
      (fun () ->
        List.iter
          (fun name ->
            let prog = Sema.parse_and_analyze (Corpus.find name) in
            ignore (Depend.Driver.analyze prog))
          Corpus.timing_population);
  ]

let suite =
  ( "lang",
    unit_tests @ corpus_tests
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) prop_tests )

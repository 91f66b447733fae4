(* Tests for the optimizer stage: the dependence-licensed source
   restructuring (Xform.Restructure) and the bytecode passes (Lang.Opt).

   The contract under test is the one the speedup bench enforces over
   the whole corpus: the optimized pipeline yields the interpreter's
   final store bit for bit; illegal fusion is refused, and a program no
   pass changes costs one dependence graph. *)

open Lang

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* (loop pairs fused, stores deleted) of a restructuring report *)
let fused_killed (r : Xform.Restructure.report) = (r.x_fused, r.x_killed)
let pair_t = Alcotest.(pair int int)

(* Same deterministic nonzero fill as test_exec/test_vm. *)
let init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

let analyze src = Sema.analyze (Parser.parse_string src)

(* ------------------------------------------------------------------ *)
(* Fusion legality                                                     *)
(* ------------------------------------------------------------------ *)

let test_fusion () =
  (* loop 2 reads loop 1's array backwards: fusing would feed
     iteration i the value of iteration 100-i before it is written *)
  let bad =
    Parser.parse_string
      "symbolic n; real a[0:100], b[0:100];\n\
       for i := 0 to 100 do a(i) := i; endfor\n\
       for i := 0 to 100 do b(i) := a(100 - i) + 1; endfor"
  in
  let _, rep = Xform.Restructure.optimize bad in
  check pair_t "backward-reading fusion refused, nothing killed" (0, 0)
    (fused_killed rep);
  (* aligned reads fuse, and the result matches the interpreter *)
  let good_src =
    "symbolic n; real a[0:100], b[0:100];\n\
     for i := 0 to 100 do a(i) := i; endfor\n\
     for j := 0 to 100 do b(j) := a(j) + 1; endfor"
  in
  let good = Parser.parse_string good_src in
  let ast', rep_ok = Xform.Restructure.optimize good in
  check pair_t "aligned fusion applied, nothing killed" (1, 0)
    (fused_killed rep_ok);
  let syms = [ ("n", 3) ] in
  let serial = Xform.Exec.run_serial ~init (analyze good_src) ~syms in
  let u = Compile.program (Sema.analyze ast') ~syms in
  let t = Vm.create ~init u in
  Vm.run t;
  match Vm.check_against ~init t serial with
  | [] -> ()
  | diffs ->
    Alcotest.failf "fused loops diverge: %s" (Vm.diff_string diffs)

(* The pairwise fusion test against the full graph of the trial
   program: fusion_legal must say "legal" exactly when no Graph.build
   edge runs from a second-body label to a first-body label. *)

let rec stmt_labels (s : Ast.stmt) =
  match s with
  | Ast.Assign { label; _ } -> Option.to_list label
  | Ast.For { body; _ } -> List.concat_map stmt_labels body

let graph_fusion_legal (fused : Ast.program) ~ls1 ~ls2 =
  match Xform.Graph.build (Sema.analyze fused) with
  | exception _ -> false
  | g ->
    not
      (List.exists
         (fun (e : Xform.Graph.edge) ->
           List.mem e.e_src.Ir.label ls2 && List.mem e.e_dst.Ir.label ls1)
         g.edges)

let check_fusion_agrees what (fused : Ast.program) ~ls1 ~ls2 =
  let pairwise = Xform.Restructure.fusion_legal fused ~ls1 ~ls2 in
  check bool_t
    (Printf.sprintf "%s: pairwise check = full-graph check" what)
    (graph_fusion_legal fused ~ls1 ~ls2)
    pairwise;
  pairwise

(* Every adjacent pair of loops with the same variable, bounds and step,
   at any depth, textually fused: (fused program, ls1, ls2). *)
let fusion_sites (p : Ast.program) =
  let rec sites (stmts : Ast.stmt list) =
    let here =
      let rec pairs before = function
        | (Ast.For a as s1) :: (Ast.For b as s2) :: rest
          when a.var = b.var && a.lo = b.lo && a.hi = b.hi && a.step = b.step
          ->
          let fused = Ast.For { a with body = a.body @ b.body } in
          ( List.rev_append before (fused :: rest),
            stmt_labels s1,
            stmt_labels s2 )
          :: pairs (s1 :: before) (s2 :: rest)
        | s :: rest -> pairs (s :: before) rest
        | [] -> []
      in
      pairs [] stmts
    in
    let nested =
      List.concat
        (List.mapi
           (fun i (s : Ast.stmt) ->
             match s with
             | Ast.For f ->
               List.map
                 (fun (body, ls1, ls2) ->
                   ( List.mapi
                       (fun j s' -> if i = j then Ast.For { f with body } else s')
                       stmts,
                     ls1,
                     ls2 ))
                 (sites f.body)
             | Ast.Assign _ -> [])
           stmts)
    in
    here @ nested
  in
  List.map
    (fun (stmts, ls1, ls2) -> ({ p with Ast.stmts }, ls1, ls2))
    (sites p.Ast.stmts)

let test_fusion_pairwise () =
  let backward =
    "symbolic n; real a[0:100], b[0:100];\n\
     for i := 0 to 100 do a(i) := i; endfor\n\
     for i := 0 to 100 do b(i) := a(100 - i) + 1; endfor"
  in
  let verdicts =
    List.concat_map
      (fun (name, src) ->
        let p = Xform.Restructure.prelabel (Parser.parse_string src) in
        List.map
          (fun (fused, ls1, ls2) -> check_fusion_agrees name fused ~ls1 ~ls2)
          (fusion_sites p))
      [
        ("kill_chain", Corpus.find "kill_chain");
        ("overwrite_rows", Corpus.find "overwrite_rows");
        ("strided", Corpus.find "strided");
        ("backward", backward);
      ]
  in
  check bool_t "some site legal" true (List.mem true verdicts);
  check bool_t "some site refused" true (List.mem false verdicts)

(* Two adjacent [for i := lo to n] loops over Test_e2e's arrays, each
   body one or two statements plus, sometimes, an inner [j] loop. *)
let gen_fusion_pair =
  QCheck.Gen.(
    let pos = { Ast.line = 0; col = 0 } in
    let loop var lo body =
      Ast.For { var; lo = Ast.Int lo; hi = Ast.Name "n"; step = 1; body; pos }
    in
    let gen_body idx =
      let* n = int_range 1 2 in
      let* ss =
        flatten_l
          (List.init n (fun k -> Test_e2e.gen_stmt ~vars:[ "i" ] ~idx:(idx + k)))
      in
      let* nested = bool in
      if nested then
        let* s = Test_e2e.gen_stmt ~vars:[ "i"; "j" ] ~idx:(idx + 5) in
        return (ss @ [ loop "j" 1 [ s ] ])
      else return ss
    in
    let* lo = int_range 0 2 in
    let* b1 = gen_body 0 in
    let* b2 = gen_body 10 in
    let range = (Ast.Int (-60), Ast.Int 60) in
    return
      {
        Ast.decls =
          [
            Ast.Symbolic [ "n" ];
            Ast.Array [ ("a", [ range ]); ("x", [ range; range ]) ];
          ];
        stmts = [ loop "i" lo b1; loop "i" lo b2 ];
      })

let qcheck_fusion_pairwise =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"pairwise fusion check = full-graph check"
       (QCheck.make ~print:Ast.program_to_string gen_fusion_pair)
       (fun p ->
         List.for_all
           (fun (fused, ls1, ls2) ->
             Xform.Restructure.fusion_legal fused ~ls1 ~ls2
             = graph_fusion_legal fused ~ls1 ~ls2)
           (fusion_sites p)))

(* ------------------------------------------------------------------ *)
(* Write-kill deletion                                                 *)
(* ------------------------------------------------------------------ *)

let test_writekill () =
  let src =
    "symbolic n; real a[0:100];\n\
     for i := 0 to 100 do a(i) := 1; endfor\n\
     for i := 0 to 100 do a(i) := i + 2; endfor"
  in
  let ast', rep = Xform.Restructure.optimize (Parser.parse_string src) in
  check pair_t "loops fused, then the overwritten store deleted" (1, 1)
    (fused_killed rep);
  let syms = [ ("n", 3) ] in
  let serial = Xform.Exec.run_serial ~init (analyze src) ~syms in
  let u = Compile.program (Sema.analyze ast') ~syms in
  let t = Vm.create ~init u in
  Vm.run t;
  (match Vm.check_against ~init t serial with
  | [] -> ()
  | diffs ->
    Alcotest.failf "write-killed program diverges: %s"
      (Vm.diff_string diffs));
  (* an observed store must survive, and so must a final store *)
  let observed =
    "symbolic n; real a[0:100], b[0:100];\n\
     for i := 0 to 100 do a(i) := 1; endfor\n\
     for i := 0 to 100 do b(i) := a(i); endfor\n\
     for i := 0 to 100 do a(i) := 2; endfor"
  in
  let _, rep2 =
    Xform.Restructure.optimize (Parser.parse_string observed)
  in
  check pair_t "all three loops fused, the observed store survives" (2, 0)
    (fused_killed rep2)

(* ------------------------------------------------------------------ *)
(* Analysis cost and decisions of the whole restructurer               *)
(* ------------------------------------------------------------------ *)

(* A program no pass changes is analyzed once: optimize asks the solver
   exactly the queries of one Graph.build plus those of the fusion
   trials it refuses (cholsky's two solution K loops), with the verdict
   cache off so every query counts. *)
let test_analyzed_once () =
  let memo = !Depend.Analyses.Memo.enabled in
  Depend.Analyses.Memo.enabled := false;
  Fun.protect
    ~finally:(fun () -> Depend.Analyses.Memo.enabled := memo)
    (fun () ->
      let queries () =
        (Omega.Metrics.current ()).Omega.Metrics.queries
      in
      let delta f =
        let q0 = queries () in
        ignore (f ());
        queries () - q0
      in
      List.iter
        (fun name ->
          let ast = Parser.parse_string (Corpus.find name) in
          let build = delta (fun () -> Xform.Graph.build (Sema.analyze ast)) in
          let trials =
            delta (fun () ->
                List.iter
                  (fun (fused, ls1, ls2) ->
                    ignore (Xform.Restructure.fusion_legal fused ~ls1 ~ls2))
                  (fusion_sites (Xform.Restructure.prelabel ast)))
          in
          let ast', rep = Xform.Restructure.optimize ast in
          check bool_t (name ^ " unchanged") true
            (rep = Xform.Restructure.empty_report
            && Ast.program_to_string ast'
               = Ast.program_to_string (Xform.Restructure.prelabel ast));
          check int_t
            (name ^ ": optimize queries = one Graph.build + fusion trials")
            (build + trials)
            (delta (fun () -> Xform.Restructure.optimize ast)))
        [ "matmul"; "sor"; "wavefront1"; "cholsky"; "example6" ])

(* The decisions of every corpus program: (fused, interchanged,
   killed). *)
let expected_reports =
  [
    ("example1", (0, 0, 1)); ("example1m", (0, 0, 0));
    ("example1m_assert", (0, 0, 1)); ("example2", (0, 0, 0));
    ("example3", (0, 0, 0)); ("example4", (0, 0, 0)); ("example5", (0, 0, 0));
    ("example6", (0, 0, 0)); ("example7", (0, 0, 0)); ("example8", (0, 0, 0));
    ("example9", (0, 0, 0)); ("example10", (0, 0, 0));
    ("example11", (0, 0, 0)); ("cholsky", (0, 0, 0));
    ("cholesky_tiny", (0, 0, 0)); ("lu", (0, 0, 0));
    ("wavefront1", (0, 0, 0)); ("wavefront2", (0, 0, 0));
    ("wavefront3", (0, 0, 0)); ("sor", (0, 0, 0)); ("matmul", (0, 0, 0));
    ("transpose_sum", (0, 0, 0)); ("kill_chain", (2, 0, 1));
    ("partial_kill", (1, 0, 0)); ("triangle_cover", (0, 0, 0));
    ("independent_kill", (0, 0, 1)); ("temp_reuse", (0, 0, 0));
    ("copyin", (0, 0, 0)); ("gauss_seidel", (0, 0, 0));
    ("red_black", (0, 0, 0)); ("fib_like", (0, 0, 0));
    ("running_sum", (0, 0, 0)); ("copy_shift", (0, 0, 0));
    ("stencil9", (0, 0, 0)); ("overwrite_rows", (2, 0, 1));
    ("diag_init", (1, 0, 0)); ("strided", (1, 0, 0));
    ("reverse_copy", (0, 0, 0)); ("multi_kill", (0, 0, 1));
    ("triangular_update", (0, 0, 0)); ("even_odd_phases", (0, 0, 0));
    ("countdown_copy", (0, 0, 0)); ("prefix_sum_scalar", (0, 0, 0));
    ("banded", (0, 0, 0)); ("row_dot_private", (0, 0, 0));
  ]

let test_corpus_reports () =
  check int_t "every corpus program pinned"
    (List.length Corpus.all)
    (List.length expected_reports);
  List.iter
    (fun (name, src) ->
      let _, rep = Xform.Restructure.optimize (Parser.parse_string src) in
      check
        Alcotest.(triple int int int)
        (name ^ ": (fused, interchanged, killed)")
        (List.assoc name expected_reports)
        Xform.Restructure.(rep.x_fused, rep.x_interchanged, rep.x_killed))
    Corpus.all

(* ------------------------------------------------------------------ *)
(* Bytecode fusion on a simple kernel                                  *)
(* ------------------------------------------------------------------ *)

let test_bytecode_fusion () =
  let prog =
    analyze
      "symbolic n; real a[0:100], b[0:100];\n\
       for i := 0 to 99 do a(i) := b(i) + 1; endfor"
  in
  let syms = [ ("n", 5) ] in
  let u0 = Compile.program prog ~syms in
  let u, rep = Opt.optimize u0 in
  check bool_t "some instructions fused" true (rep.Opt.r_fused > 0);
  check bool_t "constant limit took the immediate back-edge" true
    (Array.exists
       (function Compile.LoopUpi _ -> true | _ -> false)
       u.Compile.u_main);
  (* identical final state, fewer dynamic instructions *)
  let t0 = Vm.create ~init u0 and t1 = Vm.create ~init u in
  let n0 = Vm.run_count t0 and n1 = Vm.run_count t1 in
  check bool_t "optimized state identical" true (Vm.equal_state t0 t1);
  check bool_t
    (Printf.sprintf "dynamic count shrank (%d -> %d)" n0 n1)
    true (n1 < n0);
  (* static counts name the new opcodes *)
  let names = List.map fst (Opt.static_counts u) in
  check bool_t "fused opcodes in the listing" true
    (List.exists
       (fun m -> List.mem m names)
       [ "mald"; "mast"; "aild"; "aist"; "addst"; "subst"; "mulst" ])

(* Production-mode corpus differential: every corpus kernel,
   restructured and fused, ends with the interpreter's final memory. *)
let test_optimized_corpus () =
  let total_fused = ref 0 and executed = ref 0 in
  List.iter
    (fun (name, src) ->
      let ast = Parser.parse_string src in
      let prog = Sema.analyze ast in
      match
        Xform.Oracle.pick_syms ~candidates:[ 6; 5; 4; 3; 2; 1 ] prog
      with
      | None -> ()
      | Some syms -> (
        match Xform.Exec.run_serial ~init prog ~syms with
        | exception Interp.Runtime_error _ -> ()
        | serial -> (
          let ast', _ = Xform.Restructure.optimize ast in
          incr executed;
          let u, rep = Opt.optimize (Compile.program (Sema.analyze ast') ~syms) in
          total_fused := !total_fused + rep.Opt.r_fused;
          let t = Vm.create ~init u in
          Vm.run t;
          match Vm.check_against ~init t serial with
          | [] -> ()
          | diffs ->
            Alcotest.failf "%s: optimized pipeline diverges: %s" name
              (Vm.diff_string diffs))))
    Corpus.all;
  check bool_t "enough corpus kernels optimized" true (!executed >= 8);
  check bool_t "corpus-wide fusions happened" true (!total_fused > 0)

(* ------------------------------------------------------------------ *)
(* QCheck: the optimized pipeline is bit-identical on random nests     *)
(* ------------------------------------------------------------------ *)

let arb_nest =
  QCheck.make ~print:Ast.program_to_string ~shrink:Test_exec.shrink_program
    (QCheck.gen Test_e2e.arb_program)

let prop_optimized (ast : Ast.program) : bool =
  let prog = Sema.analyze ast in
  let ast', _ = Xform.Restructure.optimize ast in
  List.for_all
    (fun nval ->
      let syms = [ ("n", nval) ] in
      match Xform.Exec.run_serial ~init prog ~syms with
      | exception Interp.Runtime_error _ -> true
      | serial ->
        let u = Compile.program (Sema.analyze ast') ~syms in
        let t = Vm.create ~init (fst (Opt.optimize u)) in
        Vm.run t;
        Vm.check_against ~init t serial = [])
    [ 4; 7 ]

let qcheck_optimized =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"optimized pipeline bit-identical to the interpreter" arb_nest
       prop_optimized)

let suite =
  ( "opt",
    [
      Alcotest.test_case "fusion licensing" `Quick test_fusion;
      Alcotest.test_case "fusion refusal programs: pairwise = graph" `Quick
        test_fusion_pairwise;
      qcheck_fusion_pairwise;
      Alcotest.test_case "write-kill deletion" `Quick test_writekill;
      Alcotest.test_case "unchanged program analyzed once" `Quick
        test_analyzed_once;
      Alcotest.test_case "corpus restructure reports pinned" `Quick
        test_corpus_reports;
      Alcotest.test_case "bytecode fusion" `Quick test_bytecode_fusion;
      Alcotest.test_case "optimized corpus matches serial" `Slow
        test_optimized_corpus;
      qcheck_optimized;
    ] )

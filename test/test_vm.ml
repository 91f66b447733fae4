(* Differential testing of the bytecode compiler + VM (Lang.Compile /
   Lang.Vm) against the tracing interpreter.

   The contract: every program compiles (only an unbound symbol is
   refused), and the VM's final memory must be bit-identical to
   interpreter execution — serially, and under parallel plans (std and
   ext) chunked over a 4-domain pool.  Total-memory equality is checked
   both ways: every location the interpreter wrote matches the arena or
   its sparse cell, every arena cell it never wrote still holds its
   initial value, and no sparse cell exists that it never wrote.

   The section 5 programs (index arrays, opaque bounds, products of loop
   variables, a scalar-indexed subscript) run on run-time addresses and
   sparse arrays; their dense/sparse split and the programs whose
   extents are too large or overflow are pinned here too. *)

open Lang

let check = Alcotest.check
let bool_t = Alcotest.bool

(* Same deterministic nonzero fill as test_exec. *)
let init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

let pool () = Test_exec.pool ()

let analyze_src src =
  let prog = Sema.analyze (Parser.parse_string src) in
  (prog, Xform.Parallel.analyze (Xform.Graph.build prog))

let sym_settings =
  [ [ 3; 4; 2; 5; 6; 1; 10; 50; 100 ]; [ 7; 5; 2; 10; 1; 50; 100 ] ]

(* ------------------------------------------------------------------ *)
(* Corpus differential                                                 *)
(* ------------------------------------------------------------------ *)

let has_sparse_op =
  Array.exists (function Compile.LdH _ | Compile.StH _ -> true | _ -> false)

let test_corpus_differential () =
  let executed = ref 0 in
  let unsupported = ref [] in
  let sparse_in_regions = ref [] in
  List.iter
    (fun (name, src) ->
      let prog, vs = analyze_src src in
      List.iteri
        (fun si candidates ->
          match Xform.Oracle.pick_syms ~candidates prog with
          | None -> ()
          | Some syms -> (
            match Xform.Exec.run_serial ~init prog ~syms with
            | exception Interp.Runtime_error _ -> ()
            | serial -> (
              match Xform.Exec.run_serial_vm ~init prog ~syms with
              | exception Compile.Unsupported _ ->
                unsupported := name :: !unsupported
              | tvm ->
                incr executed;
                (match Vm.check_against ~init tvm serial with
                | [] -> ()
                | diffs ->
                  Alcotest.failf "%s (setting %d, serial VM) diverges: %s" name
                    si
                    (Vm.diff_string diffs));
                List.iter
                  (fun (label, side) ->
                    let pl = Xform.Exec.plan side vs in
                    let u = Xform.Exec.compile_plan pl prog ~syms in
                    if Array.exists
                         (fun (r : Compile.region) ->
                           has_sparse_op r.Compile.rg_serial
                           || has_sparse_op r.Compile.rg_par)
                         u.Compile.u_regions
                    then sparse_in_regions := name :: !sparse_in_regions;
                    (* par_threshold 0: force even tiny regions through
                       the parallel path so it actually gets exercised *)
                    let tpar, stats =
                      Xform.Exec.run_compiled_vm ~pool:(pool ())
                        ~par_threshold:0 ~init u
                    in
                    check Alcotest.int
                      (Printf.sprintf "%s: pool of 4" name)
                      4 stats.Xform.Exec.x_domains;
                    if not (Vm.equal_state tvm tpar) then
                      Alcotest.failf
                        "%s (setting %d, %s plan, %d regions) parallel VM \
                         diverges: %s"
                        name si label stats.Xform.Exec.x_regions
                        (Vm.diff_string (Vm.check_against ~init tpar serial)))
                  [ ("std", Xform.Exec.Std); ("ext", Xform.Exec.Ext) ])))
        sym_settings)
    Corpus.all;
  check bool_t "at least 60 program/setting runs executed" true
    (!executed >= 60);
  check (Alcotest.list Alcotest.string) "every corpus program compiles" []
    (List.sort_uniq compare !unsupported);
  check (Alcotest.list Alcotest.string) "no region body touches a sparse array"
    []
    (List.sort_uniq compare !sparse_in_regions)

(* ------------------------------------------------------------------ *)
(* Dense or sparse: decided from the program                           *)
(* ------------------------------------------------------------------ *)

let dense u = List.map (fun a -> a.Compile.a_name) u.Compile.u_arrays

let sparse u =
  Array.to_list (Array.map (fun s -> s.Compile.s_name) u.Compile.u_sparse)

(* At the benches' sizes (the smoke and full speedup targets and the
   end-to-end one), example10's product subscript stays dense — behind a
   per-dimension check — while the index-array, opaque-bound and
   scalar-indexed subscripts of examples 8, 9 and 11 make [a] sparse and
   leave every other array dense. *)
let test_corpus_layouts () =
  let strs = Alcotest.(list string) in
  List.iter
    (fun target ->
      List.iter
        (fun (name, want_dense, want_sparse) ->
          let prog = Sema.parse_and_analyze (Corpus.find name) in
          match Xform.Oracle.scaled_syms ~target prog with
          | None -> Alcotest.failf "%s: no sizes at target %d" name target
          | Some syms ->
            let u = Compile.program prog ~syms in
            let what = Printf.sprintf "%s at target %d" name target in
            check strs (what ^ ": dense") want_dense
              (List.sort compare (dense u));
            check strs (what ^ ": sparse") want_sparse (sparse u))
        [
          ("example8", [ "c"; "q" ], [ "a" ]);
          ("example9", [ "b" ], [ "a" ]);
          ("example10", [ "a" ], []);
          ("example11", [ "bb"; "k" ], [ "a" ]);
        ])
    [ 8_000; 50_000; 150_000 ];
  let prog = Sema.parse_and_analyze (Corpus.find "example10") in
  let u = Compile.program prog ~syms:[ ("n", 20) ] in
  check bool_t "example10's product subscript is checked" true
    (Array.exists (function Compile.Chk _ -> true | _ -> false) u.Compile.u_main)

(* A subscript whose extent passes the arena limit ([i^10] at n = 7:
   7 cells spread over [1, 282475249]) or overflows the interval
   analysis ([i^20] at n = 10) compiles to a sparse array and matches
   the interpreter. *)
let test_sparse_extents () =
  let power k =
    String.concat "*" (List.init k (fun _ -> "i"))
  in
  List.iter
    (fun (k, n) ->
      let src =
        Printf.sprintf
          "symbolic n;\nreal a[1:10];\nfor i := 1 to n do\n  a(%s) := a(%s) + i;\nendfor\n"
          (power k) (power k)
      in
      let prog = Sema.parse_and_analyze src in
      let syms = [ ("n", n) ] in
      let what = Printf.sprintf "a(i^%d) at n = %d" k n in
      let serial = Xform.Exec.run_serial ~init prog ~syms in
      let tvm = Xform.Exec.run_serial_vm ~init prog ~syms in
      check Alcotest.(list string) (what ^ ": sparse") [ "a" ]
        (sparse (Vm.unit_ tvm));
      check Alcotest.int (what ^ ": one cell per iteration") n
        (List.length (Vm.sparse_cells tvm));
      match Vm.check_against ~init tvm serial with
      | [] -> ()
      | diffs -> Alcotest.failf "%s diverges: %s" what (Vm.diff_string diffs))
    [ (10, 7); (20, 10) ]

(* ------------------------------------------------------------------ *)
(* Threshold fallback and copy-in are both load-bearing                *)
(* ------------------------------------------------------------------ *)

(* Under the default threshold, tiny regions are inlined (x_inline > 0,
   no chunks); with threshold 0 they dispatch.  Final state identical
   either way. *)
let test_threshold_inlines_small_regions () =
  let prog, vs = analyze_src (Corpus.find "example6") in
  let syms = [ ("n", 10); ("m", 10) ] in
  let pl = Xform.Exec.plan Xform.Exec.Ext vs in
  let serial = Xform.Exec.run_serial ~init prog ~syms in
  let t_thr, s_thr =
    Xform.Exec.run_parallel_vm ~pool:(pool ()) ~init pl prog ~syms
  in
  let t_par, s_par =
    Xform.Exec.run_parallel_vm ~pool:(pool ()) ~par_threshold:0 ~init pl prog
      ~syms
  in
  check bool_t "small regions inlined under default threshold" true
    (s_thr.Xform.Exec.x_inline > 0 && s_thr.Xform.Exec.x_regions = 0);
  check bool_t "threshold 0 dispatches them" true
    (s_par.Xform.Exec.x_regions > 0);
  check bool_t "inlined result matches interpreter" true
    (Vm.check_against ~init t_thr serial = []);
  check bool_t "dispatched result matches interpreter" true
    (Vm.check_against ~init t_par serial = [])

(* Slab copy-in is what feeds first-read-before-write iterations of a
   privatized array; disabling it must diverge on the copyin kernel. *)
let test_copy_in_load_bearing () =
  let prog, vs = analyze_src (Corpus.find "copyin") in
  let syms = [ ("n", 30); ("m", 30) ] in
  let pl = Xform.Exec.plan Xform.Exec.Ext vs in
  check bool_t "copyin kernel has an ext doall" true
    (Xform.Exec.doall_count pl > 0);
  let serial = Xform.Exec.run_serial ~init prog ~syms in
  let t_ok, _ =
    Xform.Exec.run_parallel_vm ~pool:(pool ()) ~par_threshold:0 ~init pl prog
      ~syms
  in
  let t_bad, _ =
    Xform.Exec.run_parallel_vm ~pool:(pool ()) ~par_threshold:0 ~init
      ~no_copy_in:true pl prog ~syms
  in
  check bool_t "with copy-in: matches serial" true
    (Vm.check_against ~init t_ok serial = []);
  check bool_t "without copy-in: diverges" false
    (Vm.check_against ~init t_bad serial = [])

(* ------------------------------------------------------------------ *)
(* Every arena access is bounds-checked                                *)
(* ------------------------------------------------------------------ *)

(* The VM's contract: a compiler or optimizer bug surfaces as an
   exception, not a wild read or write.  Each arena opcode, plain or
   fused, is run from a hand-built main body against an address just
   past either end of the arena; it must raise [Invalid_argument] with
   the arena untouched, under [run] and under [run_count]'s instrumented
   copy of the code. *)
let test_arena_bounds_checked () =
  let prog, _ =
    analyze_src "real a[0:3];\nfor i := 0 to 3 do a(i) := i; endfor"
  in
  let u = Compile.program prog ~syms:[] in
  check bool_t "arena is non-empty" true (u.Compile.u_arena > 0);
  (* r0 holds the (partial) address, r1 receives loads, r2 is the
     multiplier/addend, r3 the stored value *)
  let cases bad =
    Compile.
      [
        ("ld", [ Li (0, bad); Ld (1, 0) ]);
        ("ldi", [ Ldi (1, bad) ]);
        ("st", [ Li (0, bad); Li (3, 99); St (0, 3) ]);
        ("sti", [ Li (3, 99); Sti (bad, 3) ]);
        ("mald", [ Li (0, bad - 2); Li (2, 1); MuladdLd (1, 0, 2, 2) ]);
        ( "mast",
          [ Li (0, bad - 2); Li (2, 1); Li (3, 99); MuladdSt (0, 2, 2, 3) ] );
        ("aild", [ Li (0, bad - 1); AddiLd (1, 0, 1) ]);
        ("aist", [ Li (0, bad - 1); Li (3, 99); AddiSt (0, 1, 3) ]);
        ("addst", [ Li (0, bad); Li (2, 5); Li (3, 6); AddSt (0, 2, 3) ]);
        ("subst", [ Li (0, bad); Li (2, 5); Li (3, 6); SubSt (0, 2, 3) ]);
        ("mulst", [ Li (0, bad); Li (2, 5); Li (3, 6); MulSt (0, 2, 3) ]);
      ]
  in
  List.iter
    (fun bad ->
      List.iter
        (fun (op, body) ->
          let u' =
            {
              u with
              Compile.u_main = Array.of_list (body @ [ Compile.Halt ]);
              u_nregs = max u.Compile.u_nregs 4;
            }
          in
          List.iter
            (fun (loop, run) ->
              let t = Vm.create ~init u' in
              let before = Array.copy (Vm.arena t) in
              let what = Printf.sprintf "%s at %d (%s)" op bad loop in
              (match run t with
              | () -> Alcotest.failf "%s: no exception" what
              | exception Invalid_argument _ -> ());
              check bool_t (what ^ ": arena unchanged") true
                (Vm.arena t = before))
            [
              ("run", fun t -> Vm.run t);
              ("run_count", fun t -> ignore (Vm.run_count t));
            ])
        (cases bad))
    [ u.Compile.u_arena; -1 ]

(* The run-time address opcodes keep the contract: a dense subscript
   outside its dimension's extent ([chk]) and a sparse access naming a
   table the unit does not have ([ldh]/[sth]) raise [Invalid_argument]
   with memory untouched, under [run] and under [run_count]'s
   instrumented copy of the code.  The unit has one
   sparse array ([a], through the index array [q]) and one dense
   dimension [0:3]. *)
let test_runtime_address_checks () =
  let prog, _ =
    analyze_src
      "real a[0:3], q[0:3];\nfor i := 0 to 3 do a(q(i)) := i; endfor"
  in
  let u = Compile.program prog ~syms:[] in
  let nsparse = Array.length u.Compile.u_sparse in
  check Alcotest.(list string) "a is sparse" [ "a" ] (sparse u);
  let cases =
    Compile.
      [
        ("chk below", [ Li (0, -1); Chk (0, 0, 3) ]);
        ("chk above", [ Li (0, 4); Chk (0, 0, 3) ]);
        ("ldh past the tables", [ Li (0, 2); LdH (1, nsparse, [| 0 |]) ]);
        ("ldh at -1", [ Li (0, 2); LdH (1, -1, [| 0 |]) ]);
        ( "sth past the tables",
          [ Li (0, 2); Li (3, 99); StH (nsparse, [| 0 |], 3) ] );
        ("sth at -1", [ Li (0, 2); Li (3, 99); StH (-1, [| 0 |], 3) ]);
      ]
  in
  (* the main body first fills one sparse cell, so "untouched" is not
     vacuous *)
  let prefix = Compile.[ Li (0, 1); Li (3, 42); StH (0, [| 0 |], 3) ] in
  List.iter
    (fun (op, body) ->
      let u' =
        {
          u with
          Compile.u_main = Array.of_list (prefix @ body @ [ Compile.Halt ]);
          u_nregs = max u.Compile.u_nregs 4;
        }
      in
      List.iter
        (fun (loop, run) ->
          let t = Vm.create ~init u' in
          let arena0 = Array.copy (Vm.arena t) in
          let what = Printf.sprintf "%s (%s)" op loop in
          (match run t with
          | () -> Alcotest.failf "%s: no exception" what
          | exception Invalid_argument _ -> ());
          check bool_t (what ^ ": arena unchanged") true (Vm.arena t = arena0);
          check bool_t (what ^ ": sparse cells unchanged") true
            (Vm.sparse_cells t = [ (("a", [ 1 ]), 42) ]))
        [
          ("run", fun t -> Vm.run t);
          ("run_count", fun t -> ignore (Vm.run_count t));
        ])
    cases

(* ------------------------------------------------------------------ *)
(* Random nests: compilation matches interpretation bit-for-bit        *)
(* ------------------------------------------------------------------ *)

let prop_vm_matches_interp (ast : Ast.program) : bool =
  let prog = Sema.analyze ast in
  let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
  List.for_all
    (fun nval ->
      let syms = [ ("n", nval) ] in
      match Xform.Exec.run_serial ~init prog ~syms with
      | exception Interp.Runtime_error _ -> true
      | serial ->
        let tvm = Xform.Exec.run_serial_vm ~init prog ~syms in
        (* [run_count] runs the instrumented copy of a unit: without a
           plan, and with the ext plan's regions (their serial bodies
           are instrumented too) *)
        let counted u =
          let t = Vm.create ~init u in
          ignore (Vm.run_count t);
          Vm.check_against ~init t serial = []
        in
        Vm.check_against ~init tvm serial = []
        && counted (Compile.program prog ~syms)
        && counted
             (Xform.Exec.compile_plan (Xform.Exec.plan Xform.Exec.Ext vs) prog
                ~syms)
        && List.for_all
             (fun side ->
               let pl = Xform.Exec.plan side vs in
               let tpar, _ =
                 Xform.Exec.run_parallel_vm ~pool:(pool ()) ~par_threshold:0
                   ~init pl prog ~syms
               in
               Vm.equal_state tvm tpar)
             [ Xform.Exec.Std; Xform.Exec.Ext ])
    [ 3; 4 ]

(* Random nests with section 5 terms (Test_e2e.gen_opaque_program): the
   serial VM, the optimized VM (Opt.optimize) and 4-domain std/ext plans
   with every region dispatched all reproduce the interpreter's final
   memory.  Source restructuring is left out: its write-kill trusts the
   analysis's kills, which are not sound for opaque killers yet (see
   ROADMAP). *)
let prop_opaque_matches_interp (ast : Ast.program) : bool =
  let prog = Sema.analyze ast in
  let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
  let run u =
    let t = Vm.create ~init u in
    Vm.run t;
    t
  in
  List.for_all
    (fun nval ->
      let syms = [ ("n", nval) ] in
      match Xform.Exec.run_serial ~init prog ~syms with
      | exception Interp.Runtime_error _ -> true
      | serial ->
        let matches t = Vm.check_against ~init t serial = [] in
        matches (run (Compile.program prog ~syms))
        && matches (run (fst (Opt.optimize (Compile.program prog ~syms))))
        && List.for_all
             (fun side ->
               let pl = Xform.Exec.plan side vs in
               let tpar, _ =
                 Xform.Exec.run_parallel_vm ~pool:(pool ()) ~par_threshold:0
                   ~init pl prog ~syms
               in
               matches tpar)
             [ Xform.Exec.Std; Xform.Exec.Ext ])
    [ 3; 4 ]

let arb_opaque =
  QCheck.make ~print:Ast.program_to_string ~shrink:Test_exec.shrink_program
    Test_e2e.gen_opaque_program

(* The generator reaches the new code: over a fixed-seed sample, some
   programs get sparse arrays and some a checked dense subscript, and
   every printed program (a counterexample report) parses back. *)
let test_opaque_generator_coverage () =
  let rand = Random.State.make [| 20 |] in
  let sparse_n = ref 0 and chk_n = ref 0 in
  for _ = 1 to 200 do
    let ast = QCheck.Gen.generate1 ~rand Test_e2e.gen_opaque_program in
    ignore (Parser.parse_string (Ast.program_to_string ast));
    let prog = Sema.analyze ast in
    let u = Compile.program prog ~syms:[ ("n", 4) ] in
    if Array.length u.Compile.u_sparse > 0 then incr sparse_n;
    if Array.exists (function Compile.Chk _ -> true | _ -> false) u.Compile.u_main
    then incr chk_n
  done;
  check bool_t "some programs have sparse arrays" true (!sparse_n > 20);
  check bool_t "some programs have checked dense subscripts" true (!chk_n > 5)

let prop_tests =
  [
    QCheck.Test.make
      ~name:"random nests: compiled VM (serial + parallel) matches interpreter"
      ~count:60 Test_exec.arb_nest prop_vm_matches_interp;
    QCheck.Test.make
      ~name:"random opaque nests: VM, optimized VM and plans match interpreter"
      ~count:60 arb_opaque prop_opaque_matches_interp;
  ]

let suite =
  ( "vm",
    [
      Alcotest.test_case "corpus: VM serial + parallel match interpreter"
        `Quick test_corpus_differential;
      Alcotest.test_case "tiny regions inline below par threshold" `Quick
        test_threshold_inlines_small_regions;
      Alcotest.test_case "slab copy-in is load-bearing" `Quick
        test_copy_in_load_bearing;
      Alcotest.test_case "every arena opcode is bounds-checked" `Quick
        test_arena_bounds_checked;
      Alcotest.test_case "checked and sparse opcodes raise, memory untouched"
        `Quick test_runtime_address_checks;
      Alcotest.test_case "corpus dense/sparse layouts at bench sizes" `Quick
        test_corpus_layouts;
      Alcotest.test_case "past-limit and overflowing extents go sparse" `Quick
        test_sparse_extents;
      Alcotest.test_case "opaque generator reaches sparse and checked code"
        `Quick test_opaque_generator_coverage;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) prop_tests )

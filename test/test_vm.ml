(* Differential testing of the bytecode compiler + VM (Lang.Compile /
   Lang.Vm) against the tracing interpreter.

   The contract: for every program the compiler accepts, the VM's final
   arena must be bit-identical to interpreter execution — serially, and
   under parallel plans (std and ext) chunked over a 4-domain pool.
   Total-memory equality is checked both ways: every location the
   interpreter wrote matches the arena, and every arena cell it never
   wrote still holds its initial value.

   Programs with opaque subscripts or bounds (index arrays) are outside
   the compiler's domain and must raise Compile.Unsupported — also
   checked, so a silently mis-compiled opaque kernel can't hide. *)

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

let test_corpus_differential () =
  let executed = ref 0 in
  let unsupported = ref [] in
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
                    (* par_threshold 0: force even tiny regions through
                       the parallel path so it actually gets exercised *)
                    let tpar, stats =
                      Xform.Exec.run_parallel_vm ~pool:(pool ())
                        ~par_threshold:0 ~init pl prog ~syms
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
  (* opacity must be the only reason for rejection *)
  List.iter
    (fun n ->
      check bool_t
        (Printf.sprintf "%s rejected only for opacity" n)
        true
        (List.mem n [ "example8"; "example9"; "example10"; "example11" ]))
    (List.sort_uniq compare !unsupported)

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
   the arena untouched, in both dispatch loops. *)
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
        Vm.check_against ~init tvm serial = []
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

let prop_tests =
  [
    QCheck.Test.make
      ~name:"random nests: compiled VM (serial + parallel) matches interpreter"
      ~count:60 Test_exec.arb_nest prop_vm_matches_interp;
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
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) prop_tests )

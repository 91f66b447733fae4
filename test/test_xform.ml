(* Tests for the transformation layer: dependence graph construction,
   doall legality (standard vs extended), privatization, the DOT/JSON
   emitters, and the interpreter oracle over the whole corpus plus
   random programs. *)

open Lang

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let build name =
  let prog = Sema.analyze (Parser.parse_string (Corpus.find name)) in
  Xform.Graph.build prog

let verdicts name =
  let g = build name in
  (g, Xform.Parallel.analyze g)

(* ------------------------------------------------------------------ *)
(* Graph construction                                                   *)
(* ------------------------------------------------------------------ *)

let test_graph_example1 () =
  let g = build "example1" in
  check int_t "three statements" 3 (List.length g.Xform.Graph.nodes);
  check int_t "two loops" 2 (List.length g.Xform.Graph.loops);
  let flows = Xform.Graph.kind_edges g Depend.Deps.Flow in
  let antis = Xform.Graph.kind_edges g Depend.Deps.Anti in
  let outputs = Xform.Graph.kind_edges g Depend.Deps.Output in
  check int_t "two flow edges" 2 (List.length flows);
  check int_t "no anti edges" 0 (List.length antis);
  check int_t "one output edge" 1 (List.length outputs);
  let dead, live = List.partition (fun e -> not (Xform.Graph.live e)) flows in
  check int_t "one dead flow (A killed by B)" 1 (List.length dead);
  check int_t "one live flow (B -> C)" 1 (List.length live);
  (match dead with
  | [ e ] ->
    check Alcotest.string "killed edge source" "A" e.Xform.Graph.e_src.Ir.label;
    (match e.Xform.Graph.e_status with
    | Xform.Graph.Dead (Depend.Driver.Killed k) ->
      check Alcotest.string "killer" "B" k.Ir.label
    | _ -> Alcotest.fail "expected a Killed status")
  | _ -> ());
  match live with
  | [ e ] ->
    check Alcotest.string "live edge source" "B" e.Xform.Graph.e_src.Ir.label;
    check Alcotest.string "live edge dest" "C" e.Xform.Graph.e_dst.Ir.label
  | _ -> ()

let test_graph_levels () =
  (* wavefront1: s reads a(i-1,j) and a(i,j-1); the (1,0) flow is carried
     at level 1, the (0,1) flow at level 2 *)
  let g = build "wavefront1" in
  let flows =
    List.filter Xform.Graph.live (Xform.Graph.kind_edges g Depend.Deps.Flow)
  in
  let levels =
    List.sort compare
      (List.concat_map (fun e -> e.Xform.Graph.e_levels) flows)
  in
  check (Alcotest.list int_t) "carried levels" [ 1; 2 ] levels;
  List.iter
    (fun e ->
      check int_t "two common loops" 2 (List.length e.Xform.Graph.e_loops))
    flows

(* ------------------------------------------------------------------ *)
(* Doall legality                                                       *)
(* ------------------------------------------------------------------ *)

(* (loop path, standard doall, extended doall), in textual order *)
let legality_cases =
  [
    ("example1", [ ("L1", true, true); ("L1", true, true) ]);
    ( "example2",
      [ ("L1", false, true); ("L1/L2", false, true); ("L1/L2", true, true) ]
    );
    ("example3", [ ("L1", false, true); ("L1/L2", false, false) ]);
    ("example4", [ ("L1", false, true); ("L1/L2", false, false) ]);
    ("example5", [ ("L1", false, false); ("L1/L2", false, false) ]);
    ("example6", [ ("L1", false, false); ("L1/L2", true, true) ]);
    ( "temp_reuse",
      [ ("i", false, true); ("i/j", true, true); ("i/j", true, true) ] );
    ( "triangle_cover",
      [ ("i", false, true); ("i/j", true, true); ("i/j", true, true) ] );
    ("wavefront1", [ ("i", false, false); ("i/j", false, false) ]);
    ( "matmul",
      [ ("i", true, true); ("i/j", true, true); ("i/j/k", false, false) ] );
  ]

let test_legality name expected () =
  let _, vs = verdicts name in
  check int_t "number of loops" (List.length expected) (List.length vs);
  List.iter2
    (fun (path, std, ext) (v : Xform.Parallel.verdict) ->
      check Alcotest.string "loop path" path (Xform.Parallel.loop_path v.Xform.Parallel.v_loop);
      check bool_t (path ^ " standard") std v.Xform.Parallel.v_std_doall;
      check bool_t (path ^ " extended") ext v.Xform.Parallel.v_ext_doall;
      if not std then
        check bool_t (path ^ " has std blockers") true
          (v.Xform.Parallel.v_std_blockers <> []);
      if not ext then
        check bool_t (path ^ " has ext blockers") true
          (v.Xform.Parallel.v_ext_blockers <> []))
    expected vs

let test_privatization () =
  let _, vs = verdicts "temp_reuse" in
  (match vs with
  | v :: _ ->
    let privs =
      List.map (fun p -> p.Xform.Privatize.p_array) v.Xform.Parallel.v_private
    in
    check (Alcotest.list Alcotest.string) "temp_reuse privatizes t" [ "t" ]
      privs
  | [] -> Alcotest.fail "no loops in temp_reuse");
  let _, vs = verdicts "example2" in
  match vs with
  | v :: _ ->
    let privs =
      List.sort compare
        (List.map
           (fun p -> p.Xform.Privatize.p_array)
           v.Xform.Parallel.v_private)
    in
    check (Alcotest.list Alcotest.string) "example2 L1 privatizes a and x"
      [ "a"; "x" ] privs
  | [] -> Alcotest.fail "no loops in example2"

let test_extended_wins () =
  (* the acceptance claim: somewhere in the corpus the extended analysis
     parallelizes a loop the standard analysis cannot *)
  let wins =
    List.filter
      (fun (name, _) ->
        let _, vs = verdicts name in
        let std, ext = Xform.Parallel.count_doall vs in
        ext > std)
      Corpus.all
  in
  check bool_t "extended analysis beats standard somewhere" true
    (List.length wins >= 3);
  check bool_t "temp_reuse is one of the wins" true
    (List.mem_assoc "temp_reuse" (List.map (fun (n, _) -> (n, ())) wins))

(* ------------------------------------------------------------------ *)
(* DOT / JSON emitters                                                  *)
(* ------------------------------------------------------------------ *)

let trim = String.trim

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A small structural validator: brace balance, every edge endpoint
   declared, dead/live styling distinguished. *)
let check_dot dot =
  check bool_t "starts with digraph" true
    (String.length dot > 8 && String.sub dot 0 8 = "digraph ");
  let balance =
    String.fold_left
      (fun n c -> if c = '{' then n + 1 else if c = '}' then n - 1 else n)
      0 dot
  in
  check int_t "braces balanced" 0 balance;
  let lines = List.map trim (String.split_on_char '\n' dot) in
  let declared =
    List.filter_map
      (fun l ->
        if
          String.length l > 1
          && l.[0] = 's'
          && contains l "[label="
          && not (contains l "->")
        then Some (List.hd (String.split_on_char ' ' l))
        else None)
      lines
  in
  let edges = List.filter (fun l -> contains l "->") lines in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | src :: "->" :: dst :: _ ->
        check bool_t ("declared src " ^ src) true (List.mem src declared);
        check bool_t ("declared dst " ^ dst) true (List.mem dst declared)
      | _ -> Alcotest.fail ("unparseable edge line: " ^ l))
    edges;
  edges

let test_dot_valid () =
  List.iter
    (fun (name, _) -> ignore (check_dot (Xform.Graph.to_dot (build name))))
    Corpus.all

let test_dot_live_dead () =
  let edges = check_dot (Xform.Graph.to_dot (build "example1")) in
  check bool_t "a dead edge is gray and labeled with its killer" true
    (List.exists
       (fun l -> contains l "gray60" && contains l "killed by B")
       edges);
  check bool_t "a live edge is black" true
    (List.exists (fun l -> contains l "color=black") edges)

let test_json_valid () =
  List.iter
    (fun (name, _) ->
      let js = Xform.Graph.to_json (build name) in
      let bal open_c close_c =
        String.fold_left
          (fun n c ->
            if c = open_c then n + 1 else if c = close_c then n - 1 else n)
          0 js
      in
      check int_t (name ^ ": objects balanced") 0 (bal '{' '}');
      check int_t (name ^ ": arrays balanced") 0 (bal '[' ']');
      check bool_t (name ^ ": has nodes") true (contains js "\"nodes\":"))
    Corpus.all;
  let js = Xform.Graph.to_json (build "example1") in
  check bool_t "dead edge serialized" true
    (contains js "\"status\":\"killed\"");
  check bool_t "live edge serialized" true (contains js "\"status\":\"live\"")

(* ------------------------------------------------------------------ *)
(* Emit                                                                 *)
(* ------------------------------------------------------------------ *)

let test_emit () =
  let g, vs = verdicts "temp_reuse" in
  let out = Xform.Emit.annotate g vs in
  check bool_t "outer loop becomes doall" true
    (contains out "doall i := 1 to n do");
  check bool_t "private annotation present" true (contains out "private(t");
  let g, vs = verdicts "wavefront1" in
  let out = Xform.Emit.annotate g vs in
  check bool_t "serial loop keeps for" true (contains out "for i := 1 to n do");
  check bool_t "blocker comment present" true (contains out "// serial:");
  (* the executor's plan round-trips as a machine-readable directive
     comment: per privatized array private(..), copyin(..) when copy-in
     is needed, lastprivate(..) when the last write must survive *)
  let g, vs = verdicts "copyin" in
  let out = Xform.Emit.annotate g vs in
  check bool_t "directive comment present" true
    (contains out "// !$ doall private(t) copyin(t) lastprivate(t)");
  let reparsed = Parser.parse_string out in
  check bool_t "annotated program still parses" true
    (reparsed.Ast.stmts <> [])

(* ------------------------------------------------------------------ *)
(* Copy-in semantics and the example9 regression                        *)
(* ------------------------------------------------------------------ *)

(* The copyin kernel reads t(0) in every iteration but writes it only
   before the loop: privatizing t is legal solely because the executor
   copies unwritten elements in from the outer state.  Finalizing to the
   serial result must therefore require copy-in - with it disabled, the
   same plan must diverge. *)
let test_copy_in_semantics () =
  let g, vs = verdicts "copyin" in
  let outer =
    match vs with v :: _ -> v | [] -> Alcotest.fail "no loops in copyin"
  in
  check bool_t "outer loop is ext doall" true outer.Xform.Parallel.v_ext_doall;
  check bool_t "outer loop is not std doall" false
    outer.Xform.Parallel.v_std_doall;
  (match outer.Xform.Parallel.v_private with
  | [ p ] ->
    check Alcotest.string "privatized array" "t" p.Xform.Privatize.p_array;
    check bool_t "copy-in required" true p.Xform.Privatize.p_copy_in;
    check bool_t "finalization required" true p.Xform.Privatize.p_finalize
  | ps ->
    Alcotest.failf "expected exactly one privatization, got %d"
      (List.length ps));
  let prog = g.Xform.Graph.prog in
  let syms = [ ("n", 6); ("m", 5) ] in
  let init = Test_exec.init in
  let serial = Xform.Exec.run_serial ~init prog ~syms in
  let pl = Xform.Exec.plan Xform.Exec.Ext vs in
  let pool = Test_exec.pool () in
  let with_copy_in, _ = Xform.Exec.run_parallel ~pool ~init pl prog ~syms in
  check bool_t "with copy-in: parallel equals serial" true
    (Xform.Exec.equal_mem serial with_copy_in);
  let without, _ =
    Xform.Exec.run_parallel ~pool ~init ~no_copy_in:true pl prog ~syms
  in
  check bool_t "without copy-in: parallel diverges" false
    (Xform.Exec.equal_mem serial without)

(* PR 1 made index-array reads in loop bounds (example9's [b(i)] /
   [b(i+1)-1]) analyzable as opaque terms instead of crashing the
   front end; lock that in. *)
let test_example9_opaque_bounds () =
  let g, vs = verdicts "example9" in
  let s =
    match
      List.find_opt
        (fun (a : Ir.access) -> a.Ir.label = "s" && a.Ir.kind = Ir.Write)
        (Array.to_list g.Xform.Graph.prog.Ir.accesses)
    with
    | Some a -> a
    | None -> Alcotest.fail "no write labeled s in example9"
  in
  check int_t "both opaque bound terms recorded" 2 (List.length s.Ir.opaques);
  check int_t "two loops analyzed" 2 (List.length vs);
  List.iter
    (fun (v : Xform.Parallel.verdict) ->
      check bool_t
        (Xform.Parallel.loop_path v.Xform.Parallel.v_loop ^ " std doall")
        true v.Xform.Parallel.v_std_doall;
      check bool_t
        (Xform.Parallel.loop_path v.Xform.Parallel.v_loop ^ " ext doall")
        true v.Xform.Parallel.v_ext_doall)
    vs

(* ------------------------------------------------------------------ *)
(* The interpreter oracle                                               *)
(* ------------------------------------------------------------------ *)

let test_oracle_corpus () =
  let checked = ref 0 and claims = ref 0 in
  List.iter
    (fun (name, _) ->
      let g, vs = verdicts name in
      match Xform.Oracle.check g vs with
      | Xform.Oracle.Report r ->
        incr checked;
        claims := !claims + r.Xform.Oracle.o_checked;
        check (Alcotest.list Alcotest.string)
          (name ^ ": oracle violations")
          []
          (List.map
             (fun v -> v.Xform.Oracle.o_what)
             r.Xform.Oracle.o_violations)
      | Xform.Oracle.No_assignment ->
        Alcotest.fail (name ^ ": no symbolic assignment found")
      | Xform.Oracle.Not_executable _ ->
        (* index-array bounds (example 9) cannot be interpreted *)
        ())
    Corpus.all;
  check bool_t "almost all corpus programs executable" true (!checked >= 40);
  check bool_t "oracle exercised real claims" true (!claims >= 50)

(* Random programs: every extended doall claim must survive execution. *)
let prop_doall_sound (ast : Ast.program) : bool =
  let prog = Sema.analyze ast in
  let g = Xform.Graph.build prog in
  let vs = Xform.Parallel.analyze g in
  List.for_all
    (fun nval ->
      match Xform.Oracle.check ~syms:[ ("n", nval) ] g vs with
      | Xform.Oracle.Report r -> r.Xform.Oracle.o_violations = []
      | Xform.Oracle.No_assignment | Xform.Oracle.Not_executable _ -> true)
    [ 3; 4 ]

let prop_tests =
  [
    QCheck.Test.make ~name:"doall claims confirmed by the interpreter"
      ~count:60 Test_e2e.arb_program prop_doall_sound;
  ]

(* ------------------------------------------------------------------ *)
(* Storage classification                                             *)
(* ------------------------------------------------------------------ *)

(* Graph.build classifies the anti and output dependences the driver
   already computed; the edges must equal a standalone classify_kind,
   and so must the classification itself, [assumed] included (which
   the edges do not carry). *)
let check_storage_classification what : int =
  let dead_id = function
    | None -> None
    | Some (Depend.Driver.Killed a) -> Some ("killed", a.Ir.acc_id)
    | Some (Depend.Driver.Covered a) -> Some ("covered", a.Ir.acc_id)
  in
  let of_fr (fr : Depend.Driver.flow_result) =
    let d = fr.Depend.Driver.dep in
    ( d.Depend.Deps.src.Ir.acc_id,
      d.Depend.Deps.dst.Ir.acc_id,
      List.map Depend.Dirvec.to_string d.Depend.Deps.vectors,
      d.Depend.Deps.levels,
      d.Depend.Deps.assumed,
      dead_id fr.Depend.Driver.dead )
  in
  let of_edge (e : Xform.Graph.edge) =
    ( e.e_src.Ir.acc_id,
      e.e_dst.Ir.acc_id,
      List.map Depend.Dirvec.to_string e.e_std_vectors,
      e.e_std_levels,
      match e.e_status with
      | Xform.Graph.Live -> None
      | Xform.Graph.Dead r -> dead_id (Some r) )
  in
  let edge_part (s, d, v, l, _, r) = (s, d, v, l, r) in
  let assumed = ref 0 in
  List.iter
    (fun (name, src) ->
      let prog = Sema.analyze (Parser.parse_string src) in
      let g = Xform.Graph.build prog in
      let res = Depend.Driver.analyze prog in
      List.iter
        (fun (kind, deps) ->
          let standalone =
            List.map of_fr (Depend.Driver.classify_kind prog kind)
          in
          let label =
            Printf.sprintf "%s %s: %s" what name (Xform.Graph.kind_string kind)
          in
          (* grouped by destination write, sources in program order *)
          let pairs = List.map (fun (s, d, _, _, _, _) -> (s, d)) standalone in
          let srcs =
            if kind = Depend.Deps.Anti then Ir.reads prog else Ir.writes prog
          in
          check bool_t (label ^ " order") true
            (pairs
            = List.concat_map
                (fun (b : Ir.access) ->
                  List.filter_map
                    (fun (a : Ir.access) ->
                      let p = (a.Ir.acc_id, b.Ir.acc_id) in
                      if List.mem p pairs then Some p else None)
                    srcs)
                (Ir.writes prog));
          check bool_t (label ^ " edges") true
            (List.map of_edge (Xform.Graph.kind_edges g kind)
            = List.map edge_part standalone);
          check bool_t (label ^ " classification") true
            (List.map of_fr
               (Depend.Driver.classify_storage res.Depend.Driver.ctx
                  ~outputs:res.Depend.Driver.outputs deps)
            = standalone);
          List.iter
            (fun (_, _, _, _, a, _) -> if a then incr assumed)
            standalone)
        [
          (Depend.Deps.Anti, res.Depend.Driver.antis);
          (Depend.Deps.Output, res.Depend.Driver.outputs);
        ])
    (Corpus.all @ Corpus.stress);
  !assumed

let test_storage_classification () =
  ignore (check_storage_classification "clean");
  Omega.Budget.set_fault_injection ~seed:11 ~rate:0.2;
  Fun.protect ~finally:Omega.Budget.clear_fault_injection (fun () ->
      check bool_t "faults reach some storage dependence" true
        (check_storage_classification "faulted" > 0))

(* A reference for the storage kill step, written from the kill
   definition alone: for each anti or output dependence into a write,
   every other write of the array is a killer, in write order; one
   without a dependence from the source ([Deps.compute]) is skipped, and
   the first whose kill query proves kills.  Assumed dependences stay
   live.  The driver's step tries only the writes with an output
   dependence into the destination and reads the screen from the lists
   it computed; it must decide the same. *)
let storage_kills prog ~reference =
  let open Depend in
  let r = Driver.analyze prog in
  let ctx = r.Driver.ctx in
  let id (a : Ir.access) = a.Ir.acc_id in
  let reference_kind deps =
    List.concat_map
      (fun (b : Ir.access) ->
        List.filter_map
          (fun (d : Deps.dep) ->
            let src = d.Deps.src in
            if id d.Deps.dst <> id b then None
            else
              let killer =
                if d.Deps.assumed then None
                else
                  List.find_opt
                    (fun (k : Ir.access) ->
                      id k <> id src && id k <> id b && k.Ir.array = b.Ir.array
                      && Deps.compute ctx ~src ~dst:k ~kind:d.Deps.kind <> None
                      && Analyses.kills ctx ~src ~killer:k ~dst:b)
                    (Ir.writes prog)
              in
              Some (id src, id b, Option.map id killer))
          deps)
      (Ir.writes prog)
  in
  let driver_kind deps =
    List.map
      (fun (fr : Driver.flow_result) ->
        ( id fr.Driver.dep.Deps.src,
          id fr.Driver.dep.Deps.dst,
          match fr.Driver.dead with
          | Some (Driver.Killed k) -> Some (id k)
          | Some (Driver.Covered _) | None -> None ))
      (Driver.classify_storage ctx ~outputs:r.Driver.outputs deps)
  in
  List.concat_map
    (if reference then reference_kind else driver_kind)
    [ r.Driver.antis; r.Driver.outputs ]

let tight =
  { Omega.Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }

(* [storage_kills] of the driver at every budget and domain count, each
   against the serial reference at the same budget. *)
let storage_kills_agree prog =
  List.for_all
    (fun lims ->
      Omega.Budget.with_limits lims (fun () ->
          let want = storage_kills prog ~reference:true in
          List.for_all
            (fun n ->
              Depend.Par.set_domains n;
              Fun.protect
                ~finally:(fun () -> Depend.Par.set_domains 1)
                (fun () -> storage_kills prog ~reference:false = want))
            [ 1; 2 ]))
    [ Omega.Budget.default; tight ]

let test_storage_kills_reference () =
  let killed = ref 0 in
  List.iter
    (fun (name, src) ->
      let prog = Sema.analyze (Parser.parse_string src) in
      check bool_t (name ^ ": storage kills = reference") true
        (storage_kills_agree prog);
      List.iter
        (fun (_, _, k) -> if k <> None then incr killed)
        (storage_kills prog ~reference:false))
    (Corpus.all @ Corpus.stress);
  check bool_t "the corpus kills some storage dependence" true (!killed > 0)

let storage_prop_tests =
  [
    QCheck.Test.make ~name:"storage kills = reference" ~count:40
      Test_e2e.arb_program (fun ast -> storage_kills_agree (Sema.analyze ast));
  ]

let suite =
  ( "xform",
    [
      Alcotest.test_case "graph: example 1 nodes and edges" `Quick
        test_graph_example1;
      Alcotest.test_case "graph: wavefront carried levels" `Quick
        test_graph_levels;
    ]
    @ List.map
        (fun (name, expected) ->
          Alcotest.test_case
            (Printf.sprintf "doall legality: %s" name)
            `Quick
            (test_legality name expected))
        legality_cases
    @ [
        Alcotest.test_case "privatization sets" `Quick test_privatization;
        Alcotest.test_case "extended-only doall wins exist" `Quick
          test_extended_wins;
        Alcotest.test_case "dot output is well formed" `Quick test_dot_valid;
        Alcotest.test_case "dot distinguishes live from dead" `Quick
          test_dot_live_dead;
        Alcotest.test_case "json output is well formed" `Quick test_json_valid;
        Alcotest.test_case "emit annotates doall and serial" `Quick test_emit;
        Alcotest.test_case "copy-in is load-bearing for privatization" `Quick
          test_copy_in_semantics;
        Alcotest.test_case "example9: opaque loop bounds analyzed" `Quick
          test_example9_opaque_bounds;
        Alcotest.test_case "oracle confirms the corpus" `Quick
          test_oracle_corpus;
        Alcotest.test_case "graph storage edges = classify_kind" `Quick
          test_storage_classification;
        Alcotest.test_case "storage kills = reference (corpus)" `Quick
          test_storage_kills_reference;
      ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        (prop_tests @ storage_prop_tests) )

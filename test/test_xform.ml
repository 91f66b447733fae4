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

(* ------------------------------------------------------------------ *)
(* Section 4 results against the all-level reference                   *)
(* ------------------------------------------------------------------ *)

(* The driver poses each kill, cover and refinement query over the
   carried levels of the dependences it concerns.  The references below
   rebuild its results from the section 4 definitions alone and pose
   every query unrestricted, over all the ordering levels of its
   accesses ([Test_perf.all_levels]).  The restriction is exact, so
   wherever the reference decides every query it asks, the two agree.
   A group in which one of the reference's queries gives up (the wider
   query can, under a tight budget) is [None]: it decides nothing, and
   is not compared.  The reference runs with the memo off, so that every
   give-up is counted where it happens. *)

let all_levels = Test_perf.all_levels

(* [ask clean f]: [f ()], clearing [clean] when a governed query gave up
   while it ran. *)
let ask clean f =
  let gave_up () = Omega.Metrics.gave_up (Omega.Metrics.current ()) in
  let before = gave_up () in
  let x = f () in
  if gave_up () <> before then clean := false;
  x

let id (a : Ir.access) = a.Ir.acc_id

let dead_string = function
  | Some (Depend.Driver.Killed k) -> "killed by " ^ k.Ir.label
  | Some (Depend.Driver.Covered c) -> "covered by " ^ c.Ir.label
  | None -> "live"

(* A flow result as compared: source, refined vectors, cover, status. *)
let flow_string (src : Ir.access) refined covers dead =
  Printf.sprintf "%s: refined [%s], covers %b, %s" src.Ir.label
    (match refined with
     | Some vecs -> String.concat " " (List.map Depend.Dirvec.to_string vecs)
     | None -> "-")
    covers dead

(* The flow results of [r], one group per read.  The reference follows
   [Driver.analyze] over the same dependences: refinement when the
   source has a self-output dependence, a cover test when the vectors
   allow a cover, cover elimination, and then, for a live exact
   dependence, the first other write of the array in write order with
   a flow dependence into the read and an output dependence from the
   source whose kill query proves. *)
let flow_groups (r : Depend.Driver.result) ~reference =
  let open Depend in
  let ctx = r.Driver.ctx in
  let group (b : Ir.access) =
    let frs =
      List.filter
        (fun (fr : Driver.flow_result) -> id fr.Driver.dep.Deps.dst = id b)
        r.Driver.flows
    in
    if not reference then
      Some
        (List.map
           (fun (fr : Driver.flow_result) ->
             flow_string fr.Driver.dep.Deps.src fr.Driver.refined
               fr.Driver.covers (dead_string fr.Driver.dead))
           frs)
    else
      let clean = ref true in
      let extended =
        List.map
          (fun (fr : Driver.flow_result) ->
            let dep = fr.Driver.dep in
            let src = dep.Deps.src in
            let refined =
              if not (Driver.refinement_possible r.Driver.outputs src) then
                None
              else
                match
                  ask clean (fun () ->
                      Analyses.refine ctx ~src ~dst:b
                        ~levels:(all_levels src b))
                with
                | [], _ -> None
                | _, vecs ->
                  if List.compare Dirvec.compare vecs dep.Deps.vectors = 0
                  then None
                  else Some vecs
            in
            let vectors = Option.value refined ~default:dep.Deps.vectors in
            let covers =
              Driver.cover_possible vectors
              && ask clean (fun () ->
                     Analyses.covers ctx ~src ~dst:b ~levels:(all_levels src b))
            in
            (dep, refined, vectors, covers))
          frs
      in
      let dead ((dep : Deps.dep), _, _, _) =
        let a = dep.Deps.src in
        let cover =
          List.find_opt
            (fun ((o : Deps.dep), _, vectors, covers) ->
              covers
              && id o.Deps.src <> id a
              && Driver.cover_eliminates ~cover_vectors:vectors o.Deps.src b a)
            extended
        in
        match cover with
        | _ when dep.Deps.assumed -> None
        | Some (o, _, _, _) -> Some (Driver.Covered o.Deps.src)
        | None ->
          List.find_opt
            (fun (k : Ir.access) ->
              id k <> id a && k.Ir.array = b.Ir.array
              && Deps.compute ctx ~src:k ~dst:b ~kind:Deps.Flow <> None
              && Deps.compute ctx ~src:a ~dst:k ~kind:Deps.Output <> None
              && ask clean (fun () ->
                     Analyses.kills ctx ~src:a ~killer:k ~dst:b
                       ~ac:(all_levels a b) ~ab:(all_levels a k)
                       ~bc:(all_levels k b)))
            (Ir.writes r.Driver.ctx.Depctx.prog)
          |> Option.map (fun k -> Driver.Killed k)
      in
      let outcomes =
        List.map
          (fun (((dep : Deps.dep), refined, _, covers) as e) ->
            flow_string dep.Deps.src refined covers (dead_string (dead e)))
          extended
      in
      if !clean then Some outcomes else None
  in
  List.map
    (fun (b : Ir.access) -> ("flows into " ^ b.Ir.label, group b))
    (Ir.reads r.Driver.ctx.Depctx.prog)

(* The anti and output kills of [r], one group per dependence.  The
   reference tries every other write of the array as a killer, in write
   order; one without a dependence from the source ([Deps.compute]) is
   skipped, and the first whose kill query proves kills.  Assumed
   dependences stay live.  The driver's step tries only the writes with
   an output dependence into the destination and reads the screen from
   the lists it computed; it must decide the same. *)
let storage_groups (r : Depend.Driver.result) ~reference =
  let open Depend in
  let ctx = r.Driver.ctx in
  let prog = ctx.Depctx.prog in
  let group (d : Deps.dep) (b : Ir.access) =
    let src = d.Deps.src in
    let clean = ref true in
    let killer =
      if d.Deps.assumed then None
      else
        List.find_opt
          (fun (k : Ir.access) ->
            id k <> id src && id k <> id b && k.Ir.array = b.Ir.array
            && Deps.compute ctx ~src ~dst:k ~kind:d.Deps.kind <> None
            && ask clean (fun () ->
                   Analyses.kills ctx ~src ~killer:k ~dst:b
                     ~ac:(all_levels src b) ~ab:(all_levels src k)
                     ~bc:(all_levels k b)))
          (Ir.writes prog)
    in
    let dead = Option.map (fun k -> Driver.Killed k) killer in
    if !clean then Some [ dead_string dead ] else None
  in
  let key (d : Deps.dep) =
    Printf.sprintf "%s %s->%s"
      (Deps.kind_to_string d.Deps.kind)
      d.Deps.src.Ir.label d.Deps.dst.Ir.label
  in
  List.concat_map
    (fun deps ->
      if reference then
        List.concat_map
          (fun (b : Ir.access) ->
            List.filter_map
              (fun (d : Deps.dep) ->
                if id d.Deps.dst <> id b then None else Some (key d, group d b))
              deps)
          (Ir.writes prog)
      else
        List.map
          (fun (fr : Driver.flow_result) ->
            (key fr.Driver.dep, Some [ dead_string fr.Driver.dead ]))
          (Driver.classify_storage ctx ~outputs:r.Driver.outputs deps))
    [ r.Driver.antis; r.Driver.outputs ]

let section4_groups r ~reference =
  flow_groups r ~reference @ storage_groups r ~reference

let tight =
  { Omega.Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }

(* [groups] of the driver, at the default and a tight budget and at 1
   and 2 domains, against the serial reference at the same budget: the
   same groups, and equal wherever the reference decides. *)
let agree groups prog =
  List.iter
    (fun lims ->
      Omega.Budget.with_limits lims (fun () ->
          let want =
            let memo = !Depend.Analyses.Memo.enabled in
            Depend.Analyses.Memo.enabled := false;
            Fun.protect
              ~finally:(fun () -> Depend.Analyses.Memo.enabled := memo)
              (fun () -> groups (Depend.Driver.analyze prog) ~reference:true)
          in
          List.iter
            (fun n ->
              Depend.Par.set_domains n;
              let got =
                Fun.protect
                  ~finally:(fun () -> Depend.Par.set_domains 1)
                  (fun () ->
                    groups (Depend.Driver.analyze prog) ~reference:false)
              in
              check (Alcotest.list Alcotest.string)
                (Printf.sprintf "groups at %d domains" n)
                (List.map fst want) (List.map fst got);
              List.iter2
                (fun (key, w) (_, g) ->
                  match w with
                  | Some w ->
                    check (Alcotest.list Alcotest.string)
                      (Printf.sprintf "%s at %d domains" key n)
                      w (Option.get g)
                  | None -> ())
                want got)
            [ 1; 2 ]))
    [ Omega.Budget.default; tight ]

(* [agree] over the corpus; the driver's outcomes there at the default
   budget, to show the comparison is not vacuous. *)
let agree_corpus groups =
  List.concat_map
    (fun (_, src) ->
      let prog = Sema.analyze (Parser.parse_string src) in
      agree groups prog;
      List.concat_map
        (fun (_, g) -> Option.value g ~default:[])
        (groups (Depend.Driver.analyze prog) ~reference:false))
    (Corpus.all @ Corpus.stress)

(* Does some outcome contain [sub]? *)
let some_outcome sub outcomes =
  let n = String.length sub in
  let rec at s i =
    i + n <= String.length s && (String.sub s i n = sub || at s (i + 1))
  in
  List.exists (fun s -> at s 0) outcomes

let test_storage_kills_reference () =
  check bool_t "the corpus kills some storage dependence" true
    (some_outcome "killed" (agree_corpus storage_groups))

let test_flow_reference () =
  let outcomes = agree_corpus flow_groups in
  check bool_t "the corpus kills some flow dependence" true
    (some_outcome "killed" outcomes);
  check bool_t "the corpus covers some read" true
    (some_outcome "covers true" outcomes);
  check bool_t "the corpus refines some flow dependence" true
    (some_outcome "refined [(" outcomes)

let arb_opaque_program =
  QCheck.make ~print:Ast.program_to_string Test_e2e.gen_opaque_program

let storage_prop_tests =
  [
    QCheck.Test.make ~name:"storage kills = reference" ~count:40
      Test_e2e.arb_program (fun ast ->
        agree storage_groups (Sema.analyze ast);
        true);
    QCheck.Test.make ~name:"flow kills, covers, refinement = reference"
      ~count:40 Test_e2e.arb_program (fun ast ->
        agree flow_groups (Sema.analyze ast);
        true);
    QCheck.Test.make ~name:"section 4 results = reference, opaque nests"
      ~count:40 arb_opaque_program (fun ast ->
        agree section4_groups (Sema.analyze ast);
        true);
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
        Alcotest.test_case "flow kills, covers, refinement = reference (corpus)"
          `Quick test_flow_reference;
      ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        (prop_tests @ storage_prop_tests) )

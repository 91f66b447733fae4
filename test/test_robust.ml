(* Robustness of the resource-governed solver core.

   Three properties, over the whole corpus plus the adversarial stress
   nests:

   - totality: no budget, however tight, makes the analysis crash -
     exhaustion surfaces as [Gave_up] telemetry and conservative
     results, never as an exception;
   - monotone degradation: tightening the (deadline-free) budget can
     only shrink what the analysis proves - dead-dependence sets and
     doall plans under a tight budget are subsets of those under a
     looser one, so Proved/Disproved verdicts never flip;
   - fault soundness: with a deterministic fraction of queries forced
     to [Gave_up Injected], every plan is a subset of the clean plan
     and parallel execution still matches serial bit-for-bit. *)

open Omega
open Depend

let check = Alcotest.check
let bool_t = Alcotest.bool

let programs = Corpus.all @ Corpus.stress

let parse src = Lang.Sema.analyze (Lang.Parser.parse_string src)

(* The observable outcome of the full analysis stack on one program:
   which flow dependences were proved dead, and which loops each side
   may run as doalls.  Every Proved the analysis reaches is visible
   here as a dead edge or a doall; every Gave_up as its absence. *)
type outcome = {
  dead : string list;
  live : string list;
  std_doalls : string list;
  ext_doalls : string list;
}

let pair_key (fr : Driver.flow_result) =
  Printf.sprintf "%d->%d (%s->%s)" fr.Driver.dep.Deps.src.Lang.Ir.acc_id
    fr.Driver.dep.Deps.dst.Lang.Ir.acc_id
    fr.Driver.dep.Deps.src.Lang.Ir.label fr.Driver.dep.Deps.dst.Lang.Ir.label

let outcome_of src : outcome =
  Analyses.Memo.reset ();
  let prog = parse src in
  let r = Driver.analyze prog in
  let dead =
    Driver.dead_flows r |> List.map pair_key |> List.sort compare
  in
  let live =
    Driver.live_flows r |> List.map pair_key |> List.sort compare
  in
  let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
  let doalls side =
    List.filter_map
      (fun (v : Xform.Parallel.verdict) ->
        if side v then Some (Xform.Parallel.loop_path v.Xform.Parallel.v_loop)
        else None)
      vs
    |> List.sort compare
  in
  {
    dead;
    live;
    std_doalls = doalls (fun v -> v.Xform.Parallel.v_std_doall);
    ext_doalls = doalls (fun v -> v.Xform.Parallel.v_ext_doall);
  }

let subset a b = List.for_all (fun x -> List.mem x b) a

(* ------------------------------------------------------------------ *)
(* Totality                                                            *)
(* ------------------------------------------------------------------ *)

let tiny =
  { Budget.fuel = 200; splinters = 4; disjuncts = 8; deadline_ms = None }

let mid =
  { Budget.fuel = 5_000; splinters = 64; disjuncts = 256; deadline_ms = None }

let test_totality_default () =
  Metrics.reset ();
  List.iter (fun (name, src) ->
      match outcome_of src with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s crashed under the default budget: %s" name
          (Printexc.to_string e))
    programs

let test_totality_tiny () =
  Metrics.reset ();
  Budget.with_limits tiny (fun () ->
      List.iter (fun (name, src) ->
          match outcome_of src with
          | _ -> ()
          | exception e ->
            Alcotest.failf "%s crashed under the tiny budget: %s" name
              (Printexc.to_string e))
        programs);
  (* the tiny budget must actually bind somewhere, or this test proves
     nothing about exhaustion handling *)
  check bool_t "tiny budget caused give-ups" true
    (Metrics.gave_up (Metrics.current ()) > 0);
  Analyses.Memo.reset ()

(* ------------------------------------------------------------------ *)
(* Monotone degradation                                                *)
(* ------------------------------------------------------------------ *)

let test_budget_monotonicity () =
  List.iter
    (fun (name, src) ->
      let at lims = Budget.with_limits lims (fun () -> outcome_of src) in
      let o_tiny = at tiny and o_mid = at mid and o_def = at Budget.default in
      let chain label sel =
        check bool_t
          (Printf.sprintf "%s: %s tiny <= mid" name label)
          true
          (subset (sel o_tiny) (sel o_mid));
        check bool_t
          (Printf.sprintf "%s: %s mid <= default" name label)
          true
          (subset (sel o_mid) (sel o_def))
      in
      chain "dead set" (fun o -> o.dead);
      chain "std doalls" (fun o -> o.std_doalls);
      chain "ext doalls" (fun o -> o.ext_doalls);
      (* live dependences go the other way: loosening the budget can
         only remove conservative edges, never add real ones *)
      check bool_t
        (Printf.sprintf "%s: live mid <= tiny" name)
        true
        (subset o_mid.live o_tiny.live);
      check bool_t
        (Printf.sprintf "%s: live default <= mid" name)
        true
        (subset o_def.live o_mid.live))
    programs;
  Analyses.Memo.reset ()

(* ------------------------------------------------------------------ *)
(* Fault-injection soundness                                           *)
(* ------------------------------------------------------------------ *)

let init _ idx = List.fold_left (fun h i -> (h * 31) + i + 17) 7 idx

let test_fault_injection_soundness () =
  let clean = List.map (fun (name, src) -> (name, outcome_of src)) programs in
  List.iter
    (fun seed ->
      Budget.set_fault_injection ~seed ~rate:0.10;
      Metrics.reset ();
      Fun.protect ~finally:Budget.clear_fault_injection (fun () ->
          List.iter
            (fun (name, src) ->
              let faulty = outcome_of src in
              let cl = List.assoc name clean in
              let sub label a b =
                if not (subset a b) then
                  Alcotest.failf
                    "%s (seed %d): faulty %s [%s] not a subset of clean [%s]"
                    name seed label (String.concat "; " a)
                    (String.concat "; " b)
              in
              sub "dead set" faulty.dead cl.dead;
              sub "std doalls" faulty.std_doalls cl.std_doalls;
              sub "ext doalls" faulty.ext_doalls cl.ext_doalls;
              sub "live set (clean within faulty)" cl.live faulty.live)
            programs;
          check bool_t
            (Printf.sprintf "seed %d: faults actually fired" seed)
            true
            ((Metrics.current ()).Metrics.gave_up_injected
            > 0);
          (* a degraded plan must still execute soundly *)
          List.iter
            (fun name ->
              let prog = parse (Corpus.find name) in
              let vs = Xform.Parallel.analyze (Xform.Graph.build prog) in
              let pl = Xform.Exec.plan Xform.Exec.Ext vs in
              let syms =
                match
                  Xform.Oracle.pick_syms ~candidates:[ 8; 4; 2; 5; 50; 100 ]
                    prog
                with
                | Some s -> s
                | None -> []
              in
              let serial = Xform.Exec.run_serial ~init prog ~syms in
              let mem, _ =
                Xform.Exec.run_parallel ~pool:(Test_exec.pool ()) ~init pl
                  prog ~syms
              in
              if not (Xform.Exec.equal_mem serial mem) then
                Alcotest.failf
                  "%s (seed %d): degraded plan diverges from serial: %s" name
                  seed
                  (Xform.Exec.diff_string (Xform.Exec.diff_mem serial mem)))
            [ "temp_reuse"; "copyin"; "kill_chain" ]))
    [ 1; 42 ];
  Analyses.Memo.reset ()

(* The fault stream is a pure function of (seed, canonical query key),
   never of execution order, so a domain-sharded analysis faults exactly
   the queries a serial one does: the assumed-dependence sets come out
   identical — not merely conservative — at any width.  (Conservatism
   w.r.t. the clean run is asserted again on the sharded outcomes, so a
   regression to order-dependent faulting fails loudly here.) *)
let test_fault_injection_parallel () =
  let clean = List.map (fun (name, src) -> (name, outcome_of src)) programs in
  Budget.set_fault_injection ~seed:42 ~rate:0.10;
  Fun.protect
    ~finally:(fun () ->
      Budget.clear_fault_injection ();
      Par.set_domains 1)
    (fun () ->
      let run () =
        List.map (fun (name, src) -> (name, outcome_of src)) programs
      in
      let serial = run () in
      Par.set_domains 3;
      let sharded = run () in
      Par.set_domains 1;
      List.iter2
        (fun (name, (s : outcome)) (_, (p : outcome)) ->
          if s <> p then
            Alcotest.failf
              "%s: 3-domain faulty outcome differs from serial faulty \
               outcome (dead %d/%d, live %d/%d)"
              name
              (List.length p.dead) (List.length s.dead)
              (List.length p.live) (List.length s.live))
        serial sharded;
      List.iter
        (fun (name, (f : outcome)) ->
          let cl = List.assoc name clean in
          let sub label a b =
            if not (subset a b) then
              Alcotest.failf
                "%s: sharded faulty %s not a subset of clean's" name label
          in
          sub "dead set" f.dead cl.dead;
          sub "std doalls" f.std_doalls cl.std_doalls;
          sub "ext doalls" f.ext_doalls cl.ext_doalls;
          sub "live set (clean within faulty)" cl.live f.live)
        sharded);
  Analyses.Memo.reset ()

(* ------------------------------------------------------------------ *)
(* Hostile input                                                       *)
(* ------------------------------------------------------------------ *)

(* The two text front ends must be total: every input, however
   mangled, yields a result or the module's own typed error.  Inputs
   are corpus programs and omega_calc formulas after a few byte
   mutations (overwrite with any byte, insert, delete or duplicate a
   run) or grammar mutations (delete, duplicate, swap or replace
   tokens, or insert one of the language's own tokens, including
   out-of-range literals and deep nesting). *)

let byte_mutations src =
  QCheck.Gen.(
    let mutate s =
      let n = String.length s in
      let* op = int_range 0 3 and* i = int_range 0 (max 0 n) in
      let* len = int_range 1 4 in
      let* b = frequency [ (3, printable); (1, char) ] in
      let i = min i n in
      let len = min len (n - i) in
      return
        (match op with
         | 0 when i < n -> String.mapi (fun j c -> if j = i then b else c) s
         | 0 | 1 -> String.sub s 0 i ^ String.make 1 b ^ String.sub s i (n - i)
         | 2 -> String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
         | _ -> String.sub s 0 (i + len) ^ String.sub s i (n - i))
    in
    let* k = frequency [ (3, return 1); (1, int_range 2 8) ] in
    let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
    go k src)

let cls = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> 0
  | ' ' | '\t' | '\n' | '\r' -> 1
  | _ -> 2

(* A name or a number, not a keyword of either language. *)
let is_operand t =
  cls t.[0] = 0
  && not
       (List.mem t
          [ "for"; "doall"; "to"; "do"; "by"; "endfor"; "end"; "symbolic";
            "real"; "int"; "array"; "assume"; "assert"; "max"; "min"; "and";
            "or"; "forall"; "exists" ])

(* Words, numbers and single punctuation characters, whitespace kept as
   its own tokens so a mutated token list still reads as source. *)
let tokens src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let k = cls src.[i] in
      let j = ref (i + 1) in
      if k <> 2 then
        while !j < n && cls src.[!j] = k do
          incr j
        done;
      go !j (String.sub src i (!j - i) :: acc)
  in
  go 0 []

let deep n = String.make n '(' ^ "1" ^ String.make n ')'

let grammar_mutations dictionary src =
  QCheck.Gen.(
    let mutate toks =
      let n = Array.length toks in
      let* op = frequency [ (5, int_range 0 4); (5, return 5) ] in
      let* i = int_range 0 (max 0 (n - 1)) in
      let* j = int_range 0 (max 0 (n - 1)) and* w = oneofl dictionary in
      let l = Array.to_list toks in
      let at f =
        List.concat (List.mapi (fun k t -> if k = i then f t else [ t ]) l)
      in
      return
        (Array.of_list
           (if n = 0 then [ w ]
            else
              match op with
              | 0 -> at (fun _ -> [])
              | 1 -> at (fun t -> [ t; t ])
              | 2 ->
                List.mapi
                  (fun k t ->
                    if k = i then toks.(j) else if k = j then toks.(i) else t)
                  l
              | 3 -> at (fun _ -> [ w ])
              | 4 -> at (fun t -> [ w; " "; t ])
              | _ ->
                (* one name or number for another of the same input:
                   usually still parses, so it reaches the analysis *)
                if is_operand toks.(i) && is_operand toks.(j) then
                  at (fun _ -> [ toks.(j) ])
                else at (fun _ -> [ w ])))
    in
    let* k = frequency [ (3, return 1); (1, int_range 2 6) ] in
    let rec go k toks =
      if k = 0 then return toks else mutate toks >>= go (k - 1)
    in
    map
      (fun toks -> String.concat "" (Array.to_list toks))
      (go k (Array.of_list (tokens src))))

let program_words =
  [ "for"; "doall"; "to"; "do"; "by"; "endfor"; "end"; "symbolic"; "real";
    "int"; "array"; "assume"; "max"; "min"; "and"; ":="; ":"; ";"; ",";
    "("; ")"; "["; "]"; "+"; "-"; "*"; "="; "!="; "<="; "<"; ">="; ">";
    "0"; "1"; "-1"; "i"; "n"; "a"; "s1"; "4611686018427387903";
    "99999999999999999999999"; "2305843009213693952*2*i"; deep 200 ]

let formula_words =
  [ "forall"; "exists"; ":"; "=>"; "or"; "and"; ","; "("; ")"; "+"; "-";
    "*"; "="; "!="; "<="; "<"; ">="; ">"; "0"; "2"; "-1"; "x"; "y";
    "max(x, y)"; "a(x)"; "4611686018427387903"; "99999999999999999999999";
    "2305843009213693952*2*x"; deep 200 ]

let formulas =
  [ "forall x: 0 <= x and x <= 10 => exists y: x = 2*y or x = 2*y + 1";
    "forall x: exists y: y >= x and y <= x";
    "exists y: x = 2*y and x = 2*y + 1";
    "2 <= 2*x + 3*y <= 7 and 0 <= x <= 4 and 0 <= y => x + y <= 4";
    "forall x, y: 0 <= a <= 5 and b < a => exists c: 3*c = a + b" ]

let from_seeds seeds mutations =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      oneofl seeds >>= fun s -> oneof [ byte_mutations s; mutations s ])

let program_seeds = List.map snd (Corpus.all @ Corpus.stress)

(* A result or [Parser.Error]/[Sema.Error]; any other exception fails
   with its name. *)
let program_total src =
  match Lang.Sema.analyze (Lang.Parser.parse_string src) with
  | _ -> true
  | exception (Lang.Parser.Error _ | Lang.Sema.Error _) -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let formula_total src =
  match Fparse.formula_of_string src with
  | _ -> true
  | exception Fparse.Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)

let hostile_tests =
  [
    QCheck.Test.make ~count:2000
      ~name:"hostile input: mutated programs analyze or raise typed errors"
      (from_seeds program_seeds (grammar_mutations program_words))
      program_total;
    QCheck.Test.make ~count:1000
      ~name:"hostile input: mutated formulas parse or raise Fparse.Error"
      (from_seeds formulas (grammar_mutations formula_words))
      formula_total;
  ]

let test_deep_nesting () =
  let n = 100_000 in
  check bool_t "a deeply nested right-hand side analyzes" true
    (program_total
       (Printf.sprintf
          "real a[0:10];\nfor i := 1 to 10 do\n  a(i) := %s;\nendfor\n"
          (deep n)));
  check bool_t "a deeply nested formula parses" true
    (formula_total ("x >= " ^ deep n))

let suite =
  ( "robust",
    [
      Alcotest.test_case "totality: corpus + stress, default budget" `Quick
        test_totality_default;
      Alcotest.test_case "totality: corpus + stress, tiny budget" `Quick
        test_totality_tiny;
      Alcotest.test_case "tightening budgets only shrinks what is proved"
        `Quick test_budget_monotonicity;
      Alcotest.test_case "fault injection: plans degrade soundly" `Quick
        test_fault_injection_soundness;
      Alcotest.test_case
        "fault injection: serial and sharded runs fault identically" `Quick
        test_fault_injection_parallel;
      Alcotest.test_case "hostile input: deep nesting" `Quick test_deep_nesting;
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) hostile_tests )

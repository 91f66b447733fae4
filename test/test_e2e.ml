(* End-to-end soundness: on random small programs, compare the static
   analysis against the tracing interpreter.

   - Soundness of elimination: a statically *dead* flow dependence carries
     no dynamic value-based flow (no read ever takes its value from that
     write).
   - Coverage: every dynamic value-based flow is matched by a live static
     flow dependence between the same accesses whose vectors admit the
     observed distance.
   - Completeness of the standard analysis: every dynamic memory-based
     flow pair is reported as an apparent dependence (live or dead). *)

open Depend
open Lang

(* ------------------------------------------------------------------ *)
(* Random program generation                                           *)
(* ------------------------------------------------------------------ *)

(* Programs over one shared array [a] and a sink [x], loops bounded by the
   symbolic [n], subscripts affine in the loop variables. *)
let gen_subscript ~vars =
  QCheck.Gen.(
    let* c0 = int_range (-2) 2 in
    let* coeffs = flatten_l (List.map (fun _ -> int_range (-1) 2) vars) in
    let expr =
      List.fold_left2
        (fun e v c ->
          if c = 0 then e
          else
            Ast.Add (e, Ast.Mul (Ast.Int c, Ast.Name v)))
        (Ast.Int c0) vars coeffs
    in
    return expr)

let gen_stmt_with ~gen_sub ~vars ~idx =
  QCheck.Gen.(
    let* wsub = gen_sub ~vars in
    let* rsub = gen_sub ~vars in
    let* to_sink = bool in
    let label = Printf.sprintf "s%d" idx in
    if to_sink && vars <> [] then
      (* read a, write the sink (keeps some reads alive) *)
      return
        (Ast.Assign
           {
             label = Some label;
             lhs = ("x", [ Ast.Name (List.hd vars); wsub ]);
             rhs = Ast.Ref ("a", [ rsub ]);
             pos = { Ast.line = 0; col = 0 };
           })
    else
      return
        (Ast.Assign
           {
             label = Some label;
             lhs = ("a", [ wsub ]);
             rhs = Ast.Add (Ast.Ref ("a", [ rsub ]), Ast.Int 1);
             pos = { Ast.line = 0; col = 0 };
           }))

let gen_stmt ~vars ~idx = gen_stmt_with ~gen_sub:gen_subscript ~vars ~idx

(* A random loop tree of depth <= 3 with 2-4 assignment statements;
   [gen_hi] draws a loop's upper bound, [decls] adds declarations. *)
let gen_program_with ~gen_stmt ~gen_hi ~decls : Ast.program QCheck.Gen.t =
  QCheck.Gen.(
    let pos = { Ast.line = 0; col = 0 } in
    let rec gen_body ~vars ~depth ~budget idx =
      if budget <= 0 then return ([], idx)
      else
        let* make_loop = if depth >= 2 then return false else bool in
        if make_loop then begin
          let v = Printf.sprintf "i%d" depth in
          let* lo = int_range 1 2 in
          let* hi = gen_hi ~vars in
          let* body, idx' =
            gen_body ~vars:(vars @ [ v ]) ~depth:(depth + 1)
              ~budget:(budget - 1) idx
          in
          let* rest, idx'' =
            gen_body ~vars ~depth ~budget:(budget - 1 - List.length body) idx'
          in
          if body = [] then return (rest, idx'')
          else
            return
              ( Ast.For
                  {
                    var = v;
                    lo = Ast.Int lo;
                    hi;
                    step = 1;
                    body;
                    pos;
                  }
                :: rest,
                idx'' )
        end
        else begin
          let* s = gen_stmt ~vars ~idx in
          let* rest, idx' =
            gen_body ~vars ~depth ~budget:(budget - 1) (idx + 1)
          in
          return (s :: rest, idx')
        end
    in
    let* nstmts = int_range 2 4 in
    let* stmts, _ = gen_body ~vars:[] ~depth:0 ~budget:nstmts 0 in
    (* ensure at least one statement *)
    let* stmts =
      if stmts = [] then
        let* s = gen_stmt ~vars:[] ~idx:99 in
        return [ s ]
      else return stmts
    in
    return
      {
        Ast.decls =
          [
            Ast.Symbolic [ "n" ];
            Ast.Array
              [
                ("a", [ (Ast.Int (-60), Ast.Int 60) ]);
                ( "x",
                  [ (Ast.Int (-60), Ast.Int 60); (Ast.Int (-60), Ast.Int 60) ]
                );
              ];
          ]
          @ decls;
        stmts;
      })

let gen_program =
  gen_program_with
    ~gen_stmt
    ~gen_hi:(fun ~vars:_ -> QCheck.Gen.return (Ast.Name "n"))
    ~decls:[]

let arb_program =
  QCheck.make ~print:Ast.program_to_string gen_program

(* The opaque variant: the section 5 terms the analysis treats as
   uninterpreted.  A subscript may also read the index array [q] or add
   the scalar accumulator [k], or add a product of two loop variables;
   a loop's upper bound may read [q]; a statement may bump [k].  [q] is
   only read, so its cells keep the executors' [init] values, which sit
   near 234 + index: a bound [q(e) - 232] stays a small trip count. *)
let gen_opaque_subscript ~vars =
  QCheck.Gen.(
    let* base = gen_subscript ~vars in
    let product =
      match vars with
      | [] -> []
      | _ ->
        [
          ( 1,
            let* v1 = oneofl vars in
            let* v2 = oneofl vars in
            return (Ast.Add (Ast.Mul (Ast.Name v1, Ast.Name v2), base)) );
        ]
    in
    frequency
      ([
         (3, return base);
         (1, return (Ast.Ref ("q", [ base ])));
         (1, return (Ast.Add (Ast.Ref ("k", []), base)));
       ]
      @ product))

let gen_opaque_stmt ~vars ~idx =
  QCheck.Gen.(
    let bump =
      let* step =
        match vars with
        | [] -> return (Ast.Int 1)
        | _ -> oneofl (Ast.Int 1 :: List.map (fun v -> Ast.Name v) vars)
      in
      return
        (Ast.Assign
           {
             label = Some (Printf.sprintf "s%d" idx);
             lhs = ("k", []);
             rhs = Ast.Add (Ast.Ref ("k", []), step);
             pos = { Ast.line = 0; col = 0 };
           })
    in
    frequency
      [ (4, gen_stmt_with ~gen_sub:gen_opaque_subscript ~vars ~idx); (1, bump) ])

let gen_opaque_hi ~vars =
  QCheck.Gen.(
    let* opaque = bool in
    if not opaque then return (Ast.Name "n")
    else
      let* sub =
        match vars with
        | [] -> map (fun c -> Ast.Int c) (int_range 1 2)
        | _ -> map (fun v -> Ast.Name v) (oneofl vars)
      in
      return (Ast.Sub (Ast.Ref ("q", [ sub ]), Ast.Int 232)))

(* [k] stays undeclared: Sema infers a scalar from its uses, and a
   declared scalar would not print back re-parseably ([k[]]). *)
let gen_opaque_program =
  gen_program_with ~gen_stmt:gen_opaque_stmt ~gen_hi:gen_opaque_hi
    ~decls:[ Ast.Array [ ("q", [ (Ast.Int (-60), Ast.Int 60) ]) ] ]

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let key (i : Interp.instance) = i.Interp.acc.Ir.acc_id

(* Does the static vector set admit the dynamic distance vector? *)
let vector_admits (v : Dirvec.t) (dist : int list) =
  List.length v = List.length dist
  && List.for_all2
       (fun (e : Dirvec.entry) d ->
         (match e.Dirvec.lo with Some lo -> d >= lo | None -> true)
         && (match e.Dirvec.hi with Some hi -> d <= hi | None -> true)
         &&
         match e.Dirvec.sign with
         | Dirvec.Pos -> d > 0
         | Dirvec.Neg -> d < 0
         | Dirvec.Zero -> d = 0
         | Dirvec.NonNeg -> d >= 0
         | Dirvec.NonPos -> d <= 0
         | Dirvec.Any -> true)
       v dist

let check_program (ast : Ast.program) : bool =
  let prog = Sema.analyze ast in
  let result = Driver.analyze prog in
  let ok = ref true in
  let fail _msg = ok := false in
  List.iter
    (fun nval ->
      let trace = Interp.run prog ~syms:[ ("n", nval) ] in
      let vflows = Interp.value_flow_deps trace in
      let mflows = Interp.memory_deps trace `Flow in
      (* 1: dead dependences carry no value flow *)
      List.iter
        (fun (fr : Driver.flow_result) ->
          if fr.Driver.dead <> None then
            if
              List.exists
                (fun (d : Interp.dep) ->
                  key d.Interp.src = fr.Driver.dep.Deps.src.Ir.acc_id
                  && key d.Interp.dst
                     = fr.Driver.dep.Deps.dst.Ir.acc_id)
                vflows
            then fail "dead dependence carries a value flow")
        result.Driver.flows;
      (* 2: every value flow is covered by a live dependence admitting the
         observed distance *)
      List.iter
        (fun (d : Interp.dep) ->
          let dist = Interp.distance d in
          let covered =
            List.exists
              (fun (fr : Driver.flow_result) ->
                fr.Driver.dead = None
                && fr.Driver.dep.Deps.src.Ir.acc_id = key d.Interp.src
                && fr.Driver.dep.Deps.dst.Ir.acc_id = key d.Interp.dst
                &&
                let vecs =
                  match fr.Driver.refined with
                  | Some v -> v
                  | None -> fr.Driver.dep.Deps.vectors
                in
                List.exists (fun v -> vector_admits v dist) vecs)
              result.Driver.flows
          in
          if not covered then fail "value flow not covered by live deps")
        vflows;
      (* 3: every memory flow appears among the apparent dependences *)
      List.iter
        (fun (d : Interp.dep) ->
          let found =
            List.exists
              (fun (fr : Driver.flow_result) ->
                fr.Driver.dep.Deps.src.Ir.acc_id = key d.Interp.src
                && fr.Driver.dep.Deps.dst.Ir.acc_id
                   = key d.Interp.dst)
              result.Driver.flows
          in
          if not found then fail "memory flow not reported")
        mflows;
      (* 4: every dynamic anti / output pair appears among the standard
         dependences of that kind, with an admitted distance *)
      List.iter
        (fun (kind, deps, dyn) ->
          ignore kind;
          List.iter
            (fun (d : Interp.dep) ->
              let dist = Interp.distance d in
              let found =
                List.exists
                  (fun (sd : Deps.dep) ->
                    sd.Deps.src.Ir.acc_id = key d.Interp.src
                    && sd.Deps.dst.Ir.acc_id = key d.Interp.dst
                    && List.exists (fun v -> vector_admits v dist) sd.Deps.vectors)
                  deps
              in
              if not found then fail "dynamic anti/output dep not covered")
            dyn)
        [
          (`Anti, result.Driver.antis, Interp.memory_deps trace `Anti);
          (`Output, result.Driver.outputs, Interp.memory_deps trace `Output);
        ])
    [ 3; 4 ];
  !ok

let prop_tests =
  [
    QCheck.Test.make ~name:"static analysis sound vs interpreter" ~count:60
      arb_program check_program;
  ]

let suite =
  ("e2e", List.map (QCheck_alcotest.to_alcotest ~long:false) prop_tests)

(* Dynamic confirmation of doall claims via the reference interpreter.

   A loop marked doall (with privatization set P) is dynamically valid
   for a given execution when no value-based flow dependence is carried
   by the loop, and every carried memory conflict is on an array in P.
   The first condition is the fundamental one: data never flows between
   iterations.  The second pins the storage reuse the claim discharges
   to exactly the arrays the transformation would privatize. *)

type violation = { o_loop : Graph.loop_info; o_what : string }

type report = {
  o_syms : (string * int) list;
  o_events : int;
  o_checked : int;
  o_violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* Choosing symbolic-constant values                                   *)
(* ------------------------------------------------------------------ *)

let eval_affine env (a : Ir.affine) : int option =
  List.fold_left
    (fun acc (v, c) ->
      match (acc, v) with
      | Some s, Ir.Symc name -> (
        match List.assoc_opt name env with
        | Some x -> Some (s + (c * x))
        | None -> None)
      | _ -> None)
    (Some a.Ir.const) a.Ir.terms

let eval_relop (op : Ast.relop) l r =
  match op with
  | Ast.Eq -> l = r
  | Ast.Ne -> l <> r
  | Ast.Le -> l <= r
  | Ast.Lt -> l < r
  | Ast.Ge -> l >= r
  | Ast.Gt -> l > r

(* Conditions mentioning still-unassigned constants (or opaque terms,
   which never appear in corpus assumes) are deferred/ignored. *)
let conds_hold env (conds : Ir.sym_cond list) =
  List.for_all
    (fun (c : Ir.sym_cond) ->
      match (eval_affine env c.Ir.sc_left, eval_affine env c.Ir.sc_right) with
      | Some l, Some r -> eval_relop c.Ir.sc_op l r
      | _ -> true)
    conds

let pick_syms ?(candidates = [ 3; 4; 2; 5; 6; 1; 10; 50; 100; 0 ])
    (prog : Ir.program) : (string * int) list option =
  let rec go env = function
    | [] -> if conds_hold env prog.Ir.assumes then Some (List.rev env) else None
    | s :: rest ->
      List.find_map
        (fun v ->
          let env' = (s, v) :: env in
          if conds_hold env' prog.Ir.assumes then go env' rest else None)
        candidates
  in
  go [] prog.Ir.symbolics

let scaled_syms ~target (prog : Ir.program) =
  let rec depth = function
    | Ir.IFor { body; _ } -> 1 + List.fold_left (fun d s -> max d (depth s)) 0 body
    | Ir.IAssign _ -> 0
  in
  let depth = List.fold_left (fun d s -> max d (depth s)) 1 prog.Ir.stmts in
  let scale =
    max 4 (int_of_float (float_of_int target ** (1. /. float_of_int depth)))
  in
  pick_syms
    ~candidates:[ scale; scale / 2; 100; 50; 10; 8; 6; 5; 4; 3; 2; 1 ]
    prog

(* ------------------------------------------------------------------ *)
(* Dynamic carried-ness                                                *)
(* ------------------------------------------------------------------ *)

(* Is the dynamic dependence carried by the loop with AST node [node]?
   I.e. is [node] a common loop of the two accesses, with zero distance
   on every outer common loop and nonzero distance on [node] itself. *)
let dyn_carried_by (node : int) (d : Interp.dep) : bool =
  let common =
    Graph.common_loop_nodes d.Interp.src.Interp.acc d.Interp.dst.Interp.acc
  in
  let rec index i = function
    | [] -> None
    | x :: rest -> if x = node then Some i else index (i + 1) rest
  in
  match index 0 common with
  | None -> false
  | Some j ->
    let dist = Interp.distance d in
    let rec go i = function
      | [] -> false
      | x :: rest -> if i = j then x <> 0 else x = 0 && go (i + 1) rest
    in
    go 0 dist

let dep_string prefix (d : Interp.dep) =
  Format.asprintf "%s %a" prefix Interp.pp_dep d

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Report of report
  | No_assignment
  | Not_executable of string

let check ?syms (g : Graph.t) (vs : Parallel.verdict list) : outcome =
  let syms =
    match syms with Some s -> Some s | None -> pick_syms g.Graph.prog
  in
  match syms with
  | None -> No_assignment
  | Some syms ->
    (match Interp.run g.Graph.prog ~syms with
    | exception Interp.Runtime_error msg -> Not_executable msg
    | trace ->
    let value_flows = Interp.value_flow_deps trace in
    let memory =
      List.concat_map
        (fun (kind, name) ->
          List.map (fun d -> (name, d)) (Interp.memory_deps trace kind))
        [ (`Flow, "flow"); (`Anti, "anti"); (`Output, "output") ]
    in
    let claims = List.filter (fun v -> v.Parallel.v_ext_doall) vs in
    let violations =
      List.concat_map
        (fun (v : Parallel.verdict) ->
          let node = v.Parallel.v_loop.Graph.l_node in
          let private_arrays =
            List.map (fun p -> p.Privatize.p_array) v.Parallel.v_private
          in
          let value_violations =
            List.filter_map
              (fun (d : Interp.dep) ->
                if dyn_carried_by node d then
                  Some
                    {
                      o_loop = v.Parallel.v_loop;
                      o_what = dep_string "carried value flow" d;
                    }
                else None)
              value_flows
          in
          let memory_violations =
            List.filter_map
              (fun (kind_name, (d : Interp.dep)) ->
                let array = d.Interp.src.Interp.acc.Ir.array in
                if dyn_carried_by node d && not (List.mem array private_arrays)
                then
                  Some
                    {
                      o_loop = v.Parallel.v_loop;
                      o_what =
                        dep_string
                          (Printf.sprintf
                             "carried memory %s on unprivatized %s" kind_name
                             array)
                          d;
                    }
                else None)
              memory
          in
          value_violations @ memory_violations)
        claims
    in
      Report
        {
          o_syms = syms;
          o_events = List.length trace.Interp.events;
          o_checked = List.length claims;
          o_violations = violations;
        })

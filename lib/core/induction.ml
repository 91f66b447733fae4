(* Induction-variable recognition for scalar accumulators (section 5).

   The paper closes with Example 11 (loop s141 of the vectorizing-compiler
   study): a scalar [k] accumulating a loop-varying, provably-positive
   increment indexes an array, so consecutive references never collide -
   but no compiler in that study could prove it.  The paper's recipe:
   treat the scalar's appearances as symbolic variables and supply the
   analysis with the monotonicity facts that induction recognition
   provides.

   A scalar [x] (a zero-dimensional array) is a {e strictly increasing
   accumulator} when every write to it has the shape [x := x + e] with
   [e >= 1] provable (by the Omega test) under the write's loop bounds and
   the user's assumptions.  The resulting fact - instances of [x]'s value
   strictly increase across any intervening increment - feeds the symbolic
   dependence machinery as an [Accumulator] property. *)

open Omega

type accumulator = {
  scalar : string;
  increment : Ir.access; (* the write access of the x := x + e statement *)
}

(* [rhs] as [x + e]: find exactly one positive top-level additive
   occurrence of the scalar read and return the rest. *)
let split_increment (scalar : string) (rhs : Ast.expr) : Ast.expr option =
  (* decompose into (number of +x occurrences, rest-expression) *)
  let rec go (e : Ast.expr) (sign : int) : (int * Ast.expr) option =
    match e with
    | Ast.Ref (s, []) when s = scalar ->
      if sign = 1 then Some (1, Ast.Int 0) else None
    | Ast.Add (a, b) -> (
      match go a sign, go b sign with
      | Some (na, ra), Some (nb, rb) -> Some (na + nb, Ast.Add (ra, rb))
      | _ -> None)
    | Ast.Sub (a, b) -> (
      match go a sign, go b (-sign) with
      | Some (na, ra), Some (nb, rb) -> Some (na + nb, Ast.Sub (ra, rb))
      | _ -> None)
    | Ast.Int _ | Ast.Name _ -> Some (0, e)
    | Ast.Neg a -> (
      match go a (-sign) with
      | Some (n, r) -> Some (n, Ast.Neg r)
      | None -> None)
    | Ast.Mul _ | Ast.Max _ | Ast.Min _ | Ast.Ref _ ->
      (* the scalar must not occur inside *)
      let rec mentions = function
        | Ast.Ref (s, subs) ->
          s = scalar || List.exists mentions subs
        | Ast.Int _ | Ast.Name _ -> false
        | Ast.Neg a -> mentions a
        | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b)
        | Ast.Max (a, b) | Ast.Min (a, b) ->
          mentions a || mentions b
      in
      if mentions e then None else Some (0, e)
  in
  match go rhs 1 with Some (1, rest) -> Some rest | _ -> None

(* The real translation works against an instantiation, so loop variables
   become that instance's iteration variables. *)
let affine_of_inst ctx (inst : Depctx.inst) (e : Ast.expr) : Linexpr.t option
    =
  let lookup name =
    let rec find d = function
      | [] -> None
      | (l : Ir.loop) :: rest ->
        if l.Ir.lvar = name then
          if l.Ir.step = 1 then Some (Linexpr.var inst.Depctx.ivars.(d))
          else None
        else find (d + 1) rest
    in
    match find 0 inst.Depctx.access.Ir.loops with
    | Some x -> Some x
    | None ->
      if List.mem name ctx.Depctx.prog.Ir.symbolics then
        Some (Linexpr.var (Depctx.sym_var ctx name))
      else None
  in
  let rec go e =
    match e with
    | Ast.Int n -> Some (Linexpr.of_int n)
    | Ast.Name name -> lookup name
    | Ast.Neg a -> Option.map Linexpr.neg (go a)
    | Ast.Add (a, b) -> (
      match go a, go b with
      | Some x, Some y -> Some (Linexpr.add x y)
      | _ -> None)
    | Ast.Sub (a, b) -> (
      match go a, go b with
      | Some x, Some y -> Some (Linexpr.sub x y)
      | _ -> None)
    | Ast.Mul (Ast.Int k, a) | Ast.Mul (a, Ast.Int k) ->
      Option.map (Linexpr.scale (Zint.of_int k)) (go a)
    | Ast.Mul _ | Ast.Max _ | Ast.Min _ | Ast.Ref _ -> None
  in
  go e

(* Is [e >= 1] whenever the write executes? *)
let increment_positive ctx (write : Ir.access) (e : Ast.expr) : bool =
  let inst = Depctx.instantiate ctx write ~tag:Depctx.I in
  match affine_of_inst ctx inst e with
  | None -> false
  | Some le ->
    (* unsat(domain && e <= 0) *)
    let p =
      Problem.of_list
        (Depctx.domain ctx inst
        @ Depctx.assumes ctx
        @ [ Constr.le le (Linexpr.of_int 0) ])
    in
    (match
       Budget.run ~label:"induction/positive" (fun () -> Elim.satisfiable p)
     with
    | Ok sat -> not sat
    | Error _ -> false (* cannot prove positivity: not an accumulator *))

(* All strictly-increasing accumulators of a program. *)
let detect (ctx : Depctx.t) : accumulator list =
  let prog = ctx.Depctx.prog in
  let scalars =
    List.filter_map
      (fun (name, ranges) -> if ranges = [] then Some name else None)
      prog.Ir.arrays
  in
  let rec assigns_of (s : Ir.istmt) : Ir.istmt list =
    match s with
    | Ir.IFor { body; _ } -> List.concat_map assigns_of body
    | Ir.IAssign _ -> [ s ]
  in
  let assigns = List.concat_map assigns_of prog.Ir.stmts in
  List.filter_map
    (fun scalar ->
      let writes =
        List.filter_map
          (function
            | Ir.IAssign { write; lhs = name, []; rhs; _ }
              when name = scalar ->
              Some (write, rhs)
            | Ir.IAssign _ | Ir.IFor _ -> None)
          assigns
      in
      match writes with
      | [ (write, rhs) ] -> (
        match split_increment scalar rhs with
        | Some e when increment_positive ctx write e ->
          Some { scalar; increment = write }
        | Some _ | None -> None)
      | _ -> None (* several writes (or none): not a recognized accumulator *))
    scalars

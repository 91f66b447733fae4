(* Evaluation of the calculator operations, shared by the omega_calc
   binary and the petitd service.  Problems are conjunctions of chained
   linear comparisons over named integer variables, parsed with the
   petit condition grammar. *)

open Omega

(* Translate parsed conditions to Problems, one fresh variable per
   name (shared across the problems of one evaluation). *)
let build_problem (conds : Lang.Ast.cond list list) :
    Problem.t list * (string * Var.t) list =
  let env : (string * Var.t) list ref = ref [] in
  let var name =
    match List.assoc_opt name !env with
    | Some v -> v
    | None ->
      let v = Var.fresh name in
      env := (name, v) :: !env;
      v
  in
  let rec expr (e : Lang.Ast.expr) : Linexpr.t =
    match e with
    | Lang.Ast.Int n -> Linexpr.of_int n
    | Lang.Ast.Name s -> Linexpr.var (var s)
    | Lang.Ast.Neg a -> Linexpr.neg (expr a)
    | Lang.Ast.Add (a, b) -> Linexpr.add (expr a) (expr b)
    | Lang.Ast.Sub (a, b) -> Linexpr.sub (expr a) (expr b)
    | Lang.Ast.Mul (a, b) -> (
      let ea = expr a and eb = expr b in
      if Linexpr.is_const ea then Linexpr.scale (Linexpr.constant ea) eb
      else if Linexpr.is_const eb then Linexpr.scale (Linexpr.constant eb) ea
      else failwith "non-linear product")
    | Lang.Ast.Max _ | Lang.Ast.Min _ | Lang.Ast.Ref _ ->
      failwith "max/min/array references are not allowed here"
  in
  let constr (c : Lang.Ast.cond) : Constr.t =
    let l = expr c.Lang.Ast.left and r = expr c.Lang.Ast.right in
    match c.Lang.Ast.op with
    | Lang.Ast.Eq -> Constr.eq2 l r
    | Lang.Ast.Le -> Constr.le l r
    | Lang.Ast.Lt -> Constr.lt l r
    | Lang.Ast.Ge -> Constr.ge l r
    | Lang.Ast.Gt -> Constr.gt l r
    | Lang.Ast.Ne -> failwith "!= is a disjunction; not allowed here"
  in
  let problems =
    List.map (fun cs -> Problem.of_list (List.map constr cs)) conds
  in
  (problems, !env)

let parse_problems (srcs : string list) =
  build_problem (List.map Lang.Parser.parse_conds_string srcs)

let lookup_vars env names =
  List.map
    (fun n ->
      match List.assoc_opt n env with
      | Some v -> v
      | None -> failwith (Printf.sprintf "variable %s not in the problem" n))
    names

type result =
  | R_sat of bool
  | R_implies of bool
  | R_project of string list
  | R_gist of [ `Tautology | `False | `Gist of string ]
  | R_opt of [ `Val of string | `Unsat | `Unbounded ]

(* The boolean operations (sat, implies) go through the portfolio
   cascade like analysis queries: under the default [Cascade] backend
   the tier-0 screen answers the easy instances, and [Omega] is the
   direct procedure.  The non-boolean operations (project, gist,
   optimize) have no screen tier and always run the full machinery. *)

let portfolio_bool ~label ?screen ~complete () =
  let to_answer f () = if f () then Screen.Proved else Screen.Disproved in
  let tiers = Portfolio.plan ?screen ~complete:(to_answer complete) () in
  match Portfolio.decide ~label tiers with
  | Budget.Proved, _ -> true
  | Budget.Disproved, _ -> false
  | Budget.Gave_up r, _ -> raise (Budget.Exhausted r)

let eval (op : Protocol.calc_op) : (result, string) Stdlib.result =
  try
    match op with
    | Protocol.Sat src ->
      let ps, _ = parse_problems [ src ] in
      let p = List.hd ps in
      let screen () =
        match Screen.decide p with
        | `Sat -> Screen.Proved
        | `Unsat -> Screen.Disproved
        | `Unknown -> Screen.Unknown
      in
      Ok
        (R_sat
           (portfolio_bool ~label:"calc/sat" ~screen
              ~complete:(fun () -> Elim.satisfiable p)
              ()))
    | Protocol.Implies (src1, src2) -> (
      let ps, _ = parse_problems [ src1; src2 ] in
      match ps with
      | [ p; q ] ->
        let screen () = Screen.implies_problem p q in
        Ok
          (R_implies
             (portfolio_bool ~label:"calc/implies" ~screen
                ~complete:(fun () -> Gist.implies p q)
                ()))
      | _ -> assert false)
    | Protocol.Project { mode; onto; problem } -> (
      let ps, env = parse_problems [ problem ] in
      let p = List.hd ps in
      let vars = lookup_vars env onto in
      let keep v = List.exists (Var.equal v) vars in
      match mode with
      | `Exact ->
        Ok (R_project (List.map Problem.to_string (Elim.project ~keep p)))
      | (`Dark | `Real) as m -> (
        let f =
          match m with
          | `Dark -> Elim.project_dark
          | `Real -> Elim.project_real
        in
        match f ~keep p with
        | `Contra -> Ok (R_project [])
        | `Ok q -> Ok (R_project [ Problem.to_string q ])))
    | Protocol.Gist { problem; given } -> (
      let ps, _ = parse_problems [ problem; given ] in
      match ps with
      | [ p; q ] ->
        Ok
          (R_gist
             (match Gist.gist p ~given:q with
             | Gist.Tautology -> `Tautology
             | Gist.False -> `False
             | Gist.Gist g -> `Gist (Problem.to_string g)))
      | _ -> assert false)
    | Protocol.Optimize { dir; var; problem } ->
      let ps, env = parse_problems [ problem ] in
      let p = List.hd ps in
      let v = List.hd (lookup_vars env [ var ]) in
      let r =
        match dir with
        | `Min -> (
          match Omega.minimize p v with
          | `Min x -> `Val (Zint.to_string x)
          | `Unsat -> `Unsat
          | `Unbounded -> `Unbounded)
        | `Max -> (
          match Omega.maximize p v with
          | `Max x -> `Val (Zint.to_string x)
          | `Unsat -> `Unsat
          | `Unbounded -> `Unbounded)
      in
      Ok (R_opt r)
  with
  | Failure msg -> Error msg
  | Lang.Parser.Error (msg, pos) ->
    Error (Printf.sprintf "parse error at column %d: %s" pos.Lang.Ast.col msg)

let result_json = function
  | R_sat b -> Json.Obj [ ("sat", Json.Bool b) ]
  | R_implies b -> Json.Obj [ ("implies", Json.Bool b) ]
  | R_project pieces ->
    Json.Obj
      [
        ("satisfiable", Json.Bool (pieces <> []));
        ("pieces", Json.List (List.map (fun s -> Json.Str s) pieces));
      ]
  | R_gist `Tautology -> Json.Obj [ ("gist", Json.Str "TRUE") ]
  | R_gist `False -> Json.Obj [ ("gist", Json.Str "FALSE") ]
  | R_gist (`Gist g) -> Json.Obj [ ("gist", Json.Str g) ]
  | R_opt (`Val x) -> Json.Obj [ ("value", Json.Str x) ]
  | R_opt `Unsat -> Json.Obj [ ("value", Json.Str "unsatisfiable") ]
  | R_opt `Unbounded -> Json.Obj [ ("value", Json.Str "unbounded") ]

let result_plain = function
  | R_sat b -> if b then "satisfiable" else "unsatisfiable"
  | R_implies b -> if b then "tautology" else "not a tautology"
  | R_project [] -> "FALSE"
  | R_project pieces ->
    String.concat "\n"
      (List.mapi (fun i q -> (if i > 0 then "union " else "") ^ q) pieces)
  | R_gist `Tautology -> "TRUE (implied by the given)"
  | R_gist `False -> "FALSE (inconsistent with the given)"
  | R_gist (`Gist g) -> g
  | R_opt (`Val x) -> x
  | R_opt `Unsat -> "unsatisfiable"
  | R_opt `Unbounded -> "unbounded"

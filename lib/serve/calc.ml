(* Evaluation of the calculator operations, shared by the omega_calc
   binary and the petitd service.  Problems are conjunctions of chained
   linear comparisons over named integer variables, parsed by
   [Depend.Fparse] with the petit condition grammar. *)

open Omega

let parse_problems = Depend.Fparse.problems_of_strings

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

(* Every operation is one governed query, so a blown limit or an
   overflowing coefficient is counted in [Metrics] and surfaces as
   [Budget.Exhausted] for the caller's gave-up answer.  The boolean
   operations (sat, implies) are decided by the complete procedure
   through [Portfolio.decide], so they count in its [complete] row. *)

let complete_bool ~label complete =
  match Portfolio.decide ~label complete with
  | Budget.Proved, _ -> true
  | Budget.Disproved, _ -> false
  | Budget.Gave_up r, _ -> raise (Budget.Exhausted r)

let governed ~label f =
  match Budget.run ~label f with
  | Ok v -> v
  | Error r -> raise (Budget.Exhausted r)

let eval (op : Protocol.calc_op) : (result, string) Stdlib.result =
  try
    match op with
    | Protocol.Sat src ->
      let ps, _ = parse_problems [ src ] in
      let p = List.hd ps in
      Ok
        (R_sat
           (complete_bool ~label:"calc/sat" (fun () -> Elim.satisfiable p)))
    | Protocol.Implies (src1, src2) -> (
      let ps, _ = parse_problems [ src1; src2 ] in
      match ps with
      | [ p; q ] ->
        Ok
          (R_implies
             (complete_bool ~label:"calc/implies" (fun () -> Gist.implies p q)))
      | _ -> assert false)
    | Protocol.Project { mode; onto; problem } -> (
      let ps, env = parse_problems [ problem ] in
      let p = List.hd ps in
      let vars = lookup_vars env onto in
      let keep v = List.exists (Var.equal v) vars in
      governed ~label:"calc/project" @@ fun () ->
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
        governed ~label:"calc/gist" @@ fun () ->
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
        governed ~label:"calc/optimize" @@ fun () ->
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
  with Failure msg | Depend.Fparse.Error msg -> Error msg

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

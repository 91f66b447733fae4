(* A small textual front end for Presburger formulas, used by omega_calc
   to demo the section 3.2 decision procedure:

     forall x: exists y: x = 2*y or x = 2*y + 1
     forall x: 0 <= x and x <= 10 => exists y: x = 2*y

   Grammar (lowest precedence first):

     formula := "forall" ids ":" formula
              | "exists" ids ":" formula
              | disj [ "=>" formula ]          (implication, right assoc)
     disj    := conj { "or" conj }
     conj    := chained comparisons separated by "and" (Lang.Parser)

   Variables are bound by name: a quantifier introduces (or shadows) the
   name; free names become fresh variables shared across the formula. *)

open Omega

exception Error of string

type env = { mutable table : (string * Var.t) list }

let lookup env name =
  match List.assoc_opt name env.table with
  | Some v -> v
  | None ->
    let v = Var.fresh name in
    env.table <- (name, v) :: env.table;
    v

let linexpr_of env (e : Ast.expr) : Linexpr.t =
  let rec go e =
    match e with
    | Ast.Int n -> Linexpr.of_int n
    | Ast.Name s -> Linexpr.var (lookup env s)
    | Ast.Neg a -> Linexpr.neg (go a)
    | Ast.Add (a, b) -> Linexpr.add (go a) (go b)
    | Ast.Sub (a, b) -> Linexpr.sub (go a) (go b)
    | Ast.Mul (a, b) -> (
      let ea = go a and eb = go b in
      if Linexpr.is_const ea then Linexpr.scale (Linexpr.constant ea) eb
      else if Linexpr.is_const eb then Linexpr.scale (Linexpr.constant eb) ea
      else raise (Error "non-linear product"))
    | Ast.Max _ | Ast.Min _ | Ast.Ref _ ->
      raise (Error "max/min/array references are not allowed here")
  in
  try go e
  with Zint.Overflow ->
    raise
      (Error "integer overflow: a coefficient does not fit a native integer")

let atom_of env (c : Ast.cond) : Presburger.t =
  let l = linexpr_of env c.Ast.left and r = linexpr_of env c.Ast.right in
  match c.Ast.op with
  | Ast.Eq -> Presburger.eq l r
  | Ast.Le -> Presburger.le l r
  | Ast.Lt -> Presburger.lt l r
  | Ast.Ge -> Presburger.ge l r
  | Ast.Gt -> Presburger.gt l r
  | Ast.Ne ->
    Presburger.or_ [ Presburger.lt l r; Presburger.gt l r ]

(* Split [s] at the first top-level occurrence of the word [kw]
   (surrounded by spaces); no parentheses in this little language, so
   "top-level" is simply "first". *)
let split_word kw s =
  let pat = " " ^ kw ^ " " in
  let plen = String.length pat and n = String.length s in
  let rec find i =
    if i + plen > n then None
    else if String.sub s i plen = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
    Some
      ( String.trim (String.sub s 0 i),
        String.trim (String.sub s (i + plen) (n - i - plen)) )
  | None -> None

let starts_with_word w s =
  let wl = String.length w in
  String.length s > wl
  && String.sub s 0 wl = w
  && (s.[wl] = ' ' || s.[wl] = ':')

let rec parse env (s : string) : Presburger.t =
  let s = String.trim s in
  if starts_with_word "forall" s || starts_with_word "exists" s then begin
    let is_forall = starts_with_word "forall" s in
    let rest = String.sub s 6 (String.length s - 6) in
    match String.index_opt rest ':' with
    | None -> raise (Error "expected ':' after the quantified variables")
    | Some i ->
      let names =
        String.sub rest 0 i |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      if names = [] then raise (Error "quantifier with no variables");
      (* bind fresh variables, shadowing outer names *)
      let saved = env.table in
      let vars =
        List.map
          (fun n ->
            let v = Var.fresh n in
            env.table <- (n, v) :: env.table;
            v)
          names
      in
      let body =
        parse env (String.sub rest (i + 1) (String.length rest - i - 1))
      in
      env.table <- saved;
      if is_forall then Presburger.forall vars body
      else Presburger.exists vars body
  end
  else
    match split_word "=>" s with
    | Some (lhs, rhs) ->
      Presburger.implies_ (parse_disj env lhs) (parse env rhs)
    | None -> parse_disj env s

and parse_disj env s =
  let s = String.trim s in
  if starts_with_word "forall" s || starts_with_word "exists" s then
    (* a quantifier swallows the rest of the disjunct *)
    parse env s
  else
    match split_word "or" s with
    | Some (l, r) ->
      Presburger.or_ [ parse_conj env l; parse_disj env r ]
    | None -> parse_conj env s

and parse_conj env s =
  match Parser.parse_conds_string s with
  | conds -> Presburger.and_ (List.map (atom_of env) conds)
  | exception Parser.Error (msg, _) -> raise (Error msg)

(* Entry points. *)
let formula_of_string (s : string) : Presburger.t =
  parse { table = [] } s

(* Bare conjunctions as problems over one shared set of variables, with
   the bindings created for their names. *)
let problems_of_strings (srcs : string list) :
    Problem.t list * (string * Var.t) list =
  let env = { table = [] } in
  let parse s =
    try Parser.parse_conds_string s
    with Parser.Error (msg, pos) ->
      raise
        (Error (Printf.sprintf "parse error at column %d: %s" pos.Ast.col msg))
  in
  let constr (c : Ast.cond) : Constr.t =
    let l = linexpr_of env c.Ast.left and r = linexpr_of env c.Ast.right in
    match c.Ast.op with
    | Ast.Eq -> Constr.eq2 l r
    | Ast.Le -> Constr.le l r
    | Ast.Lt -> Constr.lt l r
    | Ast.Ge -> Constr.ge l r
    | Ast.Gt -> Constr.gt l r
    | Ast.Ne -> raise (Error "!= is a disjunction; not allowed here")
  in
  let conds = List.map parse srcs in
  (* bind first: the constraints fill [env.table] *)
  let ps = List.map (fun cs -> Problem.of_list (List.map constr cs)) conds in
  (ps, env.table)

let problem_of_string s =
  match problems_of_strings [ s ] with
  | [ p ], binds -> (p, binds)
  | _ -> assert false

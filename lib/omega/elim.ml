(* The Omega test engine: exact elimination of variables from conjunctions
   of linear constraints.

   Two phases per problem:

   1. Equality elimination.  Equalities involving eliminable variables are
      removed exactly: a variable with a unit coefficient is substituted
      away; otherwise Pugh's "mod-hat" step introduces a fresh wildcard and
      shrinks the equality's coefficients until a unit coefficient appears.
      Equalities whose eliminable variables occur nowhere else collapse into
      congruences (a single wildcard with coefficient >= 2) or disappear.

   2. Fourier-Motzkin elimination of the remaining eliminable variables,
      which by then occur only in inequalities.  Each pair of a lower and an
      upper bound combines into a *real shadow* constraint; the *dark
      shadow* tightens it by (a-1)(b-1), guaranteeing an integer witness.
      When the two differ, the exact projection is the dark shadow together
      with finitely many *splinters* (copies of the problem with the
      variable pinned near a lower bound), per [Pug91]. *)

type keep = Var.t -> bool

exception Contradiction

(* ------------------------------------------------------------------ *)
(* Equality elimination                                                *)
(* ------------------------------------------------------------------ *)

(* Solve an equality for a variable [v] with coefficient +-1: returns the
   defining expression for [v]. *)
let solve_for v (e : Linexpr.t) =
  let c = Linexpr.coeff e v in
  assert (Zint.is_one (Zint.abs c));
  let rest = Linexpr.set_coeff e v Zint.zero in
  if Zint.is_one c then Linexpr.neg rest else rest

(* An equality is an inert congruence when its only eliminable variable is
   a wildcard with |coeff| >= 2 occurring nowhere else in the problem. *)
let eliminable_vars ~(keep : keep) e =
  Var.Set.filter (fun v -> Var.is_wild v || not (keep v)) (Linexpr.vars e)

let occurrences_excluding p c v =
  List.fold_left
    (fun n c' -> if c' != c && Constr.mentions c' v then n + 1 else n)
    0 (Problem.constraints p)

let is_inert ~keep p (c : Constr.t) =
  Constr.kind c = Constr.Eq
  &&
  let e = Constr.expr c in
  match Var.Set.elements (eliminable_vars ~keep e) with
  | [ v ] ->
    Var.is_wild v
    && Zint.(Zint.abs (Linexpr.coeff e v) >= Zint.two)
    && occurrences_excluding p c v = 0
  | _ -> false

(* mod-hat reduction step on equality [c]: used when the equality entangles
   at least two eliminable variables, none with a unit coefficient.
   Introduces a fresh wildcard [sigma] via Pugh's symmetric-residue
   equation; the target variable [k] (the eliminable variable with the
   smallest coefficient) has a unit coefficient there, so it can be
   substituted away globally.  Repetition shrinks the eliminable
   coefficients, guaranteeing termination [Pug91]. *)
let mod_hat_step ~keep p (c : Constr.t) =
  let e = Constr.expr c in
  let eliminable v = Var.is_wild v || not (keep v) in
  (* k = eliminable variable with the smallest |coefficient| *)
  let k, ak =
    Linexpr.fold_terms
      (fun v cv acc ->
        if not (eliminable v) then acc
        else
          match acc with
          | Some (_, best) when Zint.(Zint.abs best <= Zint.abs cv) -> acc
          | _ -> Some (v, cv))
      e None
    |> Option.get
  in
  let m = Zint.succ (Zint.abs ak) in
  let sigma = Var.fresh_wild () in
  (* star: sum_i mod_hat(a_i, m) x_i + mod_hat(const, m) - m sigma = 0;
     the coefficient of k in star is -sign(ak), a unit. *)
  let star_expr =
    let base = Linexpr.map_coeffs (fun a -> Zint.mod_hat a m) e in
    Linexpr.add_term base (Zint.neg m) sigma
  in
  let def = solve_for k star_expr in
  Problem.subst_colored k def (Constr.color c) p

(* Scale-out step: equality [c] reads [m*v + r = 0] where [v] is its only
   eliminable variable (with [r] over kept variables and the constant).
   Any other constraint [a*v + s >= 0] can be multiplied by |m| > 0 (exact
   for inequalities and equalities alike) and [m*v] replaced by [-r],
   eliminating [v] from it without touching integrality.  Afterwards [v] is
   local to [c], which then collapses to a congruence. *)
let scale_out_step p (c : Constr.t) v =
  let e = Constr.expr c in
  let m = Linexpr.coeff e v in
  let r = Linexpr.set_coeff e v Zint.zero in
  let am = Zint.abs m in
  let sm = Zint.of_int (Zint.sign m) in
  Problem.map_constraints
    (fun c' ->
      if c' == c || not (Constr.mentions c' v) then c'
      else begin
        let e' = Constr.expr c' in
        let a = Linexpr.coeff e' v in
        let s = Linexpr.set_coeff e' v Zint.zero in
        let expr =
          Linexpr.add (Linexpr.scale am s)
            (Linexpr.scale (Zint.neg (Zint.mul a sm)) r)
        in
        Constr.make
          ~color:(Constr.combine_colors (Constr.color c) (Constr.color c'))
          (Constr.kind c') expr
      end)
    p

(* One pass of the equality phase; raises [Contradiction].  Returns
   [`Progress p] when a step was taken, [`Done p] when every equality is
   either purely over kept variables or an inert congruence. *)
let eq_step ~keep (p : Problem.t) =
  let cs = Problem.constraints p in
  let rec find = function
    | [] -> `Done p
    | c :: rest when Constr.kind c <> Constr.Eq -> find rest
    | c :: rest ->
      let e = Constr.expr c in
      let elims = eliminable_vars ~keep e in
      if Var.Set.is_empty elims then find rest
      else if is_inert ~keep p c then find rest
      else begin
        (* 1: substitute through a unit-coefficient eliminable variable *)
        let unit_var =
          let candidates =
            Var.Set.filter
              (fun v -> Zint.is_one (Zint.abs (Linexpr.coeff e v)))
              elims
          in
          (* prefer wildcards to keep problems small *)
          match Var.Set.elements (Var.Set.filter Var.is_wild candidates) with
          | v :: _ -> Some v
          | [] -> (
            match Var.Set.elements candidates with
            | v :: _ -> Some v
            | [] -> None)
        in
        match unit_var with
        | Some v ->
          let def = solve_for v e in
          let p' =
            Problem.filter (fun c' -> c' != c) p
            |> Problem.subst_colored v def (Constr.color c)
          in
          `Progress p'
        | None ->
          (* 2: all eliminable vars occur only in this equality: collapse
             them into a congruence (or drop / refute) *)
          let all_local =
            Var.Set.for_all (fun v -> occurrences_excluding p c v = 0) elims
          in
          if all_local then begin
            let g =
              Var.Set.fold
                (fun v acc -> Zint.gcd acc (Linexpr.coeff e v))
                elims Zint.zero
            in
            let kept_part =
              Var.Set.fold (fun v e -> Linexpr.set_coeff e v Zint.zero) elims e
            in
            let p_rest = Problem.filter (fun c' -> c' != c) p in
            if Zint.is_one g then `Progress p_rest
            else if Linexpr.is_const kept_part then
              if Zint.divisible (Linexpr.constant kept_part) g then
                `Progress p_rest
              else raise Contradiction
            else begin
              (* kept_part + g * sigma = 0 for a fresh wildcard sigma *)
              let sigma = Var.fresh_wild () in
              let cong = Linexpr.add_term kept_part g sigma in
              `Progress
                (Problem.add (Constr.eq ~color:(Constr.color c) cong) p_rest)
            end
          end
          else if Var.Set.cardinal elims = 1 then
            (* 3: a single eliminable variable entangled with other
               constraints: scale it out of them, making it local *)
            `Progress (scale_out_step p c (Var.Set.choose elims))
          else
            (* 4: several entangled eliminable variables: mod-hat *)
            `Progress (mod_hat_step ~keep p c)
      end
  in
  find cs

(* Run simplification and the equality phase to a fixed point, charging
   the meter one tick per step. *)
let rec eq_phase ~keep m (p : Problem.t) : Problem.t =
  Budget.tick m;
  match Problem.simplify p with
  | Problem.Contra -> raise Contradiction
  | Problem.Ok p -> (
    match eq_step ~keep p with
    | `Done p -> p
    | `Progress p -> eq_phase ~keep m p)

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin elimination of one variable from the inequalities   *)
(* ------------------------------------------------------------------ *)

type fm_result =
  | Eliminated of Problem.t (* exact *)
  | Split of {
      dark : Problem.t;
      real : Problem.t;
      splinters : splinters;
    }

(* The splinters of an inexact elimination (each pins the variable
   with an added equality).  Callers charge [count] before they
   [build], so a hostile coefficient gives up on the splinter limit
   instead of allocating millions of problems first. *)
and splinters = { count : int; build : unit -> Problem.t list }

(* Split the constraints of [p] around variable [v].
   Lower bounds: cl*v + rl >= 0 with cl > 0.
   Upper bounds: -cu*v + ru >= 0 with cu > 0 (stored as (cu, ru)). *)
let bounds_on p v =
  List.fold_left
    (fun (lows, ups, others) c ->
      if Constr.kind c = Constr.Eq || not (Constr.mentions c v) then
        (lows, ups, c :: others)
      else begin
        let e = Constr.expr c in
        let cv = Linexpr.coeff e v in
        let rest = Linexpr.set_coeff e v Zint.zero in
        if Zint.sign cv > 0 then ((cv, rest, c) :: lows, ups, others)
        else ((lows, (Zint.neg cv, rest, c) :: ups, others))
      end)
    ([], [], []) (Problem.constraints p)

(* Exactness of eliminating v: every lower/upper pair must have a unit
   coefficient on at least one side. *)
let fm_exact lows ups =
  List.for_all (fun (cl, _, _) -> Zint.is_one cl) lows
  || List.for_all (fun (cu, _, _) -> Zint.is_one cu) ups

let fm_combine ~dark lows ups others =
  let combos =
    List.concat_map
      (fun (cl, rl, lc) ->
        List.map
          (fun (cu, ru, uc) ->
            (* cl*v >= -rl and cu*v <= ru:
               real: cl*ru + cu*rl >= 0
               dark: cl*ru + cu*rl - (cl-1)(cu-1) >= 0 *)
            let e =
              Linexpr.add (Linexpr.scale cl ru) (Linexpr.scale cu rl)
            in
            let e =
              if dark then
                Linexpr.add_const e
                  (Zint.neg (Zint.mul (Zint.pred cl) (Zint.pred cu)))
              else e
            in
            Constr.geq
              ~color:(Constr.combine_colors (Constr.color lc) (Constr.color uc))
              e)
          ups)
      lows
  in
  Problem.of_list (combos @ others)

(* Pugh's splinter construction: an integer solution outside the dark
   shadow must satisfy [cl*v + rl = k] for some lower bound and some
   [0 <= k <= (amax*cl - amax - cl) / amax], where [amax] is the largest
   upper-bound coefficient of [v]. *)
let make_splinters v p lows ups =
  let amax =
    List.fold_left (fun acc (cu, _, _) -> Zint.max acc cu) Zint.one ups
  in
  let pins =
    List.map
      (fun (cl, rl, _) ->
        (cl, rl, Zint.(fdiv ((amax * cl) - (amax + cl)) amax)))
      lows
  in
  let count =
    List.fold_left
      (fun n (_, _, kmax) -> Zint.(n + max zero (succ kmax)))
      Zint.zero pins
  in
  let build () =
    List.concat_map
      (fun (cl, rl, kmax) ->
        (* pin cl*v + rl - k = 0 for k = 0..kmax *)
        List.init (max 0 (Zint.to_int kmax + 1)) (fun k ->
            let pin_expr =
              Linexpr.add_term (Linexpr.add_const rl (Zint.of_int (-k))) cl v
            in
            Problem.add (Constr.eq pin_expr) p))
      pins
  in
  { count = Zint.to_int count; build }

let fm_eliminate p v : fm_result =
  let s = Metrics.current () in
  s.Metrics.fm_eliminations <- s.fm_eliminations + 1;
  let lows, ups, others = bounds_on p v in
  match lows, ups with
  | [], _ | _, [] ->
    s.fm_exact <- s.fm_exact + 1;
    Eliminated (Problem.of_list others)
  | _ ->
    (* the cross product multiplies the inequality count only when both
       sides have several bounds; flag those results so [simplify] runs
       the interval screen on them *)
    let grown p =
      (match lows, ups with
      | _ :: _ :: _, _ :: _ :: _ -> Problem.mark_grown p
      | _ -> ());
      p
    in
    if fm_exact lows ups then begin
      s.fm_exact <- s.fm_exact + 1;
      Eliminated (grown (fm_combine ~dark:true lows ups others))
    end
    else begin
      s.fm_split <- s.fm_split + 1;
      let dark = grown (fm_combine ~dark:true lows ups others) in
      let real = grown (fm_combine ~dark:false lows ups others) in
      Split { dark; real; splinters = make_splinters v p lows ups }
    end

(* ------------------------------------------------------------------ *)
(* Variable choice                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-candidate tallies for Pugh's elimination-ordering heuristic,
   gathered in one pass over the constraints. *)
type vinfo = {
  vi_var : Var.t;
  mutable vi_lows : int;  (* inequalities bounding the var from below *)
  mutable vi_ups : int;  (* ... from above *)
  mutable vi_low_unit : bool;  (* every lower coefficient is 1 *)
  mutable vi_up_unit : bool;  (* every upper coefficient is 1 (in abs) *)
  mutable vi_in_eq : bool;  (* still occurs in an equality: skip *)
}

(* Pick the eliminable variable whose elimination is cheapest, per Pugh:
   free variables (one-sided bounds, no combinations at all) first, then
   exact eliminations (some side all-unit), then inexact ones, in each
   class minimizing the #lower-bounds x #upper-bounds product of new
   constraints, with a deterministic id tie-break.  Ids increase in
   allocation order within a domain, and the variables of one problem
   are always minted by one domain, so the choice — like constraint
   emission order and canonical memo keys — depends only on relative
   allocation order, which is identical in serial and sharded runs.
   (A name-based tie-break would not be: wildcard names embed ids from
   the allocating domain's slot.) *)
let pick_var ~keep p =
  let tbl : (int, vinfo) Hashtbl.t = Hashtbl.create 16 in
  let info v =
    match Hashtbl.find_opt tbl (Var.id v) with
    | Some i -> i
    | None ->
      let i =
        {
          vi_var = v;
          vi_lows = 0;
          vi_ups = 0;
          vi_low_unit = true;
          vi_up_unit = true;
          vi_in_eq = false;
        }
      in
      Hashtbl.add tbl (Var.id v) i;
      i
  in
  List.iter
    (fun c ->
      let is_eq = Constr.kind c = Constr.Eq in
      Linexpr.iter_terms
        (fun v cv ->
          if Var.is_wild v || not (keep v) then begin
            let i = info v in
            if is_eq then i.vi_in_eq <- true
            else if Zint.sign cv > 0 then begin
              i.vi_lows <- i.vi_lows + 1;
              if not (Zint.is_one cv) then i.vi_low_unit <- false
            end
            else begin
              i.vi_ups <- i.vi_ups + 1;
              if not (Zint.is_one (Zint.neg cv)) then i.vi_up_unit <- false
            end
          end)
        (Constr.expr c))
    (Problem.constraints p);
  (* (class, product) score; lower is better *)
  let score i =
    if i.vi_in_eq || (i.vi_lows = 0 && i.vi_ups = 0) then None
    else if i.vi_lows = 0 || i.vi_ups = 0 then Some (0, 0)
    else if i.vi_low_unit || i.vi_up_unit then
      Some (1, i.vi_lows * i.vi_ups)
    else Some (2, i.vi_lows * i.vi_ups)
  in
  Hashtbl.fold
    (fun _ i best ->
      match score i with
      | None -> best
      | Some (cls, prod) -> (
        match best with
        | Some (cls', prod', v') ->
          let c = Stdlib.compare (cls, prod) (cls', prod') in
          let better =
            c < 0
            || (c = 0
                &&
                Var.id i.vi_var < Var.id v')
          in
          if better then Some (cls, prod, i.vi_var) else best
        | None -> Some (cls, prod, i.vi_var)))
    tbl None
  |> Option.map (fun (_, _, v) -> v)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Exact projection: returns a list of problems whose union (reading
   wildcards existentially) equals the projection of [p] onto the kept
   variables.  An empty list means the problem is unsatisfiable.
   [splintered] (when provided) is set when any elimination was not exact
   (so the result may rest on dark shadows even if a single problem comes
   back). *)
let rec project_list ~keep m ?splintered (p : Problem.t) : Problem.t list =
  Budget.tick m;
  match eq_phase ~keep m p with
  | exception Contradiction -> []
  | p -> (
    match pick_var ~keep p with
    | None -> [ p ]
    | Some v -> (
      match fm_eliminate p v with
      | Eliminated p' -> project_list ~keep m ?splintered p'
      | Split { dark; splinters; _ } ->
        (match splintered with Some r -> r := true | None -> ());
        Budget.add_splinters m splinters.count;
        project_list ~keep m ?splintered dark
        @ List.concat_map
            (project_list ~keep m ?splintered)
            (splinters.build ())))

let project ?splintered ~keep p =
  Budget.with_meter (fun m -> project_list ~keep m ?splintered p)

(* Approximate projection: single problem.  [`Dark] under-approximates
   (every point of the result is in the true projection), [`Real]
   over-approximates. *)
let rec project_approx ~mode ~keep m (p : Problem.t) :
    [ `Contra | `Ok of Problem.t ] =
  Budget.tick m;
  match eq_phase ~keep m p with
  | exception Contradiction -> `Contra
  | p -> (
    match pick_var ~keep p with
    | None -> `Ok p
    | Some v -> (
      match fm_eliminate p v with
      | Eliminated p' -> project_approx ~mode ~keep m p'
      | Split { dark; real; _ } ->
        let next = match mode with `Dark -> dark | `Real -> real in
        project_approx ~mode ~keep m next))

let project_dark ~keep p =
  Budget.with_meter (fun m -> project_approx ~mode:`Dark ~keep m p)

let project_real ~keep p =
  Budget.with_meter (fun m -> project_approx ~mode:`Real ~keep m p)

let keep_none : keep = fun _ -> false

(* Conservative satisfiability via real shadows only: [false] is definite,
   [true] is "maybe". *)
let sat_real p =
  match project_real ~keep:keep_none p with `Contra -> false | `Ok _ -> true

(* Exact integer satisfiability. *)
let rec sat_meter m (p : Problem.t) : bool =
  Budget.tick m;
  match eq_phase ~keep:keep_none m p with
  | exception Contradiction -> false
  | p -> (
    match pick_var ~keep:keep_none p with
    | None -> true
    | Some v -> (
      match fm_eliminate p v with
      | Eliminated p' -> sat_meter m p'
      | Split { dark; real; splinters } ->
        Budget.add_splinters m splinters.count;
        sat_meter m dark
        || (sat_real real && List.exists (sat_meter m) (splinters.build ()))))

let satisfiable p = Budget.with_meter (fun m -> sat_meter m p)

(* The Omega test engine: exact elimination of variables from conjunctions
   of linear constraints.

   Two phases per problem:

   1. Equality elimination.  Equalities involving eliminable variables are
      removed exactly: a variable with a unit coefficient is substituted
      away; otherwise Pugh's "mod-hat" step introduces a fresh wildcard and
      shrinks the equality's coefficients until a unit coefficient appears.
      Equalities whose eliminable variables occur nowhere else collapse into
      congruences (a single wildcard with coefficient >= 2) or disappear.
      Each pass simplifies once: it substitutes through every equality
      that has a unit coefficient, or else takes one collapse, scale-out
      or mod-hat step.

   2. Fourier-Motzkin elimination of the remaining eliminable variables,
      which by then occur only in inequalities.  Each pair of a lower and an
      upper bound combines into a *real shadow* constraint; the *dark
      shadow* tightens it by (a-1)(b-1), guaranteeing an integer witness.
      When the two differ, the exact projection is the dark shadow together
      with finitely many *splinters* (copies of the problem with the
      variable pinned near a lower bound), per [Pug91]. *)

type keep = Var.t -> bool

(* Wildcards and the variables the caller does not keep. *)
let eliminable ~(keep : keep) v = Var.is_wild v || not (keep v)

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

(* Does [v] occur in a constraint of [cs] other than [c]? *)
let rec occurs_elsewhere c v = function
  | [] -> false
  | c' :: rest -> (c' != c && Constr.mentions c' v) || occurs_elsewhere c v rest

(* mod-hat reduction step on equality [c]: used when the equality entangles
   at least two eliminable variables, none with a unit coefficient.
   Introduces a fresh wildcard [sigma] via Pugh's symmetric-residue
   equation; the target variable [k] (the eliminable variable with the
   smallest coefficient) has a unit coefficient there, so it can be
   substituted away globally.  Repetition shrinks the eliminable
   coefficients, guaranteeing termination [Pug91]. *)
let mod_hat_step ~keep p (c : Constr.t) =
  let e = Constr.expr c in
  (* k = eliminable variable with the smallest |coefficient| *)
  let k, ak =
    Linexpr.fold_terms
      (fun v cv acc ->
        if not (eliminable ~keep v) then acc
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

(* What the equality phase needs to know of one equality, gathered in
   one ascending pass over its terms: how many eliminable variables it
   has (the only one when [elims = 1]), and the first wildcard and the
   first variable among them with a unit coefficient. *)
type eq_scan = {
  mutable elims : int;
  mutable first : Var.t option;  (* the first eliminable variable *)
  mutable first_coeff : Zint.t;
  mutable wild_unit : Var.t option;
  mutable unit : Var.t option;
}

let scan_eq ~(keep : keep) e =
  let s =
    { elims = 0; first = None; first_coeff = Zint.zero; wild_unit = None; unit = None }
  in
  Linexpr.iter_terms
    (fun v cv ->
      if eliminable ~keep v then begin
        if s.elims = 0 then begin
          s.first <- Some v;
          s.first_coeff <- cv
        end;
        s.elims <- s.elims + 1;
        if Zint.is_one (Zint.abs cv) then begin
          if s.unit = None then s.unit <- Some v;
          if s.wild_unit = None && Var.is_wild v then s.wild_unit <- Some v
        end
      end)
    e;
  s

(* The equality [c], all of whose eliminable variables occur nowhere
   else: fold them into one congruence (or drop / refute it). *)
let collapse ~keep p (c : Constr.t) =
  let e = Constr.expr c in
  let g =
    Linexpr.fold_terms
      (fun v cv acc -> if eliminable ~keep v then Zint.gcd acc cv else acc)
      e Zint.zero
  in
  let kept_part =
    Linexpr.fold_terms
      (fun v _ e ->
        if eliminable ~keep v then Linexpr.set_coeff e v Zint.zero else e)
      e e
  in
  let p_rest = Problem.filter (fun c' -> c' != c) p in
  if Zint.is_one g then p_rest
  else if Linexpr.is_const kept_part then
    if Zint.divisible (Linexpr.constant kept_part) g then p_rest
    else raise Contradiction
  else begin
    (* kept_part + g * sigma = 0 for a fresh wildcard sigma *)
    let sigma = Var.fresh_wild () in
    let cong = Linexpr.add_term kept_part g sigma in
    Problem.add (Constr.eq ~color:(Constr.color c) cong) p_rest
  end

(* The variable a unit-coefficient substitution eliminates, if the
   scanned equality has one: a wildcard first, to keep problems small. *)
let unit_var s = if s.wild_unit <> None then s.wild_unit else s.unit

(* Substitute through [c] for its unit-coefficient variable [v], then
   through every later equality of the result, in order, that has one;
   [i] is [c]'s index, where the constraints after it start once it is
   dropped.  No simplification runs in between: each substitution is
   exact on any equality with a unit coefficient, normalized or not,
   and a constraint left unnormalized, tautological or contradictory
   waits for the one [simplify] of the next pass.  The equalities
   before [c] are inert congruences or over kept variables only, so no
   substitution changes them. *)
let rec subst_units ~keep p i c v =
  let p = Problem.subst_out c v (solve_for v (Constr.expr c)) p in
  let rec next j = function
    | [] -> p
    | c :: rest when Constr.kind c <> Constr.Eq -> next (j + 1) rest
    | c :: rest -> (
      match unit_var (scan_eq ~keep (Constr.expr c)) with
      | Some v -> subst_units ~keep p j c v
      | None -> next (j + 1) rest)
  in
  let rec drop j = function
    | l when j = 0 -> l
    | [] -> []
    | _ :: rest -> drop (j - 1) rest
  in
  next i (drop i (Problem.constraints p))

(* One pass of the equality phase over a simplified problem; raises
   [Contradiction].  Returns [`Progress p] when a step was taken, [`Done
   p] when every equality is either purely over kept variables or an
   inert congruence: its only eliminable variable a wildcard with
   |coeff| >= 2 occurring nowhere else in the problem.  A pass takes
   every unit-coefficient substitution it can ([subst_units]), or else
   one collapse, scale-out or mod-hat step: those read the normalized
   equalities of a freshly simplified problem, and mod-hat's
   termination rests on them. *)
let eq_step ~keep (p : Problem.t) =
  let cs = Problem.constraints p in
  let rec find i = function
    | [] -> `Done p
    | c :: rest when Constr.kind c <> Constr.Eq -> find (i + 1) rest
    | c :: rest -> (
      let e = Constr.expr c in
      let s = scan_eq ~keep e in
      match s.first with
      | None -> find (i + 1) rest
      | Some v1 ->
        if
          s.elims = 1 && Var.is_wild v1
          && Zint.(Zint.abs s.first_coeff >= Zint.two)
          && not (occurs_elsewhere c v1 cs)
        then find (i + 1) rest
        else begin
          (* 1: substitute through unit-coefficient eliminable
             variables *)
          match unit_var s with
          | Some v -> `Progress (subst_units ~keep p i c v)
          | None ->
            (* 2: all eliminable vars occur only in this equality:
               collapse them into a congruence (or drop / refute) *)
            if
              Linexpr.fold_terms
                (fun v _ local ->
                  local && not (eliminable ~keep v && occurs_elsewhere c v cs))
                e true
            then `Progress (collapse ~keep p c)
            else if s.elims = 1 then
              (* 3: a single eliminable variable entangled with other
                 constraints: scale it out of them, making it local *)
              `Progress (scale_out_step p c v1)
            else
              (* 4: several entangled eliminable variables: mod-hat *)
              `Progress (mod_hat_step ~keep p c)
        end)
  in
  find 0 cs

(* Run simplification and the equality phase to a fixed point, charging
   the meter one tick per pass: each pass simplifies once. *)
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
let rec split_bounds v lows ups others = function
  | [] -> (lows, ups, others)
  | c :: rest ->
    if Constr.kind c = Constr.Eq || not (Constr.mentions c v) then
      split_bounds v lows ups (c :: others) rest
    else begin
      let e = Constr.expr c in
      let cv = Linexpr.coeff e v in
      let r = Linexpr.set_coeff e v Zint.zero in
      if Zint.sign cv > 0 then split_bounds v ((cv, r, c) :: lows) ups others rest
      else split_bounds v lows ((Zint.neg cv, r, c) :: ups) others rest
    end

let bounds_on p v = split_bounds v [] [] [] (Problem.constraints p)

(* Exactness of eliminating v: every lower/upper pair must have a unit
   coefficient on at least one side. *)
let fm_exact lows ups =
  List.for_all (fun (cl, _, _) -> Zint.is_one cl) lows
  || List.for_all (fun (cu, _, _) -> Zint.is_one cu) ups

(* Every lower bound against every upper bound (lows outermost), then
   [others]. *)
let fm_combine ~dark lows ups others =
  Problem.of_list
    (List.fold_right
       (fun (cl, rl, lc) acc ->
         List.fold_right
           (fun (cu, ru, uc) acc ->
             (* cl*v >= -rl and cu*v <= ru:
                real: cl*ru + cu*rl >= 0
                dark: cl*ru + cu*rl - (cl-1)(cu-1) >= 0 *)
             let e = Linexpr.lincomb cl ru cu rl in
             let e =
               if dark then
                 Linexpr.add_const e
                   (Zint.neg (Zint.mul (Zint.pred cl) (Zint.pred cu)))
               else e
             in
             Constr.geq
               ~color:(Constr.combine_colors (Constr.color lc) (Constr.color uc))
               e
             :: acc)
           ups acc)
       lows others)

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

let new_info v =
  {
    vi_var = v;
    vi_lows = 0;
    vi_ups = 0;
    vi_low_unit = true;
    vi_up_unit = true;
    vi_in_eq = false;
  }

(* The tallies of [v] in [infos], a short list: one entry per eliminable
   variable of the problem. *)
let rec find_info v = function
  | [] -> raise_notrace Not_found
  | i :: rest -> if Var.equal i.vi_var v then i else find_info v rest

(* (class, product) score, lower is better; class -1 when [v] cannot be
   eliminated by Fourier-Motzkin now *)
let vi_class i =
  if i.vi_in_eq || (i.vi_lows = 0 && i.vi_ups = 0) then -1
  else if i.vi_lows = 0 || i.vi_ups = 0 then 0
  else if i.vi_low_unit || i.vi_up_unit then 1
  else 2

let vi_product i = if vi_class i = 0 then 0 else i.vi_lows * i.vi_ups

let better i j =
  let ci = vi_class i and cj = vi_class j in
  ci < cj
  || ci = cj
     && (vi_product i < vi_product j
        || (vi_product i = vi_product j && Var.id i.vi_var < Var.id j.vi_var))

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
  let infos = ref [] and is_eq = ref false in
  let tally v cv =
    if eliminable ~keep v then begin
      let i =
        try find_info v !infos
        with Not_found ->
          let i = new_info v in
          infos := i :: !infos;
          i
      in
      if !is_eq then i.vi_in_eq <- true
      else if Zint.sign cv > 0 then begin
        i.vi_lows <- i.vi_lows + 1;
        if not (Zint.is_one cv) then i.vi_low_unit <- false
      end
      else begin
        i.vi_ups <- i.vi_ups + 1;
        if not (Zint.is_one (Zint.neg cv)) then i.vi_up_unit <- false
      end
    end
  in
  List.iter
    (fun c ->
      is_eq := Constr.kind c = Constr.Eq;
      Linexpr.iter_terms tally (Constr.expr c))
    (Problem.constraints p);
  List.fold_left
    (fun best i ->
      if vi_class i < 0 then best
      else
        match best with
        | Some j when not (better i j) -> best
        | _ -> Some i)
    None !infos
  |> Option.map (fun i -> i.vi_var)

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

(* An independent brute-force oracle for small Omega problems.

   Problems are evaluated over an explicit box of integer assignments.  The
   generators below always conjoin the box constraints into the problems
   they build, so "satisfiable anywhere" and "satisfiable in the box"
   coincide and the Omega test can be checked exactly against enumeration.

   Wildcard variables are handled only in the inert-congruence position
   that projection outputs guarantee (each wildcard in exactly one
   equality): such an equality holds for some integer wildcard value iff
   the gcd of the wildcard coefficients divides the rest. *)

open Omega

let holds_at (env : Zint.t Var.Map.t) (p : Problem.t) : bool =
  List.for_all
    (fun c ->
      let e = Constr.expr c in
      let wilds = Var.Set.filter Var.is_wild (Linexpr.vars e) in
      if Var.Set.is_empty wilds then
        Constr.eval (fun v -> Var.Map.find v env) c
      else begin
        assert (Constr.kind c = Constr.Eq);
        let g =
          Var.Set.fold
            (fun w acc -> Zint.gcd acc (Linexpr.coeff e w))
            wilds Zint.zero
        in
        let residual =
          Linexpr.fold_terms
            (fun v cv acc ->
              if Var.is_wild v then acc
              else Zint.add acc (Zint.mul cv (Var.Map.find v env)))
            e (Linexpr.constant e)
        in
        Zint.divisible residual g
      end)
    (Problem.constraints p)

(* All assignments of [vars] to values in [lo..hi]. *)
let rec assignments vars lo hi : Zint.t Var.Map.t Seq.t =
  match vars with
  | [] -> Seq.return Var.Map.empty
  | v :: rest ->
    Seq.concat_map
      (fun env ->
        Seq.map
          (fun x -> Var.Map.add v (Zint.of_int x) env)
          (Seq.init (hi - lo + 1) (fun i -> lo + i)))
      (assignments rest lo hi)

let exists_solution vars lo hi p =
  Seq.exists (fun env -> holds_at env p) (assignments vars lo hi)

(* ------------------------------------------------------------------ *)
(* Random problem generation                                           *)
(* ------------------------------------------------------------------ *)

(* A fixed pool of variables reused across generated problems. *)
let pool = Array.init 4 (fun i -> Var.fresh (Printf.sprintf "v%d" i))

let box_constraints vars lo hi =
  List.concat_map
    (fun v ->
      [
        Constr.ge (Linexpr.var v) (Linexpr.of_int lo);
        Constr.le (Linexpr.var v) (Linexpr.of_int hi);
      ])
    vars

let gen_linexpr ~nvars ~max_coeff ~max_const =
  QCheck.Gen.(
    let* const = int_range (-max_const) max_const in
    let* coeffs =
      array_size (return nvars) (int_range (-max_coeff) max_coeff)
    in
    return
      (Array.to_seqi coeffs
      |> Seq.fold_left
           (fun e (i, c) -> Linexpr.add_term e (Zint.of_int c) pool.(i))
           (Linexpr.of_int const)))

let gen_constr ~nvars ~max_coeff ~max_const =
  QCheck.Gen.(
    let* e = gen_linexpr ~nvars ~max_coeff ~max_const in
    let* k = int_range 0 4 in
    return (if k = 0 then Constr.eq e else Constr.geq e))

(* A random problem over the first [nvars] pool variables, boxed to
   [lo..hi]. *)
let gen_problem ?(nvars = 3) ?(ncons = 3) ?(lo = -5) ?(hi = 5)
    ?(max_coeff = 3) ?(max_const = 8) () =
  QCheck.Gen.(
    let* cs = list_size (int_range 1 ncons) (gen_constr ~nvars ~max_coeff ~max_const) in
    let vars = Array.to_list (Array.sub pool 0 nvars) in
    return (Problem.of_list (cs @ box_constraints vars lo hi), vars, lo, hi))

let problem_print (p, _, _, _) = Problem.to_string p

let arb_problem ?nvars ?ncons ?lo ?hi ?max_coeff ?max_const () =
  QCheck.make
    ~print:problem_print
    (gen_problem ?nvars ?ncons ?lo ?hi ?max_coeff ?max_const ())

(* ------------------------------------------------------------------ *)
(* Reference simplifier                                                *)
(* ------------------------------------------------------------------ *)

(* [Problem.simplify] as a plain list implementation: every constraint
   normalized (gcd reduction, inequality constants floored), grouped by
   its linear direction (the linear part in ascending variable order,
   leading coefficient positive, so [e] and [-e] share a key), the
   tightest bound of each side kept, touching opposite bounds promoted to
   an equality, and the buckets emitted in ascending key order.  On a
   problem marked grown, with at least ten constraints and none red, the
   interval screen first drops the multi-term inequalities the box of
   single-variable bounds implies.  The kernel must make exactly these
   choices: downstream substitution and red/black gist shapes depend on
   the constraint order.  [simplify_ref ~grown p] returns the outcome
   and the number of constraints the screen dropped. *)

type ref_norm = R_tauto | R_contra | R_ok of Constr.t

let normalize_ref c =
  let e = Constr.expr c in
  if Linexpr.is_const e then begin
    let k = Linexpr.constant e in
    match Constr.kind c with
    | Constr.Eq -> if Zint.is_zero k then R_tauto else R_contra
    | Constr.Geq -> if Zint.sign k >= 0 then R_tauto else R_contra
  end
  else begin
    let g = Linexpr.content e in
    if Zint.is_one g then R_ok c
    else
      match Constr.kind c with
      | Constr.Eq ->
        if Zint.divisible (Linexpr.constant e) g then
          R_ok (Constr.eq ~color:(Constr.color c) (Linexpr.divexact e g))
        else R_contra
      | Constr.Geq ->
        R_ok
          (Constr.geq ~color:(Constr.color c)
             (Linexpr.map_coeffs (fun x -> Zint.fdiv x g) e))
  end

let key_ref e =
  let terms =
    List.rev (Linexpr.fold_terms (fun v c acc -> (v, c) :: acc) e [])
  in
  match terms with
  | (_, c0) :: _ when Zint.sign c0 < 0 ->
    (List.map (fun (v, c) -> (v, Zint.neg c)) terms, true)
  | _ -> (terms, false)

let compare_key_ref a b =
  List.compare
    (fun (va, ca) (vb, cb) ->
      let c = Var.compare va vb in
      if c <> 0 then c else Zint.compare ca cb)
    a b

type ref_bucket = {
  mutable r_lo : (Zint.t * Constr.t) option;
  mutable r_hi : (Zint.t * Constr.t) option;
  mutable r_eq : (Zint.t * Constr.t) option;
  mutable r_contra : bool;
}

let interval_screen_ref buckets =
  let bounds = Hashtbl.create 16 in
  let tighten r better x =
    match !r with
    | None -> r := Some x
    | Some y -> if better x y then r := Some x
  in
  List.iter
    (fun (key, b) ->
      match key with
      | [ (v, c1) ] when Zint.is_one c1 ->
        let lo, hi =
          match Hashtbl.find_opt bounds (Var.id v) with
          | Some cell -> cell
          | None ->
            let cell = (ref None, ref None) in
            Hashtbl.add bounds (Var.id v) cell;
            cell
        in
        Option.iter
          (fun (ceq, _) ->
            tighten lo Zint.( > ) (Zint.neg ceq);
            tighten hi Zint.( < ) (Zint.neg ceq))
          b.r_eq;
        Option.iter
          (fun (clo, _) -> tighten lo Zint.( > ) (Zint.neg clo))
          b.r_lo;
        Option.iter (fun (chi, _) -> tighten hi Zint.( < ) chi) b.r_hi
      | _ -> ())
    buckets;
  let box_min key sign =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | None -> None
        | Some m -> (
          let q = if sign then c else Zint.neg c in
          let bound =
            match Hashtbl.find_opt bounds (Var.id v) with
            | None -> None
            | Some (lo, hi) -> if Zint.sign q > 0 then !lo else !hi
          in
          match bound with
          | None -> None
          | Some b -> Some (Zint.add m (Zint.mul q b))))
      (Some Zint.zero) key
  in
  let pruned = ref 0 in
  List.iter
    (fun (key, b) ->
      if b.r_eq = None && (not b.r_contra) && List.length key > 1 then begin
        (match b.r_lo with
         | Some (clo, _) -> (
           match box_min key true with
           | Some m when Zint.(Zint.add m clo >= Zint.zero) ->
             b.r_lo <- None;
             incr pruned
           | _ -> ())
         | None -> ());
        match b.r_hi with
        | Some (chi, _) -> (
          match box_min key false with
          | Some m when Zint.(Zint.add m chi >= Zint.zero) ->
            b.r_hi <- None;
            incr pruned
          | _ -> ())
        | None -> ()
      end)
    buckets;
  !pruned

let simplify_ref ~grown (p : Problem.t) :
    [ `Contra | `Ok of Constr.t list ] * int =
  let exception Bail in
  let cs = Problem.constraints p in
  let buckets = ref [] in
  let get key =
    let same (k, _) = compare_key_ref k key = 0 in
    match List.find_opt same !buckets with
    | Some (_, b) -> b
    | None ->
      let b = { r_lo = None; r_hi = None; r_eq = None; r_contra = false } in
      buckets := (key, b) :: !buckets;
      b
  in
  let has_red = ref false in
  let consider c0 =
    match normalize_ref c0 with
    | R_tauto -> ()
    | R_contra -> raise Bail
    | R_ok c -> (
      if Constr.is_red c then has_red := true;
      let e = Constr.expr c in
      let key, flipped = key_ref e in
      let b = get key in
      let cst = Linexpr.constant e in
      match Constr.kind c with
      | Constr.Eq -> (
        let cst = if flipped then Zint.neg cst else cst in
        match b.r_eq with
        | Some (c', _) when not (Zint.equal c' cst) -> b.r_contra <- true
        | Some _ -> ()
        | None -> b.r_eq <- Some (cst, c))
      | Constr.Geq ->
        let update = function
          | Some (c', _) when Zint.(cst < c') -> Some (cst, c)
          | None -> Some (cst, c)
          | some -> some
        in
        if flipped then b.r_hi <- update b.r_hi else b.r_lo <- update b.r_lo)
  in
  match List.iter consider cs with
  | exception Bail -> (`Contra, 0)
  | () -> (
    let sorted =
      List.sort (fun (a, _) (b, _) -> compare_key_ref a b) !buckets
    in
    let pruned =
      if grown && (not !has_red) && List.length cs >= 10 then
        interval_screen_ref sorted
      else 0
    in
    let out = ref [] in
    let emit c = out := c :: !out in
    let check (_, b) =
      if b.r_contra then raise Bail;
      match b.r_eq with
      | Some (ceq, c) ->
        (match b.r_lo with
         | Some (clo, _) when Zint.(Zint.neg ceq < Zint.neg clo) -> raise Bail
         | _ -> ());
        (match b.r_hi with
         | Some (chi, _) when Zint.(Zint.neg ceq > chi) -> raise Bail
         | _ -> ());
        emit c
      | None -> (
        match b.r_lo, b.r_hi with
        | Some (clo, cl), Some (chi, ch) ->
          if Zint.(chi < Zint.neg clo) then raise Bail
          else if Zint.equal chi (Zint.neg clo) then
            emit
              (Constr.eq
                 ~color:
                   (Constr.combine_colors (Constr.color cl) (Constr.color ch))
                 (Constr.expr cl))
          else begin
            emit cl;
            emit ch
          end
        | Some (_, cl), None -> emit cl
        | None, Some (_, ch) -> emit ch
        | None, None -> ())
    in
    match List.iter check sorted with
    | exception Bail -> (`Contra, pruned)
    | () -> (`Ok (List.rev !out), pruned))

(* ------------------------------------------------------------------ *)
(* Reference equality phase                                            *)
(* ------------------------------------------------------------------ *)

(* The Omega test with its equality phase one step per round, as
   [Elim] ran it before a pass took every unit-coefficient substitution
   at once: [Problem.simplify], then one step on the first equality
   that is neither over kept variables only nor an inert congruence (a
   lone wildcard with |coeff| >= 2 that no other constraint mentions).
   The step substitutes through a unit-coefficient eliminable variable
   (a wildcard first), else collapses the equality's eliminable
   variables into a congruence when no other constraint mentions them,
   else scales its lone eliminable variable out of the others, else
   takes a mod-hat step.  Fourier-Motzkin then eliminates the
   eliminable variable of smallest id that no equality mentions: at once
   when one side's coefficients are all one, otherwise as the dark
   shadow plus Pugh's splinters.  Colors are ignored (the generators
   build black problems).  [project_ref] and [sat_ref] must denote the
   sets [Elim.project] and [Elim.satisfiable] do. *)

exception Ref_contra

let ref_eliminable keep v = Var.is_wild v || not (keep v)

let ref_solve_for v e =
  let rest = Linexpr.set_coeff e v Zint.zero in
  if Zint.is_one (Linexpr.coeff e v) then Linexpr.neg rest else rest

(* [c] reads [g*(elims) + kept = 0] with no other constraint mentioning
   its eliminable variables: [kept = 0 (mod g)]. *)
let ref_collapse p c elims =
  let e = Constr.expr c in
  let g =
    List.fold_left (fun g v -> Zint.gcd g (Linexpr.coeff e v)) Zint.zero elims
  in
  let kept =
    List.fold_left (fun e v -> Linexpr.set_coeff e v Zint.zero) e elims
  in
  let rest = Problem.filter (fun c' -> c' != c) p in
  if Zint.is_one g then rest
  else if Linexpr.is_const kept then
    if Zint.divisible (Linexpr.constant kept) g then rest else raise Ref_contra
  else
    Problem.add
      (Constr.eq (Linexpr.add_term kept g (Var.fresh_wild ())))
      rest

(* [c] reads [m*v + r = 0]: every other constraint [a*v + s] becomes
   [|m|*s - a*sign(m)*r]. *)
let ref_scale_out p c v =
  let e = Constr.expr c in
  let m = Linexpr.coeff e v in
  let r = Linexpr.set_coeff e v Zint.zero in
  Problem.map_constraints
    (fun c' ->
      if c' == c || not (Constr.mentions c' v) then c'
      else
        let e' = Constr.expr c' in
        let a = Linexpr.coeff e' v in
        let s = Linexpr.set_coeff e' v Zint.zero in
        Constr.make (Constr.kind c')
          (Linexpr.sub
             (Linexpr.scale (Zint.abs m) s)
             (Linexpr.scale (Zint.mul a (Zint.of_int (Zint.sign m))) r)))
    p

(* Pugh's mod-hat step on [c] through its eliminable variable [k] of
   smallest |coefficient|. *)
let ref_mod_hat p c elims =
  let e = Constr.expr c in
  let smaller k v =
    Zint.(Zint.abs (Linexpr.coeff e v) < Zint.abs (Linexpr.coeff e k))
  in
  let k =
    List.fold_left (fun k v -> if smaller k v then v else k) (List.hd elims)
      elims
  in
  let m = Zint.succ (Zint.abs (Linexpr.coeff e k)) in
  let star =
    Linexpr.add_term
      (Linexpr.map_coeffs (fun a -> Zint.mod_hat a m) e)
      (Zint.neg m) (Var.fresh_wild ())
  in
  Problem.subst k (ref_solve_for k star) p

let ref_eq_step keep p =
  let cs = Problem.constraints p in
  let elsewhere c v =
    List.exists (fun c' -> c' != c && Constr.mentions c' v) cs
  in
  let step c =
    let e = Constr.expr c in
    let elims =
      List.rev
        (Linexpr.fold_terms
           (fun v _ acc -> if ref_eliminable keep v then v :: acc else acc)
           e [])
    in
    let unit v = Zint.is_one (Zint.abs (Linexpr.coeff e v)) in
    match elims with
    | [] -> None
    | [ w ]
      when Var.is_wild w
           && Zint.(Zint.abs (Linexpr.coeff e w) >= Zint.two)
           && not (elsewhere c w) ->
      None
    | _ -> (
      let units = List.filter unit elims in
      match (List.find_opt Var.is_wild units, units) with
      | Some v, _ | None, v :: _ ->
        Some (Problem.subst_out c v (ref_solve_for v e) p)
      | None, [] ->
        if not (List.exists (elsewhere c) elims) then
          Some (ref_collapse p c elims)
        else if List.length elims = 1 then
          Some (ref_scale_out p c (List.hd elims))
        else Some (ref_mod_hat p c elims))
  in
  List.find_map
    (fun c -> if Constr.kind c = Constr.Eq then step c else None)
    cs

(* The equality phase to its fixed point; [None] on a contradiction. *)
let rec ref_eq_phase keep p =
  match Problem.simplify p with
  | Problem.Contra -> None
  | Problem.Ok p -> (
    match ref_eq_step keep p with
    | exception Ref_contra -> None
    | None -> Some p
    | Some p -> ref_eq_phase keep p)

(* One Fourier-Motzkin elimination: [None] when every eliminable
   variable sits in an equality, else the problems whose union is the
   projection. *)
let ref_fm keep p =
  let cs = Problem.constraints p in
  let in_eq v =
    List.exists (fun c -> Constr.kind c = Constr.Eq && Constr.mentions c v) cs
  in
  let candidates =
    Var.Set.filter
      (fun v -> ref_eliminable keep v && not (in_eq v))
      (Problem.vars p)
  in
  Option.map
    (fun v ->
      let bounds sign =
        List.filter_map
          (fun c ->
            let e = Constr.expr c in
            let a = Linexpr.coeff e v in
            if Zint.sign a = sign then
              Some (Zint.abs a, Linexpr.set_coeff e v Zint.zero)
            else None)
          cs
      in
      let lows = bounds 1 and ups = bounds (-1) in
      let others = List.filter (fun c -> not (Constr.mentions c v)) cs in
      let shadow =
        List.concat_map
          (fun (cl, rl) ->
            List.map
              (fun (cu, ru) ->
                Constr.geq
                  (Linexpr.add_const
                     (Linexpr.lincomb cl ru cu rl)
                     (Zint.neg (Zint.mul (Zint.pred cl) (Zint.pred cu)))))
              ups)
          lows
      in
      let dark = Problem.of_list (shadow @ others) in
      let all_unit = List.for_all (fun (a, _) -> Zint.is_one a) in
      if all_unit lows || all_unit ups then [ dark ]
      else
        let amax =
          List.fold_left (fun m (cu, _) -> Zint.max m cu) Zint.one ups
        in
        dark
        :: List.concat_map
             (fun (cl, rl) ->
               let kmax =
                 Zint.to_int Zint.(fdiv ((amax * cl) - (amax + cl)) amax)
               in
               List.init (max 0 (kmax + 1)) (fun k ->
                   Problem.add
                     (Constr.eq
                        (Linexpr.add_term
                           (Linexpr.add_const rl (Zint.of_int (-k)))
                           cl v))
                     p))
             lows)
    (Var.Set.min_elt_opt candidates)

(* Exact projection onto the variables [keep] holds: the union of the
   returned problems, their wildcards read existentially. *)
let rec project_ref ~keep p =
  match ref_eq_phase keep p with
  | None -> []
  | Some p -> (
    match ref_fm keep p with
    | None -> [ p ]
    | Some pieces -> List.concat_map (project_ref ~keep) pieces)

let sat_ref p = project_ref ~keep:(fun _ -> false) p <> []

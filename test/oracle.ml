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

(* Gist computation (section 3.3 of the paper).

   [gist p given q] is a conjunction of a minimal subset of the constraints
   of [p] such that [(gist p given q) && q == p && q]: the "new information"
   in [p] for someone who already knows [q].

   The naive algorithm tests, for each constraint [e] of [p], whether
   [not e && rest-of-p && q] is satisfiable; if not, [e] is implied by the
   rest and can be dropped.  The fast checks from the paper screen out most
   satisfiability tests:
   - a constraint implied by a single other constraint is redundant;
   - a constraint whose normal has a non-positive inner product with every
     other normal must be in the gist (nothing can combine to imply it). *)

(* Negation of one constraint as a disjunction of problems to be conjoined
   with a context.  Inert congruence equalities (an equality mentioning a
   wildcard [w] with coefficient [g]) negate into the g-1 other residues. *)
let negate_disjuncts (c : Constr.t) : Constr.t list =
  match Constr.kind c with
  | Constr.Geq -> [ Constr.negate_geq c ]
  | Constr.Eq -> (
    let e = Constr.expr c in
    let wild =
      Var.Set.choose_opt (Var.Set.filter Var.is_wild (Linexpr.vars e))
    in
    match wild with
    | None ->
      (* e = 0 negates to e <= -1 or e >= 1 *)
      [
        Constr.geq (Linexpr.add_const (Linexpr.neg e) Zint.minus_one);
        Constr.geq (Linexpr.add_const e Zint.minus_one);
      ]
    | Some w ->
      (* congruence g | rest: negation is the other residues, each again a
         congruence with a fresh wildcard *)
      let g = Zint.abs (Linexpr.coeff e w) in
      let rest = Linexpr.set_coeff e w Zint.zero in
      let rec residues r acc =
        if Zint.(r >= g) then acc
        else begin
          let sigma = Var.fresh_wild () in
          let expr =
            Linexpr.add_term (Linexpr.add_const rest (Zint.neg r)) g sigma
          in
          residues (Zint.succ r) (Constr.eq expr :: acc)
        end
      in
      residues Zint.one [])

(* Satisfiability of [ctx && not c]. *)
let sat_with_negation (ctx : Constr.t list) (c : Constr.t) =
  List.exists
    (fun nc -> Elim.satisfiable (Problem.of_list (nc :: ctx)))
    (negate_disjuncts c)

(* [implied_by_context ctx c]: is [c] implied by the conjunction [ctx]? *)
let implied_by_context ctx c = not (sat_with_negation ctx c)

(* Tautology test for [p => q] (section 3.3.1): every constraint of [q]
   must be implied by [p]. *)
let implies (p : Problem.t) (q : Problem.t) =
  match Problem.simplify p with
  | Problem.Contra -> true
  | Problem.Ok p ->
    let pcs = Problem.constraints p in
    List.for_all
      (fun c ->
        List.exists (fun c' -> Constr.implies c' c) pcs
        || implied_by_context pcs c)
      (Problem.constraints q)

(* Split an equality into its two component inequalities (the paper
   converts equalities in [p] to matched inequality pairs first, so the
   gist can retain just one side). *)
let split_equalities cs =
  List.concat_map
    (fun c ->
      match Constr.kind c with
      | Constr.Geq -> [ c ]
      | Constr.Eq ->
        let e = Constr.expr c in
        if Linexpr.exists_var Var.is_wild e then
          (* congruences are kept atomic *)
          [ c ]
        else
          [
            Constr.geq ~color:(Constr.color c) e;
            Constr.geq ~color:(Constr.color c) (Linexpr.neg e);
          ])
    cs

type result = Tautology | False | Gist of Problem.t

(* [gist p ~given:q], with the paper's two screening checks before the
   satisfiability test per constraint. *)
let gist (p : Problem.t) ~given:(q : Problem.t) : result =
  match Problem.simplify q with
  | Problem.Contra -> Tautology (* anything is implied by False *)
  | Problem.Ok q -> (
    match Problem.simplify p with
    | Problem.Contra -> False
    | Problem.Ok p ->
      if not (Elim.satisfiable (Problem.conj p q)) then False
      else begin
        let qcs = Problem.constraints q in
        let pcs = split_equalities (Problem.constraints p) in
        (* fast check: drop p-constraints implied by a single constraint of
           q (safe: q is always in the context) *)
        let pcs =
          List.filter
            (fun c -> not (List.exists (fun qc -> Constr.implies qc c) qcs))
            pcs
        in
        (* fast check: a constraint with no positively-correlated companion
           (among all other constraints) cannot be implied by them *)
        let must_keep c =
          let others = List.filter (fun c' -> c' != c) pcs @ qcs in
          not
            (List.exists
               (fun c' ->
                 Zint.sign (Linexpr.dot (Constr.expr c) (Constr.expr c')) > 0)
               others)
        in
        let rec loop kept todo =
          match todo with
          | [] -> List.rev kept
          | c :: rest ->
            if must_keep c then loop (c :: kept) rest
            else begin
              let ctx = List.rev_append kept (rest @ qcs) in
              if sat_with_negation ctx c then loop (c :: kept) rest
              else loop kept rest
            end
        in
        match loop [] pcs with
        | [] -> Tautology
        | cs -> (
          match Problem.simplify (Problem.of_list cs) with
          | Problem.Contra -> False
          | Problem.Ok g -> if Problem.is_trivial g then Tautology else Gist g)
      end)

(* ------------------------------------------------------------------ *)
(* Combined projection + gist (section 3.3.2)                          *)
(* ------------------------------------------------------------------ *)

(* [gist_project ~keep p ~given:q] computes
   [gist (project ~keep (p && q)) ~given:(project ~keep q)]
   with a single joint elimination: [p]'s constraints are tagged red,
   [q]'s black; derived constraints are red iff a red parent (or a red
   equality driving a substitution) contributed.  After projection, black
   constraints are consequences of [q] alone, so the gist of the red part
   given the black part has exactly the defining property against the
   projections.  Falls back to two separate (dark-shadow) projections
   when the joint projection splinters. *)
let gist_project ~keep (p : Problem.t) ~(given : Problem.t) : result =
  let tag color pb =
    List.map (Constr.with_color color) (Problem.constraints pb)
  in
  let joint =
    Problem.of_list (tag Constr.Red p @ tag Constr.Black given)
  in
  let splintered = ref false in
  match Elim.project ~splintered ~keep joint with
  | [ projected ] when not !splintered ->
    let red, black =
      List.partition Constr.is_red (Problem.constraints projected)
    in
    gist (Problem.of_list red) ~given:(Problem.of_list black)
  | [] -> False
  | _ -> (
    (* splintered: conservative fallback via dark shadows *)
    let pq = Problem.conj p given in
    match Elim.project_dark ~keep pq, Elim.project_dark ~keep given with
    | `Contra, _ -> False
    | `Ok ppq, `Contra -> Gist ppq
    | `Ok ppq, `Ok pq_given -> gist ppq ~given:pq_given)

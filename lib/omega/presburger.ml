(* A decision procedure for Presburger formulas (section 3.2).

   The paper combines projection (existential elimination), satisfiability
   and implication tests to decide the formulas dependence analysis needs.
   We implement the general recursive procedure: quantifier elimination by
   exact projection over a lazily enumerated DNF, with congruence atoms
   ([m] divides [e]) closing the language under negation of projected
   formulas.  This decides
   all of Presburger arithmetic (with the usual non-elementary worst case);
   the dependence analyses mostly go through the efficient special cases
   (dark-shadow implication, gists), falling back to this when needed. *)

(* DNF enumeration is charged against the ambient Budget limits: entering
   more [Or] alternatives per DNF enumeration than the disjunct limit
   allows (or projecting more pieces than it allows) raises
   [Budget.Exhausted Disjuncts], which the query boundary ([Budget.run])
   turns into a [Gave_up] verdict.
   Callers that use the procedure to *prove* facts (kill/cover/
   refinement tests) treat a give-up as "not proved".

   A DNF can be wide although a point of it is easy to find: a false
   [forall (p => exists q)] is shown by any point of [p] outside the
   projection of [q], yet the enumeration only meets such a point as a
   leaf of the negated projection's cross product.  So the outer
   enumeration of [satisfiable] (and [valid]) takes a one-shot hook:
   once it has entered [stall_point] = 64 [Or] alternatives without a
   satisfiable leaf it asks [witness ()] (for [valid], [refute ()]) once,
   and a [true] answer ends the enumeration as satisfiable (not valid).
   The hook must only answer [true] for a checked point.  The count is
   fixed, not a fraction of the disjunct limit: a query's path through
   the enumeration then depends on the limit only through where it
   stops, so a query decided under a limit is decided the same way under
   any larger one (the promise of [Budget.le], on which the memo's
   give-up fingerprints rely).  A limit below 64 gives up before the
   hook can run, exactly as without it.  64 lies above the most
   alternatives any decided query of the corpus enters. *)

type t =
  | True
  | False
  | Atom of Constr.t
  | Cong of Zint.t * Linexpr.t (* m | e, with m >= 2 *)
  | And of t list
  | Or of t list
  | Not of t
  | Exists of Var.t list * t
  | Forall of Var.t list * t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let atom c = Atom c
let ge e1 e2 = Atom (Constr.ge e1 e2)
let gt e1 e2 = Atom (Constr.gt e1 e2)
let le e1 e2 = Atom (Constr.le e1 e2)
let lt e1 e2 = Atom (Constr.lt e1 e2)
let eq e1 e2 = Atom (Constr.eq2 e1 e2)
let geq0 e = Atom (Constr.geq e)
let eq0 e = Atom (Constr.eq e)

let and_ fs =
  let fs =
    List.concat_map (function And gs -> gs | True -> [] | f -> [ f ]) fs
  in
  if List.mem False fs then False
  else match fs with [] -> True | [ f ] -> f | fs -> And fs

let or_ fs =
  let fs =
    List.concat_map (function Or gs -> gs | False -> [] | f -> [ f ]) fs
  in
  if List.mem True fs then True
  else match fs with [] -> False | [ f ] -> f | fs -> Or fs

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let exists vs f =
  match vs, f with
  | [], _ -> f
  | _, True -> True
  | _, False -> False
  | _ -> Exists (vs, f)

let forall vs f =
  match vs, f with
  | [], _ -> f
  | _, True -> True
  | _, False -> False
  | _ -> Forall (vs, f)

let implies_ f g = or_ [ not_ f; g ]

let cong m e =
  let m = Zint.abs m in
  if Zint.is_zero m then eq0 e
  else if Zint.is_one m then True
  else Cong (m, e)

(* ------------------------------------------------------------------ *)
(* Problem <-> formula                                                 *)
(* ------------------------------------------------------------------ *)

(* Inert congruence equalities come back from projection as equalities
   mentioning a wildcard; convert them to [Cong] atoms so the formula layer
   never sees wildcards. *)
let of_constr (c : Constr.t) : t =
  match Constr.kind c with
  | Constr.Geq -> Atom c
  | Constr.Eq -> (
    let e = Constr.expr c in
    match
      Var.Set.choose_opt (Var.Set.filter Var.is_wild (Linexpr.vars e))
    with
    | None -> Atom c
    | Some w ->
      let g = Zint.abs (Linexpr.coeff e w) in
      let rest = Linexpr.set_coeff e w Zint.zero in
      cong g rest)

let of_problem (p : Problem.t) : t =
  and_ (List.map of_constr (Problem.constraints p))

(* An atom as one constraint: a congruence mints its wildcard. *)
let constr_of_atom = function
  | Atom c -> c
  | Cong (m, e) ->
    let sigma = Var.fresh_wild () in
    Constr.eq (Linexpr.add_term e m sigma)
  | _ -> invalid_arg "Presburger.problem_of_conjuncts: not an atom"

let problem_of_conjuncts (atoms : t list) : Problem.t =
  Problem.of_list (List.map constr_of_atom atoms)

(* ------------------------------------------------------------------ *)
(* Negation of quantifier-free formulas                                *)
(* ------------------------------------------------------------------ *)

let rec neg_qf = function
  | True -> False
  | False -> True
  | Atom c -> (
    match Constr.kind c with
    | Constr.Geq -> Atom (Constr.negate_geq c)
    | Constr.Eq ->
      let e = Constr.expr c in
      or_
        [
          geq0 (Linexpr.add_const (Linexpr.neg e) Zint.minus_one);
          geq0 (Linexpr.add_const e Zint.minus_one);
        ])
  | Cong (m, e) ->
    (* not (m | e)  ==  m | e - r for some 1 <= r < m *)
    let rec residues r acc =
      if Zint.(r >= m) then acc
      else
        residues (Zint.succ r)
          (cong m (Linexpr.add_const e (Zint.neg r)) :: acc)
    in
    or_ (residues Zint.one [])
  | And fs -> or_ (List.map neg_qf fs)
  | Or fs -> and_ (List.map neg_qf fs)
  | Not f -> f
  | Exists _ | Forall _ ->
    invalid_arg "Presburger.neg_qf: quantified formula"

(* ------------------------------------------------------------------ *)
(* DNF of quantifier-free formulas                                     *)
(* ------------------------------------------------------------------ *)

(* Depth-first DNF enumeration.  One partial conjunction, kept as an
   already-simplified problem, is extended atom by atom along a work list:
   [And] splices its conjuncts in front, [Not] becomes [neg_qf], and each
   [Or] alternative is tried in order, so the leaves arrive in the order
   of the full cross product (the first conjunct's choice most
   significant).  A branch is dropped as soon as [Problem.simplify] finds
   it contradictory; every surviving leaf goes to [k], and the enumeration
   stops at the first leaf for which [k] answers [true].  Only the [Or]
   alternatives entered are charged against the disjunct limit, so a pure
   conjunction costs nothing and the work stays bounded by branches times
   formula size.  Congruence atoms materialize a fresh wildcard each time
   a branch adds them.  Entering the [stall_point]-th alternative first
   asks [witness] (see the header). *)
let stall_point = 64

let enumerate ?(witness = fun () -> false) (f : t) (k : Problem.t -> bool) :
    bool =
  let limit = Budget.disjunct_limit () in
  let branches = ref 0 in
  let rec go p = function
    | [] -> k p
    | f :: rest -> (
      match f with
      | True -> go p rest
      | False -> false
      | Atom _ | Cong _ -> (
        match Problem.simplify_and p (constr_of_atom f) with
        | Problem.Contra -> false
        | Problem.Ok p -> go p rest)
      | Not g -> go p (neg_qf g :: rest)
      | And fs -> go p (fs @ rest)
      | Or fs ->
        List.exists
          (fun g ->
            incr branches;
            if !branches > limit then raise (Budget.Exhausted Budget.Disjuncts);
            (!branches = stall_point && witness ()) || go p (g :: rest))
          fs
      | Exists _ | Forall _ -> invalid_arg "Presburger.dnf: quantified formula")
  in
  go Problem.trivial [ f ]

(* Every leaf as its list of atoms (wildcard equalities folding back into
   [Cong]); for callers that inspect the expansion. *)
let dnf (f : t) : t list list =
  let leaves = ref [] in
  ignore
    (enumerate f (fun p ->
         leaves := List.map of_constr (Problem.constraints p) :: !leaves;
         false));
  List.rev !leaves

(* ------------------------------------------------------------------ *)
(* Quantifier elimination and decision                                 *)
(* ------------------------------------------------------------------ *)

(* Eliminate the quantifiers of [f]; the result is quantifier-free over the
   free variables of [f] (plus [Cong] atoms). *)
let rec qe (f : t) : t =
  match f with
  | True | False | Atom _ | Cong _ -> f
  | And fs -> and_ (List.map qe fs)
  | Or fs -> or_ (List.map qe fs)
  | Not g -> neg_qf (qe g)
  | Exists (vs, g) ->
    let g = qe g in
    let keep v = not (List.exists (Var.equal v) vs) in
    (* project only integer-satisfiable leaves: pruning here prevents the
       negation of the projected result from exploding *)
    let limit = Budget.disjunct_limit () in
    let pieces = ref [] and count = ref 0 in
    ignore
      (enumerate g (fun p ->
           if Elim.satisfiable p then begin
             let ps = Elim.project ~keep p in
             count := !count + List.length ps;
             if !count > limit then raise (Budget.Exhausted Budget.Disjuncts);
             pieces := List.rev_append ps !pieces
           end;
           false));
    or_ (List.rev_map of_problem !pieces)
  | Forall (vs, g) -> neg_qf (qe (Exists (vs, neg_qf (qe g))))

let satisfiable ?witness (f : t) : bool =
  enumerate ?witness (qe f) Elim.satisfiable

let valid ?refute (f : t) : bool = not (satisfiable ?witness:refute (not_ f))

let implies f g = valid (implies_ f g)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "TRUE"
  | False -> Format.pp_print_string fmt "FALSE"
  | Atom c -> Constr.pp fmt c
  | Cong (m, e) -> Format.fprintf fmt "%a | (%a)" Zint.pp m Linexpr.pp e
  | And fs -> pp_list fmt "&&" fs
  | Or fs -> pp_list fmt "||" fs
  | Not f -> Format.fprintf fmt "!(%a)" pp f
  | Exists (vs, f) ->
    Format.fprintf fmt "(exists %s: %a)"
      (String.concat ", " (List.map Var.name vs))
      pp f
  | Forall (vs, f) ->
    Format.fprintf fmt "(forall %s: %a)"
      (String.concat ", " (List.map Var.name vs))
      pp f

and pp_list fmt op fs =
  Format.pp_print_string fmt "(";
  List.iteri
    (fun i f ->
      if i > 0 then Format.fprintf fmt " %s " op;
      pp fmt f)
    fs;
  Format.pp_print_string fmt ")"

let to_string f = Format.asprintf "%a" pp f

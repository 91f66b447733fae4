(* The four section-4 analyses: killing, covering, terminating, and
   refinement of dependence distances.  Each is phrased as the validity of
   a Presburger formula of the form  forall (p => exists q)  and decided
   by the portfolio ([Omega.Portfolio]): the paper's efficient route
   first (project the existential side with the dark shadow, check the
   implication with gists), and only when it passes does the complete
   Presburger decision procedure run.  Per-tier accounting (attempts /
   decides / time) lives in the tier rows of [Metrics]; the driver's
   structural section-4.5 screens count there too, as the [quick] row. *)

open Omega

(* The solver-result cache (verdicts here, per-level vectors in
   [Deps.level_vectors]) lives in [Memo], below [Deps]. *)
module Memo = Memo

(* The canonical alpha-renamed serialization lives in [Canon]: it is
   both the memo key (shareable across domains — renumbering by first
   occurrence erases the allocating domain's id slot) and, prefixed with
   the query label, the content-derived fault-injection key. *)
let memo_key ~hyp lhs ~evars rhs = Canon.key ~hyp lhs ~evars rhs

(* The two portfolio tiers for [p => exists vs. q]:

   fast     — one RHS disjunct's dark projection implied by the LHS
              disjunct (must hold for EVERY lhs disjunct); proves, or
              passes with [false];
   complete — the complete Presburger engine (always decides; a stalled
              enumeration asks [counterexample] for a checked point). *)

let fast_tier ~hyp lhs ~evars rhs () =
  let keep v = not (List.exists (Var.equal v) evars) in
  let rhs_dark =
    lazy
      (List.filter_map
         (fun r ->
           match Elim.project_dark ~keep (Problem.add_list hyp r) with
           | `Contra -> None
           | `Ok d -> Some d)
         rhs)
  in
  List.for_all
    (fun l ->
      let l = Problem.add_list hyp l in
      (not (Elim.satisfiable l))
      || List.exists (fun d -> Gist.implies l d) (Lazy.force rhs_dark))
    lhs

(* A checked counterexample to [hyp => (lhs => exists evars. rhs)]: a
   point of some [lhs] disjunct under [hyp] where no [rhs] disjunct has a
   solution.  Each disjunct is sampled at its low, then its high corner
   ([Omega.corner]).  The point's values for [evars] are not pinned in
   the [rhs], where those variables are bound; a free variable of the
   [rhs] the point leaves open stays existential there, so "no solution"
   holds whatever value it takes. *)
let counterexample ~hyp lhs ~evars rhs () =
  let pins point =
    List.map
      (fun (v, x) -> Constr.eq2 (Linexpr.var v) (Linexpr.const x))
      point
  in
  let refutes l side =
    Option.bind (Omega.corner side l) (fun point ->
        let free =
          List.filter
            (fun (v, _) -> not (List.exists (Var.equal v) evars))
            point
        in
        if
          Elim.satisfiable (Problem.add_list (pins point) l)
          && List.for_all
               (fun r ->
                 not (Elim.satisfiable (Problem.add_list (pins free) r)))
               rhs
        then Some point
        else None)
  in
  List.find_map
    (fun l -> List.find_map (refutes (Problem.add_list hyp l)) [ `Low; `High ])
    lhs

(* The complete decision, with [counterexample] as its refutation hook:
   a false query whose negated projection is too wide to enumerate is
   disproved once the enumeration stalls. *)
let complete_tier ~hyp lhs ~evars rhs () =
  let open Presburger in
  let f =
    implies_
      (and_ (List.map atom hyp))
      (implies_
         (or_ (List.map of_problem lhs))
         (exists evars (or_ (List.map of_problem rhs))))
  in
  let refute () = Option.is_some (counterexample ~hyp lhs ~evars rhs ()) in
  valid ~refute f

(* The three-valued query boundary, with tier attribution: any blown
   budget inside a tier surfaces as [Gave_up], never as an exception.
   The complete tier decides whatever the fast path passes on. *)
let implies_exists_decide ?(label = "query") ~hyp lhs ~evars rhs :
    Budget.verdict * Portfolio.tier option =
  (* The fault key is the label-tagged canonical form: computed lazily
     (only when injection is active or the memo needs it), and a pure
     function of the query's content, so a given query faults
     identically in serial and sharded runs. *)
  let canon = lazy (memo_key ~hyp lhs ~evars rhs) in
  let compute () =
    Portfolio.decide ~label
      ~fault_key:(fun () -> label ^ ":" ^ Lazy.force canon)
      ~fast:(fast_tier ~hyp lhs ~evars rhs)
      (complete_tier ~hyp lhs ~evars rhs)
  in
  if not (Memo.active ()) then compute ()
  else Memo.verdict (Lazy.force canon) compute

let implies_exists_verdict ?label ~hyp lhs ~evars rhs : Budget.verdict =
  fst (implies_exists_decide ?label ~hyp lhs ~evars rhs)

(* Every boolean caller uses a positive answer to eliminate or refine a
   dependence, so [Gave_up] maps to [false]: the dependence stays. *)
let proved = function
  | Budget.Proved -> true
  | Budget.Disproved | Budget.Gave_up _ -> false

let implies_exists ?label ~hyp lhs ~evars rhs : bool =
  proved (implies_exists_verdict ?label ~hyp lhs ~evars rhs)

(* The verdict of the query whose [hyp], [lhs], [evars] and [rhs]
   [build] makes.  They are built before the query runs (its memo key is
   their canonical form), so an overflow while building is the query's
   give-up: it runs and gives up at once, counted like an overflow met
   inside it, and nothing is proved. *)
let posed_verdict ~label build =
  match build () with
  | hyp, lhs, evars, rhs -> implies_exists_verdict ~label ~hyp lhs ~evars rhs
  | exception Zint.Overflow ->
    Budget.decide ~label (fun () -> raise Zint.Overflow)

(* ------------------------------------------------------------------ *)
(* Shared problem pieces                                               *)
(* ------------------------------------------------------------------ *)

(* The dependence problems (one per ordering level) from instance [a] to
   instance [b]. *)
let dep_problems ?(in_bounds = false) ctx a b : Problem.t list =
  let core =
    Depctx.domain ~in_bounds ctx a
    @ Depctx.domain ~in_bounds ctx b
    @ Depctx.subs_equal ctx a b
  in
  List.map
    (fun (_, order) -> Problem.of_list (core @ order))
    (Depctx.order_before ctx a b)

(* ------------------------------------------------------------------ *)
(* Covering (4.2) and terminating (4.3)                                *)
(* ------------------------------------------------------------------ *)

(* Does the write [src] cover [dst]?  (Every element [dst] accesses was
   written by an earlier instance of [src].) *)
let covers_verdict ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) : Budget.verdict =
  posed_verdict ~label:"cover" (fun () ->
      let a = Depctx.instantiate ctx src ~tag:"i" in
      let b = Depctx.instantiate ctx dst ~tag:"j" in
      ( Depctx.assumes ctx,
        [ Problem.of_list (Depctx.domain ~in_bounds ctx b) ],
        Depctx.inst_vars a,
        dep_problems ~in_bounds ctx a b ))

let covers ?in_bounds ctx ~src ~dst =
  proved (covers_verdict ?in_bounds ctx ~src ~dst)

(* Does the write [dst] terminate [src]?  (Every element [src] accesses is
   later overwritten by [dst].) *)
let terminates_verdict ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) : Budget.verdict =
  posed_verdict ~label:"terminate" (fun () ->
      let a = Depctx.instantiate ctx src ~tag:"i" in
      let b = Depctx.instantiate ctx dst ~tag:"j" in
      ( Depctx.assumes ctx,
        [ Problem.of_list (Depctx.domain ~in_bounds ctx a) ],
        Depctx.inst_vars b,
        dep_problems ~in_bounds ctx a b ))

let terminates ?in_bounds ctx ~src ~dst =
  proved (terminates_verdict ?in_bounds ctx ~src ~dst)

(* ------------------------------------------------------------------ *)
(* Killing (4.1)                                                       *)
(* ------------------------------------------------------------------ *)

(* Is the dependence from [src] to [dst] killed by the write [killer]?
   For every (i,k) instance pair of the dependence there must be a j with
   src(i) << killer(j) << dst(k) and killer(j) writing dst(k)'s element. *)
let kills_verdict ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(killer : Ir.access) ~(dst : Ir.access) : Budget.verdict =
  posed_verdict ~label:"kill" (fun () ->
      let a = Depctx.instantiate ctx src ~tag:"i" in
      let b = Depctx.instantiate ctx killer ~tag:"j" in
      let c = Depctx.instantiate ctx dst ~tag:"k" in
      let rhs =
        (* j in [B] and A(i) << B(j) << C(k) and B(j) =sub C(k); the two
           ordering disjunctions multiply out *)
        let dom_b = Depctx.domain ~in_bounds ctx b in
        let sub_bc = Depctx.subs_equal ctx b c in
        List.concat_map
          (fun (_, ab) ->
            List.map
              (fun (_, bc) -> Problem.of_list (dom_b @ sub_bc @ ab @ bc))
              (Depctx.order_before ctx b c))
          (Depctx.order_before ctx a b)
      in
      ( Depctx.assumes ctx,
        dep_problems ~in_bounds ctx a c,
        Depctx.inst_vars b,
        rhs ))

let kills ?in_bounds ctx ~src ~killer ~dst =
  proved (kills_verdict ?in_bounds ctx ~src ~killer ~dst)

(* ------------------------------------------------------------------ *)
(* Refinement (4.4)                                                    *)
(* ------------------------------------------------------------------ *)

(* A candidate refinement: for each common loop, an optional inclusive
   range of distances ([None] = unconstrained). *)
type candidate = (int option * int option) list

(* Constraints on a (j,k) instance pair expressing "distance within the
   candidate". *)
let candidate_constraints (j : Depctx.inst) (k : Depctx.inst)
    (cand : candidate) : Constr.t list =
  List.concat
    (List.mapi
       (fun l (lo, hi) ->
         let dist =
           Linexpr.sub
             (Linexpr.var k.Depctx.ivars.(l))
             (Linexpr.var j.Depctx.ivars.(l))
         in
         (match lo with
          | Some d -> [ Constr.ge dist (Linexpr.of_int d) ]
          | None -> [])
         @
         match hi with
         | Some d -> [ Constr.le dist (Linexpr.of_int d) ]
         | None -> [])
       cand)

(* Does candidate [cand] refine the dependence from write [src] to [dst]?
   Condition (simplified as in 4.4): every instance of [dst] receiving the
   dependence also receives it from an instance of [src] within the
   candidate distance. *)
let check_refinement ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) (cand : candidate) : bool =
  proved
    (posed_verdict ~label:"refinement" (fun () ->
         let i = Depctx.instantiate ctx src ~tag:"i" in
         let j = Depctx.instantiate ctx src ~tag:"j" in
         let k = Depctx.instantiate ctx dst ~tag:"k" in
         let rhs =
           let core =
             Depctx.domain ~in_bounds ctx j
             @ Depctx.domain ~in_bounds ctx k
             @ Depctx.subs_equal ctx j k
             @ candidate_constraints j k cand
           in
           List.map
             (fun (_, order) -> Problem.of_list (core @ order))
             (Depctx.order_before ctx j k)
         in
         ( Depctx.assumes ctx,
           dep_problems ~in_bounds ctx i k,
           Depctx.inst_vars j,
           rhs )))

(* Generate and verify refinements the paper's way: walk the common loops
   outermost-first, each time pinning the distance to its minimum possible
   value; stop at the first loop whose pinned candidate fails.  Each step
   reads the per-level vectors under the pins so far (one
   [Deps.level_vectors] family, one memo entry per step).  Every entry
   before loop [l] is exact under those pins, so entry [l] is exact or
   split by sign into groups that cover the whole level: the least [lo]
   over a level's vectors is the level's minimum distance.  A level with
   no vectors, an unbounded entry or a give-up is left out of the
   minimum.  Step 0 has no pins and reads the entry [Deps.compute]
   stored; the last step's vectors are the refined vectors, a level that
   gave up contributing its weakest ones. *)
let refine ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access) :
    int list * Dirvec.t list =
  let pair = Deps.make_pair ~in_bounds ctx src dst in
  let c = pair.Deps.common in
  let levels = Depctx.order_before ctx pair.Deps.a pair.Deps.b in
  let vectors_under pins =
    let fix =
      List.mapi
        (fun l d ->
          Constr.eq2 (Linexpr.var pair.Deps.dvars.(l)) (Linexpr.of_int d))
        pins
    in
    Deps.level_vectors ~label:"refine/vectors" ~fix pair levels
  in
  (* the least distance of loop [l] over one level's vectors *)
  let level_min l = function
    | Ok (_ :: _ as vecs) ->
      List.fold_left
        (fun m (v : Dirvec.t) ->
          match (m, (List.nth v l).Dirvec.lo) with
          | Some m, Some lo -> Some (min m lo)
          | _ -> None)
        (Some max_int) vecs
    | Ok [] | Error _ -> None
  in
  let vectors results =
    Deps.vectors_by_level pair levels results
    |> List.concat_map snd
    |> List.sort_uniq Dirvec.compare
  in
  let rec go pins l =
    let results = vectors_under pins in
    let stop () = (pins, vectors results) in
    if l >= c then stop ()
    else
      match List.filter_map (level_min l) results with
      | [] -> stop ()
      | m :: rest ->
        let pins' = pins @ [ List.fold_left min m rest ] in
        (* the candidate's forwardness is enforced by the ordering
           constraints inside check_refinement's right-hand side *)
        let cand =
          List.init c (fun l' ->
              match List.nth_opt pins' l' with
              | Some d -> (Some d, Some d)
              | None -> (None, None))
        in
        if check_refinement ~in_bounds ctx ~src ~dst cand then
          go pins' (l + 1)
        else stop ()
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let set_fault_injection ~seed ~rate = Budget.set_fault_injection ~seed ~rate
let clear_fault_injection () = Budget.clear_fault_injection ()

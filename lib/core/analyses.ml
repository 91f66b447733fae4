(* The four section-4 analyses: killing, covering, terminating, and
   refinement of dependence distances.  Each is phrased as the validity of
   a Presburger formula of the form  forall (p => exists q)  and decided
   by the portfolio ([Omega.Portfolio]): the paper's efficient route
   first (project the existential side with the dark shadow, check the
   implication with gists), and only when it passes does the complete
   Presburger decision procedure run.  Per-tier accounting (attempts /
   decides / time) lives in the tier rows of [Metrics].  The structural
   screens that settle a question before any query is posed - the
   driver's section-4.5 quick tests and the refinement screen below -
   count there too, through [quick_screen], as the [quick] row. *)

open Omega

(* The structural screens count as the [quick] tier row of [Metrics]:
   an attempt per consultation, a decide per short-circuit (a solver
   query avoided).  [quick_screen hit] records both and returns [hit] so
   call sites read as the screen predicate itself. *)
let quick_screen hit =
  let r = (Metrics.current ()).Metrics.quick in
  r.attempts <- r.attempts + 1;
  if hit then r.decides <- r.decides + 1;
  hit

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
      List.exists (fun d -> Gist.implies l d) (Lazy.force rhs_dark))
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
   The complete tier decides whatever the fast path passes on.  The
   fault key is the label-tagged canonical form: computed only when
   injection is active (which bypasses the memo), and a pure function
   of the query's content, so a given query faults identically in
   serial and sharded runs. *)
let decide ~label ~hyp lhs ~evars rhs () =
  Portfolio.decide ~label
    ~fault_key:(fun () -> label ^ ":" ^ memo_key ~hyp lhs ~evars rhs)
    ~fast:(fast_tier ~hyp lhs ~evars rhs)
    (complete_tier ~hyp lhs ~evars rhs)

(* Every boolean caller uses a positive answer to eliminate or refine a
   dependence, so [Gave_up] maps to [false]: the dependence stays. *)
let proved = function
  | Budget.Proved -> true
  | Budget.Disproved | Budget.Gave_up _ -> false

(* The verdict of the query whose [hyp], [lhs], [evars] and [rhs]
   [build] makes, named by [recipe] in [ctx]'s recipe table.  A warm
   query finds its memo key there and builds nothing unless the memo
   misses.  Otherwise the query is built before it runs (its memo key,
   recorded under the recipe, is its canonical form), so an overflow
   while building is the query's give-up: it runs and gives up at once,
   counted like an overflow met inside it, and nothing is proved. *)
let posed ~label ctx recipe build =
  let query = lazy (build ()) in
  let compute () =
    let hyp, lhs, evars, rhs = Lazy.force query in
    decide ~label ~hyp lhs ~evars rhs ()
  in
  let overflowed () = Budget.decide ~label (fun () -> raise Zint.Overflow) in
  if not (Memo.active ()) then
    match Lazy.force query with
    | hyp, lhs, evars, rhs -> fst (decide ~label ~hyp lhs ~evars rhs ())
    | exception Zint.Overflow -> overflowed ()
  else
    let key () =
      match Lazy.force query with
      | hyp, lhs, evars, rhs -> Some (memo_key ~hyp lhs ~evars rhs)
      | exception Zint.Overflow -> None
    in
    match Memo.keyed ctx.Depctx.recipes recipe key with
    | Some key -> fst (Memo.verdict key compute)
    | None -> overflowed ()

(* ------------------------------------------------------------------ *)
(* Shared problem pieces                                               *)
(* ------------------------------------------------------------------ *)

(* The ordering disjuncts of [a] << [b] at the carried [levels]: those a
   dependence from [a]'s access to [b]'s was found at (its
   [Deps.dep.levels]).  At any other level the dependence problem is
   empty, so a disjunct there is infeasible beside one that implies an
   instance of the dependence at that level, and leaving it out changes
   no verdict (section 4.5: the analysis does not ask again what it
   already knows). *)
let order_at (a : Depctx.inst) (b : Depctx.inst) levels =
  List.filter_map
    (fun l -> if List.mem l levels then Some (Depctx.ordering a b l) else None)
    (Depctx.levels a.Depctx.access b.Depctx.access)

(* The dependence problems from instance [a] to instance [b], one per
   carried level of [levels]. *)
let dep_problems ~in_bounds ctx a b levels : Problem.t list =
  let core =
    Depctx.domain ~in_bounds ctx a
    @ Depctx.domain ~in_bounds ctx b
    @ Depctx.subs_equal ctx a b
  in
  List.map (fun order -> Problem.of_list (core @ order)) (order_at a b levels)

(* ------------------------------------------------------------------ *)
(* Covering (4.2) and terminating (4.3)                                *)
(* ------------------------------------------------------------------ *)

(* Does the write [src] cover [dst]?  (Every element [dst] accesses was
   written by an earlier instance of [src].)  [levels]: those of the
   dependence [src] -> [dst]. *)
let covers ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access)
    ~levels =
  let recipe =
    Depctx.recipe ctx ~query:"cover" ~in_bounds ~levels:[ levels ]
      [ src; dst ]
  in
  proved @@ posed ~label:"cover" ctx recipe (fun () ->
      let a = Depctx.instantiate ctx src ~tag:Depctx.I in
      let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
      ( Depctx.assumes ctx,
        [ Problem.of_list (Depctx.domain ~in_bounds ctx b) ],
        Depctx.inst_vars a,
        dep_problems ~in_bounds ctx a b levels ))

(* Does the write [dst] terminate [src]?  (Every element [src] accesses is
   later overwritten by [dst].)  [levels]: those of the output
   dependence [src] -> [dst]. *)
let terminates ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) ~levels =
  let recipe =
    Depctx.recipe ctx ~query:"terminate" ~in_bounds ~levels:[ levels ]
      [ src; dst ]
  in
  proved @@ posed ~label:"terminate" ctx recipe (fun () ->
      let a = Depctx.instantiate ctx src ~tag:Depctx.I in
      let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
      ( Depctx.assumes ctx,
        [ Problem.of_list (Depctx.domain ~in_bounds ctx a) ],
        Depctx.inst_vars b,
        dep_problems ~in_bounds ctx a b levels ))

(* ------------------------------------------------------------------ *)
(* Killing (4.1)                                                       *)
(* ------------------------------------------------------------------ *)

(* Is the dependence from [src] to [dst] killed by the write [killer]?
   For every (i,k) instance pair of the dependence there must be a j with
   src(i) << killer(j) << dst(k) and killer(j) writing dst(k)'s element.
   [ac], [ab] and [bc] are the levels of the dependences [src] -> [dst],
   [src] -> [killer] and [killer] -> [dst]: beside an (i,k) instance
   pair, a j at a pair of ordering levels is an instance of the last two
   at those levels. *)
let kills ?(in_bounds = false) ctx ~(src : Ir.access) ~(killer : Ir.access)
    ~(dst : Ir.access) ~ac ~ab ~bc =
  let recipe =
    Depctx.recipe ctx ~query:"kill" ~in_bounds ~levels:[ ac; ab; bc ]
      [ src; killer; dst ]
  in
  proved @@ posed ~label:"kill" ctx recipe (fun () ->
      let a = Depctx.instantiate ctx src ~tag:Depctx.I in
      let b = Depctx.instantiate ctx killer ~tag:Depctx.J in
      let c = Depctx.instantiate ctx dst ~tag:Depctx.K in
      let rhs =
        (* j in [B] and A(i) << B(j) << C(k) and B(j) =sub C(k); the two
           ordering disjunctions multiply out *)
        let dom_b = Depctx.domain ~in_bounds ctx b in
        let sub_bc = Depctx.subs_equal ctx b c in
        List.concat_map
          (fun before_b ->
            List.map
              (fun after_b ->
                Problem.of_list (dom_b @ sub_bc @ before_b @ after_b))
              (order_at b c bc))
          (order_at a b ab)
      in
      ( Depctx.assumes ctx,
        dep_problems ~in_bounds ctx a c ac,
        Depctx.inst_vars b,
        rhs ))

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
   candidate distance.  [refinement_query] builds the query's [hyp],
   [lhs], [evars] and [rhs]; both sides are instances of the dependence,
   so both range over its [levels] only. *)
let refinement_query ~in_bounds ctx ~(src : Ir.access) ~(dst : Ir.access)
    ~levels (cand : candidate) () =
  let i = Depctx.instantiate ctx src ~tag:Depctx.I in
  let j = Depctx.instantiate ctx src ~tag:Depctx.J in
  let k = Depctx.instantiate ctx dst ~tag:Depctx.K in
  let rhs =
    let core =
      Depctx.domain ~in_bounds ctx j
      @ Depctx.domain ~in_bounds ctx k
      @ Depctx.subs_equal ctx j k
      @ candidate_constraints j k cand
    in
    List.map (fun order -> Problem.of_list (core @ order)) (order_at j k levels)
  in
  ( Depctx.assumes ctx,
    dep_problems ~in_bounds ctx i k levels,
    Depctx.inst_vars j,
    rhs )

let check_refinement ?(in_bounds = false) ctx ~src ~dst ~levels cand =
  let recipe =
    Depctx.recipe ctx ~query:"refinement" ~in_bounds ~levels:[ levels ]
      ~dists:cand [ src; dst ]
  in
  proved
    (posed ~label:"refinement" ctx recipe
       (refinement_query ~in_bounds ctx ~src ~dst ~levels cand))

(* The oracle's check of a screened step: the refinement query decided
   by the complete procedure alone, as [Portfolio.decide] replays a
   fast-tier proof.  An overflow while building it is a give-up. *)
let replay_refinement ~in_bounds ctx ~src ~dst ~levels cand () =
  Budget.decide ~label:"refinement" (fun () ->
      let hyp, lhs, evars, rhs =
        refinement_query ~in_bounds ctx ~src ~dst ~levels cand ()
      in
      complete_tier ~hyp lhs ~evars rhs ())

(* The refinement screen (4.4, in the spirit of the 4.5 quick tests):
   does every level's vector state the distances [pins] of the first
   loops exactly?  [results] are a pair's unpinned per-level vectors.
   When it does, every dependence instance (i, k) has the pinned
   distances, so j = i - with i's own opaque values - witnesses
   [check_refinement] and no solve is needed.  A level that gave up has
   only conservative, inexact vectors, so it never screens. *)
let refinement_screen results pins =
  let rec states (v : Dirvec.t) pins =
    match (v, pins) with
    | _, [] -> true
    | e :: v, p :: pins ->
      e.Dirvec.lo = Some p && e.Dirvec.hi = Some p && states v pins
    | [], _ :: _ -> false
  in
  List.for_all
    (function
      | Ok vecs -> List.for_all (fun v -> states v pins) vecs
      | Error _ -> false)
    results

(* Generate and verify refinements the paper's way: walk the common loops
   outermost-first, each time pinning the distance to its minimum possible
   value; stop at the first loop whose pinned candidate fails.  The least
   [lo] over a level's vectors is the level's minimum distance: every
   entry before loop [l] is exact under the pins so far, so entry [l] is
   exact or split by sign into groups that cover the whole level.  A
   level with no vectors, an unbounded entry or a give-up is left out of
   the minimum.

   Step 0 reads the unpinned vectors, the entry [Deps.compute] stored.
   While they state every pin exactly ([refinement_screen]) the step is
   settled without [check_refinement], and the next step reads the same
   vectors: the pins hold for every solution, so pinning them leaves
   each level's solutions, and so its vectors, unchanged.  Once a step
   is not screened no later one is (its pins extend that step's), so
   each later step checks its candidate and reads the per-level vectors
   under the pins so far (one [Deps.level_vectors] family, one memo
   entry per step).  The last step's vectors are the
   refined vectors, a level that gave up contributing its weakest ones.
   The candidates are checked over [levels], the dependence's.
   While the [Portfolio.Oracle] gate is on, each screened step is
   replayed ([Portfolio.Oracle.replay], under [refinement/screen])
   through the complete procedure alone, over the same levels: a
   disproof is a divergence, a give-up is reported. *)
let refine ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access)
    ~levels : int list * Dirvec.t list =
  let pair = Deps.make_pair ~in_bounds ctx src dst in
  let c = pair.Deps.common in
  let vectors_under pins =
    Deps.level_vectors ~label:"refine/vectors" ~pins pair
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
    Deps.vectors_by_level pair results
    |> List.concat_map snd
    |> List.sort_uniq Dirvec.compare
  in
  let unpinned = vectors_under [] in
  let rec go pins l results =
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
        if quick_screen (refinement_screen unpinned pins') then begin
          Portfolio.Oracle.replay "refinement/screen"
            (replay_refinement ~in_bounds ctx ~src ~dst ~levels cand);
          go pins' (l + 1) unpinned
        end
        else if check_refinement ~in_bounds ctx ~src ~dst ~levels cand then
          go pins' (l + 1) (vectors_under pins')
        else stop ()
  in
  go [] 0 unpinned

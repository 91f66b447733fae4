(* The four section-4 analyses: killing, covering, terminating, and
   refinement of dependence distances.  Each is phrased as the validity of
   a Presburger formula of the form  forall (p => exists q)  and decided
   by the tiered portfolio ([Omega.Portfolio]): the O(constraints)
   incomplete screen first, then the paper's efficient route (project the
   existential side with the dark shadow, check the implication with
   gists), and only when both pass does the complete Presburger decision
   procedure run.  Per-tier accounting (attempts / decides / time) lives
   in the tier rows of [Metrics]; the driver's structural section-4.5
   screens count there too, as the [quick] row. *)

open Omega

(* Ablation switch for the benches: when false, the portfolio plan omits
   the dark-shadow + gist fast path (tier 1), so queries the screen
   passes on go straight to the complete Presburger procedure. *)
let use_fast_path = ref true

(* The solver-result cache (verdicts here, vectors and minimums in
   [Deps] and [refine]) lives in [Memo], below [Deps]. *)
module Memo = Memo

(* The canonical alpha-renamed serialization lives in [Canon]: it is
   both the memo key (shareable across domains — renumbering by first
   occurrence erases the allocating domain's id slot) and, prefixed with
   the query label, the content-derived fault-injection key. *)
let memo_key ~hyp lhs ~evars rhs = Canon.key ~hyp lhs ~evars rhs

(* The three portfolio tiers for [p => exists vs. q], each a sound
   attempt that may pass with [Unknown]:

   tier 0 — the incomplete O(constraints) screen;
   tier 1 — one RHS disjunct's dark projection implied by the LHS
            disjunct (must hold for EVERY lhs disjunct; proves only);
   tier 2 — the complete Presburger engine (always decides). *)

let screen_tier ~hyp lhs ~evars rhs () = Screen.implies_exists ~hyp lhs ~evars rhs

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
  let ok =
    List.for_all
      (fun l ->
        let l = Problem.add_list hyp l in
        (not (Elim.satisfiable l))
        || List.exists (fun d -> Gist.implies l d) (Lazy.force rhs_dark))
      lhs
  in
  if ok then Screen.Proved else Screen.Unknown

let complete_tier ~hyp lhs ~evars rhs () =
  let open Presburger in
  let f =
    implies_
      (and_ (List.map atom hyp))
      (implies_
         (or_ (List.map of_problem lhs))
         (exists evars (or_ (List.map of_problem rhs))))
  in
  if valid f then Screen.Proved else Screen.Disproved

(* The three-valued query boundary, with tier attribution: any blown
   budget inside a tier surfaces as [Gave_up], never as an exception,
   and an exhausted plan (the screen-only backend passing on a query)
   gives up with [Incomplete]. *)
let implies_exists_decide ?(label = "query") ~hyp lhs ~evars rhs :
    Budget.verdict * Portfolio.tier option =
  (* The fault key is the label-tagged canonical form: computed lazily
     (only when injection is active or the memo needs it), and a pure
     function of the query's content, so a given query faults
     identically in serial and sharded runs. *)
  let canon = lazy (memo_key ~hyp lhs ~evars rhs) in
  let compute () =
    let tiers =
      Portfolio.plan
        ~screen:(screen_tier ~hyp lhs ~evars rhs)
        ?fast:
          (if !use_fast_path then Some (fast_tier ~hyp lhs ~evars rhs)
           else None)
        ~complete:(complete_tier ~hyp lhs ~evars rhs)
        ()
    in
    Portfolio.decide ~label
      ~fault_key:(fun () -> label ^ ":" ^ Lazy.force canon)
      tiers
  in
  if not (Memo.active ()) then compute ()
  else begin
    let key = Lazy.force canon in
    match Memo.find key with
    | Some (verdict, tier) -> (verdict, tier)
    | None ->
      (* Two threads racing on a fresh key both compute and both add;
         the solver is deterministic, so the duplicated work is the only
         cost and the second [add] just replaces an equal entry. *)
      let ((verdict, tier) as result) = compute () in
      Memo.add key verdict tier;
      result
  end

let implies_exists_verdict ?label ~hyp lhs ~evars rhs : Budget.verdict =
  fst (implies_exists_decide ?label ~hyp lhs ~evars rhs)

(* Every boolean caller uses a positive answer to eliminate or refine a
   dependence, so [Gave_up] maps to [false]: the dependence stays. *)
let implies_exists ?label ~hyp lhs ~evars rhs : bool =
  match implies_exists_verdict ?label ~hyp lhs ~evars rhs with
  | Budget.Proved -> true
  | Budget.Disproved | Budget.Gave_up _ -> false

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

let proved = function
  | Budget.Proved -> true
  | Budget.Disproved | Budget.Gave_up _ -> false

(* Does the write [src] cover [dst]?  (Every element [dst] accesses was
   written by an earlier instance of [src].) *)
let covers_verdict ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) : Budget.verdict =
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx dst ~tag:"j" in
  let hyp = Depctx.assumes ctx in
  let lhs = [ Problem.of_list (Depctx.domain ~in_bounds ctx b) ] in
  let rhs = dep_problems ~in_bounds ctx a b in
  implies_exists_verdict ~label:"cover" ~hyp lhs ~evars:(Depctx.inst_vars a)
    rhs

let covers ?in_bounds ctx ~src ~dst =
  proved (covers_verdict ?in_bounds ctx ~src ~dst)

(* Does the write [dst] terminate [src]?  (Every element [src] accesses is
   later overwritten by [dst].) *)
let terminates_verdict ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) : Budget.verdict =
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx dst ~tag:"j" in
  let hyp = Depctx.assumes ctx in
  let lhs = [ Problem.of_list (Depctx.domain ~in_bounds ctx a) ] in
  let rhs = dep_problems ~in_bounds ctx a b in
  implies_exists_verdict ~label:"terminate" ~hyp lhs
    ~evars:(Depctx.inst_vars b) rhs

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
  let a = Depctx.instantiate ctx src ~tag:"i" in
  let b = Depctx.instantiate ctx killer ~tag:"j" in
  let c = Depctx.instantiate ctx dst ~tag:"k" in
  let hyp = Depctx.assumes ctx in
  let lhs = dep_problems ~in_bounds ctx a c in
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
  implies_exists_verdict ~label:"kill" ~hyp lhs ~evars:(Depctx.inst_vars b)
    rhs

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
  let i = Depctx.instantiate ctx src ~tag:"i" in
  let j = Depctx.instantiate ctx src ~tag:"j" in
  let k = Depctx.instantiate ctx dst ~tag:"k" in
  let hyp = Depctx.assumes ctx in
  let lhs = dep_problems ~in_bounds ctx i k in
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
  implies_exists ~label:"refinement" ~hyp lhs ~evars:(Depctx.inst_vars j) rhs

(* Generate and verify refinements the paper's way: walk the common loops
   outermost-first, each time pinning the distance to its minimum possible
   value; stop at the first loop whose pinned candidate fails.  Returns
   the number of pinned levels and their distances. *)
let refine ?(in_bounds = false) ctx ~(src : Ir.access) ~(dst : Ir.access) :
    int list =
  let pair = Deps.make_pair ~in_bounds ctx src dst in
  let c = pair.Deps.common in
  let levels = Depctx.order_before ctx pair.Deps.a pair.Deps.b in
  (* minimum possible distance in loop [l], given the already-fixed
     distances [fixed] (outermost-first) *)
  let min_distance fixed l =
    let fix =
      List.mapi
        (fun l' d ->
          Constr.eq2 (Linexpr.var pair.Deps.dvars.(l')) (Linexpr.of_int d))
        fixed
    in
    let d = pair.Deps.dvars.(l) in
    let mins =
      Memo.per_level
        ~key:(fun () ->
          Deps.levels_key ~tag:"min" ~fix pair levels ~evars:[ d ])
        ~wrap:(fun ms -> Memo.Minima ms)
        ~unwrap:(function Memo.Minima ms -> Some ms | Memo.Vectors _ -> None)
        (fun (_, order) ->
          let p = Problem.add_list (fix @ order) pair.Deps.base in
          Budget.run ~label:"refine/minimize"
            ~fault_key:(fun () -> Canon.of_problems ~tag:"min" [ p ])
            (fun () ->
              match Omega.minimize p d with
              | `Min m -> Zint.to_int_opt m
              | `Unbounded | `Unsat -> None))
        levels
      (* give-up: cannot bound the distance, stop refining *)
      |> List.filter_map (function Ok m -> m | Error _ -> None)
    in
    match mins with [] -> None | m :: rest -> Some (List.fold_left min m rest)
  in
  let rec go fixed l =
    if l >= c then List.rev fixed
    else begin
      match min_distance (List.rev fixed) l with
      | None -> List.rev fixed
      | Some d ->
        (* the candidate's forwardness is enforced by the ordering
           constraints inside check_refinement's right-hand side *)
        let prefix = List.rev (d :: fixed) in
        let cand =
          List.init c (fun l' ->
              if l' < List.length prefix then
                let dd = List.nth prefix l' in
                (Some dd, Some dd)
              else (None, None))
        in
        if check_refinement ~in_bounds ctx ~src ~dst cand then
          go (d :: fixed) (l + 1)
        else List.rev fixed
    end
  in
  go [] 0

(* The refined direction vectors: distances pinned by [refine] plus the
   sign analysis of the remaining levels. *)
let refined_vectors ?(in_bounds = false) ctx ~(src : Ir.access)
    ~(dst : Ir.access) (pinned : int list) : Dirvec.t list =
  let pair = Deps.make_pair ~in_bounds ctx src dst in
  let fix =
    List.mapi
      (fun l d ->
        Constr.eq2 (Linexpr.var pair.Deps.dvars.(l)) (Linexpr.of_int d))
      pinned
  in
  let levels = Depctx.order_before ctx pair.Deps.a pair.Deps.b in
  List.map2
    (fun (lvl, _) r ->
      match r with
      | Ok vecs -> vecs
      (* give-up: the weakest vectors of the level, never an
         under-approximation of the refined dependence *)
      | Error _ ->
        Dirvec.conservative_of_level (Array.length pair.Deps.dvars)
          ~carried:lvl)
    levels
    (Deps.level_vectors ~label:"refine/vectors" ~tag:"rvec" ~fix pair levels)
  |> List.concat
  |> List.sort_uniq Dirvec.compare

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let set_fault_injection ~seed ~rate = Budget.set_fault_injection ~seed ~rate
let clear_fault_injection () = Budget.clear_fault_injection ()

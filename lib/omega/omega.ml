(* Public API of the Omega test library.

   The Omega test [Pug91] is an exact integer programming algorithm based
   on Fourier-Motzkin variable elimination; this library adds the PLDI'92
   extensions: exact projection with splintering, gists, implication
   testing, and a Presburger formula layer. *)

module Var = Var
module Linexpr = Linexpr
module Constr = Constr
module Problem = Problem
module Metrics = Metrics
module Budget = Budget
module Tuning = Tuning
module Elim = Elim
module Gist = Gist
module Presburger = Presburger
module Portfolio = Portfolio

(* Does the conjunction have an integer solution? *)
let satisfiable = Elim.satisfiable

(* Exact projection onto the variables satisfying [keep]: the union of the
   returned problems (reading their wildcards existentially) has exactly
   the same integer solutions for the kept variables as the input. *)
let project = Elim.project

(* Approximate projections: the dark shadow under-approximates, the real
   shadow over-approximates (section 3 of the paper). *)
let project_dark = Elim.project_dark
let project_real = Elim.project_real

(* Is [p => q] a tautology? *)
let implies = Gist.implies

(* [gist p ~given:q]: minimal subset of [p]'s constraints carrying the
   information not already in [q]. *)
let gist = Gist.gist

let simplify = Problem.simplify

(* Per-piece summary of a problem projected onto a single variable [v]:
   strongest lower/upper bounds plus congruence constraints. *)
type piece = {
  lo : Zint.t option;
  hi : Zint.t option;
  sat_at : Zint.t -> bool;
  cong_lcm : Zint.t;
}

let analyze_piece v (q : Problem.t) : piece =
  let lo = ref None and hi = ref None in
  let congs = ref [] in
  List.iter
    (fun c ->
      let e = Constr.expr c in
      let cv = Linexpr.coeff e v in
      match Constr.kind c with
      | Constr.Eq ->
        if Linexpr.exists_var Var.is_wild e then
          congs := e :: !congs
        else if not (Zint.is_zero cv) then begin
          (* cv * v + const = 0; after normalization cv is +-1 *)
          let x = Zint.divexact (Zint.neg (Linexpr.constant e)) cv in
          lo := Some (match !lo with None -> x | Some l -> Zint.max l x);
          hi := Some (match !hi with None -> x | Some h -> Zint.min h x)
        end
      | Constr.Geq ->
        if Zint.sign cv > 0 then begin
          let b = Zint.cdiv (Zint.neg (Linexpr.constant e)) cv in
          lo := Some (match !lo with None -> b | Some l -> Zint.max l b)
        end
        else if Zint.sign cv < 0 then begin
          let b = Zint.fdiv (Linexpr.constant e) (Zint.neg cv) in
          hi := Some (match !hi with None -> b | Some h -> Zint.min h b)
        end)
    (Problem.constraints q);
  let wild_gcd e =
    Linexpr.fold_terms
      (fun w c acc -> if Var.is_wild w then Zint.gcd acc c else acc)
      e Zint.zero
  in
  (* [e] at [v = x], its wildcard terms left out, divisible by their gcd *)
  let sat_at x =
    List.for_all
      (fun e ->
        let residual =
          Zint.add (Linexpr.constant e) (Zint.mul (Linexpr.coeff e v) x)
        in
        Zint.divisible residual (wild_gcd e))
      !congs
  in
  let cong_lcm =
    List.fold_left (fun acc e -> Zint.lcm acc (wild_gcd e)) Zint.one !congs
  in
  { lo = !lo; hi = !hi; sat_at; cong_lcm }

(* Smallest and largest value of [v] subject to [p], both read from one
   exact projection onto [v].  Each piece of the projection holds only
   bounds on [v] and inert congruences, whose solutions repeat with period
   [cong_lcm]: scanning that many values up from the lower bound (down
   from the upper one) finds the piece's minimum (maximum) or proves the
   piece empty.  [`Range (lo, hi)] is over the nonempty pieces, [None]
   meaning unbounded on that side; [`Unsat] means no piece has a
   solution. *)
let bounds (p : Problem.t) (v : Var.t) :
    [ `Unsat | `Range of Zint.t option * Zint.t option ] =
  let keep u = Var.equal u v in
  let scan pc start step ~past =
    let rec go x n =
      if Zint.(n > pc.cong_lcm) || past x then None
      else if pc.sat_at x then Some x
      else go (step x) (Zint.succ n)
    in
    go start Zint.one
  in
  let above b x = match b with Some b -> Zint.(x > b) | None -> false in
  let below b x = match b with Some b -> Zint.(x < b) | None -> false in
  (* one piece: [None] when empty, else its (min, max), [None] sides
     unbounded *)
  let piece_range pc =
    let up l = scan pc l Zint.succ ~past:(above pc.hi) in
    let down h = scan pc h Zint.pred ~past:(below pc.lo) in
    match pc.lo, pc.hi with
    | Some l, _ -> (
      match up l with
      | None -> None
      | Some m -> Some (Some m, Option.bind pc.hi down))
    | None, Some h -> Option.map (fun m -> (None, Some m)) (down h)
    | None, None -> Option.map (fun _ -> (None, None)) (up Zint.zero)
  in
  let pieces = List.map (analyze_piece v) (Elim.project ~keep p) in
  match List.filter_map piece_range pieces with
  | [] -> `Unsat
  | (lo, hi) :: rest ->
    let join better a b =
      match a, b with Some a, Some b -> Some (better a b) | _ -> None
    in
    `Range
      (List.fold_left
         (fun (lo, hi) (l, h) -> (join Zint.min lo l, join Zint.max hi h))
         (lo, hi) rest)

(* One integer point of [p] over its non-wildcard variables, found
   through [bounds]: each variable in turn (by [Var.compare]) is fixed at
   its least value subject to [p] and the earlier fixes ([`Low]), or at
   its greatest ([`High]).  A variable unbounded on that side takes its
   other end; one unbounded on both gives no point.  [bounds] is exact,
   so every fix keeps the problem satisfiable and a completed corner is
   a point of [p], its wildcards read existentially. *)
let corner (side : [ `Low | `High ]) (p : Problem.t) :
    (Var.t * Zint.t) list option =
  let pick lo hi =
    match side, lo, hi with
    | `Low, Some x, _ | `Low, None, Some x -> Some x
    | `High, _, Some x | `High, Some x, None -> Some x
    | _, None, None -> None
  in
  let rec fix p acc = function
    | [] -> Some (List.rev acc)
    | v :: rest -> (
      match bounds p v with
      | `Unsat -> None
      | `Range (lo, hi) -> (
        match pick lo hi with
        | None -> None
        | Some x ->
          let pin = Constr.eq2 (Linexpr.var v) (Linexpr.const x) in
          fix (Problem.add pin p) ((v, x) :: acc) rest))
  in
  fix p []
    (Var.Set.elements
       (Var.Set.filter (fun v -> not (Var.is_wild v)) (Problem.vars p)))

let minimize (p : Problem.t) (v : Var.t) :
    [ `Unsat | `Unbounded | `Min of Zint.t ] =
  match bounds p v with
  | `Unsat -> `Unsat
  | `Range (Some m, _) -> `Min m
  | `Range (None, _) -> `Unbounded

let maximize (p : Problem.t) (v : Var.t) :
    [ `Unsat | `Unbounded | `Max of Zint.t ] =
  match bounds p v with
  | `Unsat -> `Unsat
  | `Range (_, Some m) -> `Max m
  | `Range (_, None) -> `Unbounded

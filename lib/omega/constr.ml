(* Individual constraints: [expr = 0] or [expr >= 0].

   The [color] field supports the paper's red/black scheme (section 3.3.2):
   when computing [gist p given q] combined with projection, constraints
   from [p] are tagged [Red] and constraints from [q] are tagged [Black];
   derived constraints are red iff any parent is red.

   [norm] remembers that [normalize] already returned this very
   constraint unchanged, so the simplifier's repeated passes stop
   recomputing gcds over untouched constraints (normalization is
   idempotent, so the flag is only ever a cache). *)

type kind = Eq | Geq
type color = Black | Red

type t = { kind : kind; expr : Linexpr.t; color : color; mutable norm : bool }

let make ?(color = Black) kind expr = { kind; expr; color; norm = false }
let eq ?color e = make ?color Eq e
let geq ?color e = make ?color Geq e

(* e1 >= e2 *)
let ge ?color e1 e2 = geq ?color (Linexpr.sub e1 e2)
let le ?color e1 e2 = geq ?color (Linexpr.sub e2 e1)
let gt ?color e1 e2 = geq ?color (Linexpr.add_const (Linexpr.sub e1 e2) Zint.minus_one)
let lt ?color e1 e2 = gt ?color e2 e1
let eq2 ?color e1 e2 = eq ?color (Linexpr.sub e1 e2)

let kind t = t.kind
let expr t = t.expr
let color t = t.color
let is_red t = t.color = Red
let with_color color t = { t with color }

let combine_colors a b = if a = Red || b = Red then Red else Black

(* Negation of a [Geq]: not (e >= 0) is (-e - 1 >= 0).  Equalities have no
   single-constraint negation (it is a disjunction); the Presburger layer
   handles them.  Negation preserves the coefficient gcd and (at gcd 1)
   the tightened constant, so normalization status carries over. *)
let negate_geq t =
  assert (t.kind = Geq);
  { t with expr = Linexpr.add_const (Linexpr.neg t.expr) Zint.minus_one }

type norm_result = Tauto | Contra | Ok of t

(* Normalize: divide by the gcd of the coefficients; for inequalities the
   constant is tightened with floor division (an integer-only step); for
   equalities a non-divisible constant is a contradiction. *)
let normalize t =
  if t.norm then Ok t
  else begin
    let e = t.expr in
    if Linexpr.is_const e then begin
      let c = Linexpr.constant e in
      match t.kind with
      | Eq -> if Zint.is_zero c then Tauto else Contra
      | Geq -> if Zint.sign c >= 0 then Tauto else Contra
    end
    else begin
      let g = Linexpr.content e in
      let reduced =
        if Zint.is_one g then Some t
        else
          let c = Linexpr.constant e in
          match t.kind with
          | Eq ->
            if Zint.divisible c g then
              Some { t with expr = Linexpr.divexact e g }
            else None
          | Geq ->
            let e' =
              Linexpr.map_coeffs (fun x -> Zint.fdiv x g) e
              (* map_coeffs applies to the constant too: floor is exactly
                 the integer tightening we want for the constant, and is
                 exact for the coefficients *)
            in
            Some { t with expr = e' }
      in
      match reduced with
      | None -> Contra
      | Some t' ->
        (* Interning every normalized expression was measured to cost
           more than the sharing bought back; the hash-consing that pays
           here is the cached canonical key plus this flag, which makes
           the simplifier's repeated passes O(1) on untouched
           constraints. *)
        t'.norm <- true;
        Ok t'
    end
  end

let subst t v def =
  { t with expr = Linexpr.subst t.expr v def; norm = false }

let vars t = Linexpr.vars t.expr
let mentions t v = Linexpr.mem t.expr v

let eval env t =
  let v = Linexpr.eval env t.expr in
  match t.kind with Eq -> Zint.is_zero v | Geq -> Zint.sign v >= 0

(* [implies a b]: does constraint [a] alone imply [b]?  Only detects the
   parallel case (identical linear parts): [e + c1 >= 0] implies
   [e + c2 >= 0] iff [c2 >= c1]; an equality implies anything its two
   component inequalities imply. *)
let implies a b =
  let ca = Linexpr.constant a.expr and cb = Linexpr.constant b.expr in
  let same = Linexpr.compare_terms a.expr b.expr = 0 in
  let opposite =
    Linexpr.compare_terms (Linexpr.neg a.expr) b.expr = 0
  in
  match a.kind, b.kind with
  | Eq, Eq -> same && Zint.equal ca cb
  | Eq, Geq ->
    (same && Zint.(cb >= ca)) || (opposite && Zint.(cb >= Zint.neg ca))
  | Geq, Geq -> same && Zint.(cb >= ca)
  | Geq, Eq -> false

let compare a b =
  if a == b then 0
  else
    let c = compare a.kind b.kind in
    if c <> 0 then c else Linexpr.compare a.expr b.expr

let equal a b = compare a b = 0

let pp fmt t =
  match t.kind with
  | Eq -> Format.fprintf fmt "%a = 0" Linexpr.pp t.expr
  | Geq -> Format.fprintf fmt "%a >= 0" Linexpr.pp t.expr


(* A problem is a conjunction of constraints, the basic object the Omega
   test manipulates.

   Semantics: a problem denotes the set of assignments to its non-wildcard
   variables for which there exist integer values of the wildcard variables
   satisfying every constraint.  After simplification and elimination,
   wildcards appear only in "inert congruence" position: a wildcard [s]
   occurring in exactly one equality [e + g*s = 0], which denotes the
   congruence [e = 0 (mod g)].

   A problem is a plain list of constraints.  [simplify], which the
   elimination loop calls on every intermediate problem, files them in an
   array of per-direction buckets kept in canonical key order and conses
   the survivors back into a list; it allocates the array, one record per
   direction and the output, and nothing per probe or comparison. *)

(* [simp] remembers that [simplify] already returned this very problem
   (simplification is idempotent, so the flag is only ever a cache).
   [grown] marks a problem that just came out of a multiplicative
   Fourier-Motzkin step (>= 2 lower and >= 2 upper bounds crossed): the
   interval screen in [simplify] runs only on those, because that cross
   product is the one place the constraint set actually grows
   quadratically — screening every construction costs more than the
   pruning saves. *)
type t = { cs : Constr.t list; mutable simp : bool; mutable grown : bool }

type simplified = Contra | Ok of t

let mk cs = { cs; simp = false; grown = false }
let mark_grown t = t.grown <- true
let trivial = mk []
let of_list cs = mk cs
let constraints t = t.cs
let is_trivial t = t.cs = []

let add c t = mk (c :: t.cs)
let add_list cs t = mk (cs @ t.cs)
let conj a b = mk (a.cs @ b.cs)

let vars t =
  List.fold_left (fun acc c -> Var.Set.union acc (Constr.vars c)) Var.Set.empty t.cs

let map_constraints f t = mk (List.map f t.cs)
let filter f t = mk (List.filter f t.cs)

(* A sentinel, compared physically and never in a problem: the absent
   constraint of [subst_colored] and the empty bucket slot of
   [simplify]. *)
let none = Constr.geq Linexpr.zero

(* Substitution driven by an equality of the given color: constraints that
   actually mention the variable absorb that color (supports the red/black
   combined projection + gist of section 3.3.2).  [drop] is left out. *)
let rec subst_list drop v def color = function
  | [] -> []
  | c :: rest when c == drop -> subst_list drop v def color rest
  | c :: rest ->
    let c = if Constr.mentions c v then Constr.subst color c v def else c in
    c :: subst_list drop v def color rest

let subst_colored v def color t = mk (subst_list none v def color t.cs)

let subst v def t = mk (subst_list none v def Constr.Black t.cs)

let subst_out c v def t = mk (subst_list c v def (Constr.color c) t.cs)

let eval env t = List.for_all (Constr.eval env) t.cs

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

(* Merge the constraints sharing a linear direction [dir] (their
   [Linexpr.canon] key): after canonicalization every constraint is
   [dir + c >= 0] (a lower bound on [dir]), [-dir + c >= 0] (an upper
   bound) or [dir + c = 0].  We keep the tightest bounds, detect
   contradictions, and promote touching opposite inequalities to
   equalities.

   A bucket's three slots each hold a constraint and its constant, the
   constant of an equality taken in the unflipped direction; [none] marks
   an empty slot, so filling or tightening one allocates nothing. *)
type bucket = {
  key : Linexpr.key;
  mutable lo : Constr.t;  (* dir + lo_k >= 0, smallest lo_k *)
  mutable lo_k : Zint.t;
  mutable hi : Constr.t;  (* -dir + hi_k >= 0, smallest hi_k *)
  mutable hi_k : Zint.t;
  mutable eq : Constr.t;  (* dir + eq_k = 0 *)
  mutable eq_k : Zint.t;
  mutable contra : bool;
}

(* One call's buckets: the first [n] of [bs], in ascending key order.
   At the handful of directions a problem carries, a linear probe by the
   key's hash (an int compare; the full key comparison runs only on a hash
   match) beats a hash table or a balanced map, and inserting each new
   bucket at its place keeps the emission order canonical: downstream
   substitution choices and red/black gist shapes depend on constraint
   order, so the output order must not depend on the input order. *)
type state = { bs : bucket array; mutable n : int; mutable red : bool }

exception Bail

let rec find_bucket bs key h i =
  if i < 0 then -1
  else
    let k = bs.(i).key in
    if Linexpr.key_hash k = h && Linexpr.compare_key k key = 0 then i
    else find_bucket bs key h (i - 1)

let bucket st key =
  let i = find_bucket st.bs key (Linexpr.key_hash key) (st.n - 1) in
  if i >= 0 then st.bs.(i)
  else begin
    let b =
      {
        key;
        lo = none;
        lo_k = Zint.zero;
        hi = none;
        hi_k = Zint.zero;
        eq = none;
        eq_k = Zint.zero;
        contra = false;
      }
    in
    let j = ref st.n in
    while !j > 0 && Linexpr.compare_key st.bs.(!j - 1).key key > 0 do
      st.bs.(!j) <- st.bs.(!j - 1);
      decr j
    done;
    st.bs.(!j) <- b;
    st.n <- st.n + 1;
    b
  end

(* File a normalized constraint in its direction's bucket. *)
let place st c =
  if Constr.is_red c then st.red <- true;
  let e = Constr.expr c in
  let key = Linexpr.canon e in
  let b = bucket st key in
  let cst = Linexpr.constant e in
  match Constr.kind c with
  | Constr.Eq ->
    let cst = if Linexpr.key_flipped key then Zint.neg cst else cst in
    if b.eq == none then begin
      b.eq <- c;
      b.eq_k <- cst
    end
    else if not (Zint.equal b.eq_k cst) then b.contra <- true
  | Constr.Geq ->
    if not (Linexpr.key_flipped key) then begin
      if b.lo == none || Zint.(cst < b.lo_k) then begin
        b.lo <- c;
        b.lo_k <- cst
      end
    end
    else if b.hi == none || Zint.(cst < b.hi_k) then begin
      b.hi <- c;
      b.hi_k <- cst
    end

let consider st c =
  if Constr.normalized c then place st c
  else
    match Constr.normalize c with
    | Constr.Tauto -> ()
    | Constr.Contra -> raise Bail
    | Constr.Ok c -> place st c

let rec consider_all st = function
  | [] -> ()
  | c :: rest ->
    consider st c;
    consider_all st rest

(* Drop multi-term inequalities already implied by the interval box of
   the single-variable bounds (an equivalence-preserving screen: the box
   constraints stay in the output, and box /\ rest => dropped).  The
   bucket invariants make this cheap: after normalization every
   single-variable constraint has coefficient one, so each variable's
   box is read straight off its own bucket, and a candidate [dir + c >= 0]
   is redundant when the minimum of [dir] over the box is at least [-c].
   Skipped when any constraint is red: dropping an implied constraint is
   sound there too, but it would perturb which red constraints the
   red/black gists report, and the screen's value is in the black-only
   kill/cover hot path anyway.

   [box_of] reads each variable's box off its own bucket (key [v] with
   coefficient one), in ascending key order; other buckets get
   [no_bound]. *)
type bound = {
  mutable has_lo : bool;
  mutable lo_b : Zint.t;
  mutable has_hi : bool;
  mutable hi_b : Zint.t;
}

let no_bound = { has_lo = false; lo_b = Zint.zero; has_hi = false; hi_b = Zint.zero }

let lower r x =
  if (not r.has_lo) || Zint.(x > r.lo_b) then begin
    r.has_lo <- true;
    r.lo_b <- x
  end

let upper r x =
  if (not r.has_hi) || Zint.(x < r.hi_b) then begin
    r.has_hi <- true;
    r.hi_b <- x
  end

let box_of st =
  let box = Array.make st.n no_bound in
  for i = 0 to st.n - 1 do
    let b = st.bs.(i) in
    if Linexpr.key_length b.key = 1 && Zint.is_one (Linexpr.key_coeff b.key 0)
    then begin
      let r = { has_lo = false; lo_b = Zint.zero; has_hi = false; hi_b = Zint.zero } in
      (* the key reads [v]: the lo slot reads v >= -lo_k, the hi slot
         v <= hi_k, the eq slot pins v = -eq_k *)
      if b.eq != none then begin
        lower r (Zint.neg b.eq_k);
        upper r (Zint.neg b.eq_k)
      end;
      if b.lo != none then lower r (Zint.neg b.lo_k);
      if b.hi != none then upper r b.hi_k;
      box.(i) <- r
    end
  done;
  box

(* The box of variable [id]: [no_bound] when it has no own bucket. *)
let rec box_for st box id i =
  if i >= st.n then no_bound
  else if box.(i) != no_bound && Linexpr.key_var_id st.bs.(i).key 0 = id then
    box.(i)
  else box_for st box id (i + 1)

(* Does [sign * dir + c >= 0] hold over the whole box?  The minimum of
   [sign * dir] over the box, summed in key order, against [-c]. *)
let implied_by_box st box key sign c =
  let m = ref Zint.zero and bounded = ref true and i = ref 0 in
  while !bounded && !i < Linexpr.key_length key do
    let q =
      if sign then Linexpr.key_coeff key !i
      else Zint.neg (Linexpr.key_coeff key !i)
    in
    let r = box_for st box (Linexpr.key_var_id key !i) 0 in
    if Zint.sign q > 0 then
      if r.has_lo then m := Zint.add !m (Zint.mul q r.lo_b)
      else bounded := false
    else if r.has_hi then m := Zint.add !m (Zint.mul q r.hi_b)
    else bounded := false;
    incr i
  done;
  !bounded && Zint.(Zint.add !m c >= Zint.zero)

let interval_screen st =
  let box = box_of st in
  let stats = Metrics.current () in
  for i = 0 to st.n - 1 do
    let b = st.bs.(i) in
    if b.eq == none && (not b.contra) && Linexpr.key_length b.key > 1 then begin
      (* dir + lo_k >= 0 redundant when min(dir) + lo_k >= 0 *)
      if b.lo != none && implied_by_box st box b.key true b.lo_k then begin
        b.lo <- none;
        stats.Metrics.pruned_interval <- stats.pruned_interval + 1
      end;
      (* -dir + hi_k >= 0 redundant when min(-dir) + hi_k >= 0 *)
      if b.hi != none && implied_by_box st box b.key false b.hi_k then begin
        b.hi <- none;
        stats.Metrics.pruned_interval <- stats.pruned_interval + 1
      end
    end
  done

(* Below this many constraints the screen's bookkeeping costs more than
   the pruning saves; Fourier-Motzkin growth only bites on larger
   systems, so small problems skip straight to emission. *)
let interval_screen_threshold = 10

(* Check every bucket in ascending key order, raising [Bail] on a
   contradiction, and settle each to what it emits: touching opposite
   bounds become the equality they pin, in the eq slot. *)
let settle st =
  for i = 0 to st.n - 1 do
    let b = st.bs.(i) in
    if b.contra then raise Bail;
    if b.eq != none then begin
      (* equality dir = -eq_k; bounds dir >= -lo_k, dir <= hi_k must
         agree *)
      if b.lo != none && Zint.(Zint.neg b.eq_k < Zint.neg b.lo_k) then
        raise Bail;
      if b.hi != none && Zint.(Zint.neg b.eq_k > b.hi_k) then raise Bail
    end
    else if b.lo != none && b.hi != none then begin
      (* -lo_k <= dir <= hi_k *)
      if Zint.(b.hi_k < Zint.neg b.lo_k) then raise Bail
      else if Zint.equal b.hi_k (Zint.neg b.lo_k) then begin
        (* touching bounds: dir = hi_k, an equality *)
        b.eq <-
          Constr.eq
            ~color:(Constr.combine_colors (Constr.color b.lo) (Constr.color b.hi))
            (Constr.expr b.lo);
        b.lo <- none;
        b.hi <- none
      end
    end
  done

(* The settled buckets' constraints, consed from the last bucket so the
   list comes out in ascending key order. *)
let emit st =
  let out = ref [] in
  for i = st.n - 1 downto 0 do
    let b = st.bs.(i) in
    if b.eq != none then out := b.eq :: !out
    else begin
      if b.hi != none then out := b.hi :: !out;
      if b.lo != none then out := b.lo :: !out
    end
  done;
  !out

let no_bucket =
  {
    key = Linexpr.canon Linexpr.zero;
    lo = none;
    lo_k = Zint.zero;
    hi = none;
    hi_k = Zint.zero;
    eq = none;
    eq_k = Zint.zero;
    contra = false;
  }

(* Simplify the conjunction of [cs] and, unless it is [none], [extra]
   (considered last).  [grown] with at least [interval_screen_threshold]
   constraints and none red runs the interval screen. *)
let run ~grown cs extra =
  let len = List.length cs + (if extra == none then 0 else 1) in
  let st = { bs = Array.make len no_bucket; n = 0; red = false } in
  match
    consider_all st cs;
    if extra != none then consider st extra;
    if grown && (not st.red) && len >= interval_screen_threshold then
      interval_screen st;
    settle st
  with
  | exception Bail -> Contra
  | () ->
    let r = mk (emit st) in
    r.simp <- true;
    Ok r

let simplify (t : t) : simplified =
  if t.simp then Ok t else run ~grown:t.grown t.cs none

let simplify_and (t : t) (c : Constr.t) : simplified = run ~grown:false t.cs c

let pp fmt t =
  let open Format in
  if t.cs = [] then pp_print_string fmt "TRUE"
  else begin
    pp_print_string fmt "{ ";
    let first = ref true in
    List.iter
      (fun c ->
        if not !first then pp_print_string fmt " && ";
        first := false;
        Constr.pp fmt c)
      t.cs;
    pp_print_string fmt " }"
  end

let to_string t = Format.asprintf "%a" pp t

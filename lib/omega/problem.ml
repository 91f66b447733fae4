(* A problem is a conjunction of constraints, the basic object the Omega
   test manipulates.

   Semantics: a problem denotes the set of assignments to its non-wildcard
   variables for which there exist integer values of the wildcard variables
   satisfying every constraint.  After simplification and elimination,
   wildcards appear only in "inert congruence" position: a wildcard [s]
   occurring in exactly one equality [e + g*s = 0], which denotes the
   congruence [e = 0 (mod g)]. *)

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

let eqs t = List.filter (fun c -> Constr.kind c = Constr.Eq) t.cs
let geqs t = List.filter (fun c -> Constr.kind c = Constr.Geq) t.cs

let vars t =
  List.fold_left (fun acc c -> Var.Set.union acc (Constr.vars c)) Var.Set.empty t.cs

let map_constraints f t = mk (List.map f t.cs)
let filter f t = mk (List.filter f t.cs)
let exists f t = List.exists f t.cs
let for_all f t = List.for_all f t.cs

let subst v def t = mk (List.map (fun c -> Constr.subst c v def) t.cs)

(* Substitution driven by an equality of the given color: constraints that
   actually mention the variable absorb that color (supports the red/black
   combined projection + gist of section 3.3.2). *)
let subst_colored v def color t =
  mk
    (List.map
       (fun c ->
         if Constr.mentions c v then
           Constr.with_color
             (Constr.combine_colors color (Constr.color c))
             (Constr.subst c v def)
         else c)
       t.cs)

let eval env t = List.for_all (Constr.eval env) t.cs

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

(* Key for grouping constraints with parallel linear parts.  Two exprs get
   the same key iff their linear parts are equal or opposite; [flipped]
   tells which.  The key itself (linear part in ascending variable order,
   leading coefficient positive) is computed — and cached — by
   [Linexpr.canon]. *)
type key = (Var.t * Zint.t) list

let compare_key (a : key) (b : key) =
  let cmp (va, ca) (vb, cb) =
    let c = Var.compare va vb in
    if c <> 0 then c else Zint.compare ca cb
  in
  List.compare cmp a b

(* Merge the constraints sharing a linear direction:
   after canonicalization every constraint is [dir + c >= 0] (lower bound on
   -dir), [-dir + c >= 0] (upper bound), or [dir + c = 0].  We keep the
   tightest bounds, detect contradictions, and promote touching opposite
   inequalities to equalities. *)
type bucket = {
  (* smallest c with dir + c >= 0 *)
  mutable lo : (Zint.t * Constr.t) option;
  (* smallest c with -dir + c >= 0 *)
  mutable hi : (Zint.t * Constr.t) option;
  (* equality dir + c = 0 *)
  mutable eq : (Zint.t * Constr.t) option;
  mutable contra : bool;
}

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
   kill/cover hot path anyway. *)
let interval_screen (iter_buckets : (key -> bucket -> unit) -> unit) =
  let bounds : (int, Zint.t option ref * Zint.t option ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let tighten r better x =
    match !r with
    | None -> r := Some x
    | Some y -> if better x y then r := Some x
  in
  iter_buckets
    (fun key b ->
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
        (* key direction is [v]: lo slot (clo) reads v >= -clo, hi slot
           (chi) reads v <= chi, eq slot (ceq) pins v = -ceq *)
        (match b.eq with
         | Some (ceq, _) ->
           tighten lo Zint.( > ) (Zint.neg ceq);
           tighten hi Zint.( < ) (Zint.neg ceq)
         | None -> ());
        (match b.lo with
         | Some (clo, _) -> tighten lo Zint.( > ) (Zint.neg clo)
         | None -> ());
        (match b.hi with
         | Some (chi, _) -> tighten hi Zint.( < ) chi
         | None -> ())
      | _ -> ());
  let bound_for v sign_pos =
    match Hashtbl.find_opt bounds (Var.id v) with
    | None -> None
    | Some (lo, hi) -> if sign_pos then !lo else !hi
  in
  (* minimum of [sign * dir] over the box, [None] when unbounded below *)
  let box_min key sign =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | None -> None
        | Some m ->
          let q = if sign then c else Zint.neg c in
          (match bound_for v (Zint.sign q > 0) with
           | None -> None
           | Some b -> Some (Zint.add m (Zint.mul q b))))
      (Some Zint.zero) key
  in
  let stats = Metrics.current () in
  iter_buckets
    (fun key b ->
      if b.eq = None && not b.contra && List.length key > 1 then begin
        (match b.lo with
         | Some (clo, _) ->
           (* dir + clo >= 0 redundant when min(dir) + clo >= 0 *)
           (match box_min key true with
            | Some m when Zint.(Zint.add m clo >= Zint.zero) ->
              b.lo <- None;
              stats.Metrics.pruned_interval <- stats.pruned_interval + 1
            | _ -> ())
         | None -> ());
        match b.hi with
        | Some (chi, _) ->
          (* -dir + chi >= 0 redundant when min(-dir) + chi >= 0 *)
          (match box_min key false with
           | Some m when Zint.(Zint.add m chi >= Zint.zero) ->
             b.hi <- None;
             stats.Metrics.pruned_interval <- stats.pruned_interval + 1
           | _ -> ())
        | None -> ()
      end)

(* Below this many constraints the screen's bookkeeping costs more than
   the pruning saves; Fourier-Motzkin growth only bites on larger
   systems, so small problems skip straight to emission. *)
let interval_screen_threshold = 10

let simplify (t : t) : simplified =
  if t.simp then Ok t
  else begin
  let exception Bail in
  let has_red = ref false in
  (* Bucket store: a list probed by the precomputed canonical-key hash (an
     int compare; the full key comparison runs only on a hash match).  At
     the handful of distinct directions a problem carries, a linear scan
     of unboxed int hashes beats both a hash table (allocation-heavy for
     tiny problems) and a balanced map over coefficient-vector keys, whose
     every probe walks O(log n) full list comparisons.  Emission sorts the
     few resulting buckets into canonical key order: downstream
     substitution choices and red/black gist shapes depend on constraint
     order, so the output order must not depend on input order. *)
  let buckets : (int * key * bucket) list ref = ref [] in
  let get_bucket key khash =
    let rec find = function
      | [] ->
        let b = { lo = None; hi = None; eq = None; contra = false } in
        buckets := (khash, key, b) :: !buckets;
        b
      | (h, k, b) :: rest ->
        if h = khash && compare_key k key = 0 then b else find rest
    in
    find !buckets
  in
  let sorted = ref None in
  let iter_buckets f =
    let l =
      match !sorted with
      | Some l -> l
      | None ->
        let l =
          List.sort (fun (_, a, _) (_, b, _) -> compare_key a b) !buckets
        in
        sorted := Some l;
        l
    in
    List.iter (fun (_, k, b) -> f k b) l
  in
  let consider c0 =
    match Constr.normalize c0 with
    | Constr.Tauto -> ()
    | Constr.Contra -> raise Bail
    | Constr.Ok c ->
      if Constr.is_red c then has_red := true;
      let e = Constr.expr c in
      let key, flipped, khash = Linexpr.canon e in
      let b = get_bucket key khash in
      let cst = Linexpr.constant e in
      (match Constr.kind c with
       | Constr.Eq ->
         (* normalize equality constant to the unflipped direction *)
         let cst = if flipped then Zint.neg cst else cst in
         (match b.eq with
          | Some (c', _) when not (Zint.equal c' cst) -> b.contra <- true
          | Some _ -> ()
          | None -> b.eq <- Some (cst, c))
       | Constr.Geq ->
         let slot_is_lo = not flipped in
         let update slot =
           match slot with
           | Some (c', _) when Zint.(cst < c') -> Some (cst, c)
           | None -> Some (cst, c)
           | some -> some
         in
         if slot_is_lo then b.lo <- update b.lo else b.hi <- update b.hi)
  in
  match List.iter consider t.cs with
  | exception Bail -> Contra
  | () ->
    if
      t.grown && (not !has_red)
      && List.length t.cs >= interval_screen_threshold
    then interval_screen iter_buckets;
    let out = ref [] in
    let emit c = out := c :: !out in
    let check_bucket _key b =
      if b.contra then raise Bail;
      match b.eq with
      | Some (ceq, c) ->
        (* equality dir = -ceq; bounds dir >= -clo, dir <= chi must agree *)
        (match b.lo with
         | Some (clo, _) when Zint.(Zint.neg ceq < Zint.neg clo) -> raise Bail
         | _ -> ());
        (match b.hi with
         | Some (chi, _) when Zint.(Zint.neg ceq > chi) -> raise Bail
         | _ -> ());
        emit c
      | None ->
        (match b.lo, b.hi with
         | Some (clo, cl), Some (chi, ch) ->
           (* -clo <= dir <= chi *)
           if Zint.(chi < Zint.neg clo) then raise Bail
           else if Zint.equal chi (Zint.neg clo) then
             (* touching bounds: dir = chi, an equality *)
             emit
               (Constr.eq
                  ~color:(Constr.combine_colors (Constr.color cl) (Constr.color ch))
                  (Constr.expr cl))
           else begin
             emit cl;
             emit ch
           end
         | Some (_, cl), None -> emit cl
         | None, Some (_, ch) -> emit ch
         | None, None -> ())
    in
    (match iter_buckets check_bucket with
     | exception Bail -> Contra
     | () ->
       let r = mk (List.rev !out) in
       r.simp <- true;
       Ok r)
  end

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

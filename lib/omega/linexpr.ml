(* Affine expressions: a constant plus a linear combination of variables
   with exact integer coefficients.  The term map never stores zero
   coefficients, so structural equality of the map coincides with equality
   of the linear part.

   Each expression lazily caches a structural hash and the canonical
   coefficient-vector key used by [Problem.simplify] to bucket parallel
   constraints, so the hot loops stop re-walking coefficient lists. *)

type cache = {
  c_hash : int;  (* structural hash of constant + terms *)
  c_key : (Var.t * Zint.t) list;
      (* linear part in ascending variable order, leading coeff > 0 *)
  c_flipped : bool;  (* whether the key negated the coefficients *)
  c_khash : int;  (* hash of [c_key] alone *)
}

type t = { const : Zint.t; terms : Zint.t Var.Map.t; mutable cache : cache option }

let mk const terms = { const; terms; cache = None }

let zero = mk Zint.zero Var.Map.empty
let const c = mk c Var.Map.empty
let of_int n = const (Zint.of_int n)

let term c v =
  if Zint.is_zero c then zero else mk Zint.zero (Var.Map.singleton v c)

let var v = term Zint.one v

let coeff e v =
  match Var.Map.find_opt v e.terms with Some c -> c | None -> Zint.zero

let constant e = e.const
let mem e v = Var.Map.mem v e.terms
let is_const e = Var.Map.is_empty e.terms

let set_coeff e v c =
  let terms =
    if Zint.is_zero c then Var.Map.remove v e.terms
    else Var.Map.add v c e.terms
  in
  mk e.const terms

let add_term e c v = set_coeff e v (Zint.add (coeff e v) c)
let add_const e c = mk (Zint.add e.const c) e.terms

let add a b =
  let terms =
    Var.Map.union
      (fun _ c1 c2 ->
        let c = Zint.add c1 c2 in
        if Zint.is_zero c then None else Some c)
      a.terms b.terms
  in
  mk (Zint.add a.const b.const) terms

let neg e = mk (Zint.neg e.const) (Var.Map.map Zint.neg e.terms)

let sub a b = add a (neg b)

let scale c e =
  if Zint.is_zero c then zero
  else if Zint.is_one c then e
  else mk (Zint.mul c e.const) (Var.Map.map (Zint.mul c) e.terms)

let scale_int n e = scale (Zint.of_int n) e

(* Substitute [v := def] in [e]. *)
let subst e v def =
  let c = coeff e v in
  if Zint.is_zero c then e
  else add (set_coeff e v Zint.zero) (scale c def)

let vars e = Var.Map.fold (fun v _ acc -> Var.Set.add v acc) e.terms Var.Set.empty

let iter_terms f e = Var.Map.iter f e.terms
let fold_terms f e acc = Var.Map.fold f e.terms acc
let num_terms e = Var.Map.cardinal e.terms

(* Gcd of the variable coefficients (not the constant); zero for a constant
   expression. *)
let content e =
  Var.Map.fold (fun _ c acc -> Zint.gcd (Zint.abs c) acc) e.terms Zint.zero

(* Divide all coefficients and the constant exactly by [d]. *)
let divexact e d =
  mk (Zint.divexact e.const d) (Var.Map.map (fun c -> Zint.divexact c d) e.terms)

let map_coeffs f e =
  let terms =
    Var.Map.filter_map
      (fun _ c ->
        let c' = f c in
        if Zint.is_zero c' then None else Some c')
      e.terms
  in
  mk (f e.const) terms

let eval env e =
  Var.Map.fold
    (fun v c acc -> Zint.add acc (Zint.mul c (env v)))
    e.terms e.const

(* ------------------------------------------------------------------ *)
(* Cached hash / canonical key                                         *)
(* ------------------------------------------------------------------ *)

let mix h x = (((h * 65599) + x) lxor (h lsr 17)) land max_int

let compute_cache e =
  (* one walk in ascending variable order; [Var.Map.fold] already
     iterates in increasing key order, so no sort is needed *)
  let rev_key, khash, h =
    Var.Map.fold
      (fun v c (key, kh, h) ->
        let hv = Var.hash v and hc = Zint.hash c in
        ((v, c) :: key, mix (mix kh hv) hc, mix (mix h hv) hc))
      e.terms
      ([], 0x9dc5, mix 0x811c (Zint.hash e.const))
  in
  let bindings = List.rev rev_key in
  let flipped =
    match bindings with (_, c0) :: _ -> Zint.sign c0 < 0 | [] -> false
  in
  let key, khash =
    if not flipped then (bindings, khash)
    else
      List.fold_left
        (fun (key, kh) (v, c) ->
          let c = Zint.neg c in
          ((v, c) :: key, mix (mix kh (Var.hash v)) (Zint.hash c)))
        ([], 0x9dc5) bindings
      |> fun (rk, kh) -> (List.rev rk, kh)
  in
  { c_hash = h; c_key = key; c_flipped = flipped; c_khash = khash }

let cached e =
  match e.cache with
  | Some c -> c
  | None ->
    let c = compute_cache e in
    e.cache <- Some c;
    c

let hash e = (cached e).c_hash

let canon e =
  let c = cached e in
  (c.c_key, c.c_flipped, c.c_khash)

(* Structural comparison, constant included. *)
let compare a b =
  if a == b then 0
  else
    let c = Zint.compare a.const b.const in
    if c <> 0 then c else Var.Map.compare Zint.compare a.terms b.terms

(* Comparison of the linear parts only (ignoring constants): used to detect
   parallel constraints. *)
let compare_terms a b =
  if a == b then 0 else Var.Map.compare Zint.compare a.terms b.terms

let equal a b =
  a == b
  ||
  match a.cache, b.cache with
  | Some ca, Some cb when ca.c_hash <> cb.c_hash -> false
  | _ -> compare a b = 0

(* Inner product of the coefficient vectors of two expressions, used by the
   gist fast checks ("normals with positive inner product"). *)
let dot a b =
  Var.Map.fold
    (fun v c acc ->
      match Var.Map.find_opt v b.terms with
      | Some c' -> Zint.add acc (Zint.mul c c')
      | None -> acc)
    a.terms Zint.zero

let pp fmt e =
  let open Format in
  if is_const e then Zint.pp fmt e.const
  else begin
    let first = ref true in
    Var.Map.iter
      (fun v c ->
        let s = Zint.sign c in
        if !first then begin
          first := false;
          if Zint.is_one c then pp_print_string fmt (Var.name v)
          else if Zint.equal c Zint.minus_one then fprintf fmt "-%s" (Var.name v)
          else fprintf fmt "%a%s" Zint.pp c (Var.name v)
        end
        else begin
          let a = Zint.abs c in
          fprintf fmt " %s " (if s >= 0 then "+" else "-");
          if Zint.is_one a then pp_print_string fmt (Var.name v)
          else fprintf fmt "%a%s" Zint.pp a (Var.name v)
        end)
      e.terms;
    if not (Zint.is_zero e.const) then
      if Zint.sign e.const > 0 then fprintf fmt " + %a" Zint.pp e.const
      else fprintf fmt " - %a" Zint.pp (Zint.abs e.const)
  end

let to_string e = Format.asprintf "%a" pp e

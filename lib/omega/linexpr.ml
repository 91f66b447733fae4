(* Affine expressions: a constant plus a linear combination of variables
   with exact integer coefficients.  The term map never stores zero
   coefficients, so structural equality of the map coincides with equality
   of the linear part.

   Each expression lazily caches the canonical coefficient-vector key
   [Problem.simplify] buckets parallel constraints by: one flat int array
   of (variable id, coefficient) pairs in ascending variable order,
   leading coefficient made positive, with whether that flipped the signs
   and a hash of the array.  Keys compare by a plain loop over the array,
   so the simplifier's hot loop allocates nothing to probe or order its
   buckets. *)

type key = {
  k_pairs : int array;
      (* id0, c0, id1, c1, ...: ascending ids, c0 > 0 *)
  k_flipped : bool;  (* whether the key negated the coefficients *)
  k_hash : int;  (* hash of [k_pairs] *)
}

type t = { const : Zint.t; terms : Zint.t Var.Map.t; mutable key : key }

(* The key not computed yet; compared physically. *)
let no_key = { k_pairs = [||]; k_flipped = false; k_hash = 0 }

let mk const terms = { const; terms; key = no_key }

let zero = mk Zint.zero Var.Map.empty
let const c = mk c Var.Map.empty
let of_int n = const (Zint.of_int n)

let term c v =
  if Zint.is_zero c then zero else mk Zint.zero (Var.Map.singleton v c)

let var v = term Zint.one v

(* [mem] then [find]: two walks of a map of a few terms cost less than
   the option [find_opt] allocates. *)
let find_coeff terms v =
  if Var.Map.mem v terms then Var.Map.find v terms else Zint.zero

let coeff e v = find_coeff e.terms v

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

(* [a*x + b*y]: each term [d*u] of [y] adds [b*d] to [a*x]. *)
let lincomb a x b y =
  let ax = scale a x in
  let terms =
    Var.Map.fold
      (fun u d terms ->
        let c = Zint.add (find_coeff terms u) (Zint.mul b d) in
        if Zint.is_zero c then Var.Map.remove u terms
        else Var.Map.add u c terms)
      y.terms ax.terms
  in
  mk (Zint.add ax.const (Zint.mul b y.const)) terms

(* Substitute [v := def] in [e]: each term [d*u] of [def] adds [c*d] to
   the coefficient of [u] in [e] without [v]. *)
let subst e v def =
  let c = coeff e v in
  if Zint.is_zero c then e
  else
    let terms =
      Var.Map.fold
        (fun u d terms ->
          let x = Zint.add (find_coeff terms u) (Zint.mul c d) in
          if Zint.is_zero x then Var.Map.remove u terms
          else Var.Map.add u x terms)
        def.terms
        (Var.Map.remove v e.terms)
    in
    mk (Zint.add e.const (Zint.mul c def.const)) terms

let vars e = Var.Map.fold (fun v _ acc -> Var.Set.add v acc) e.terms Var.Set.empty
let exists_var f e = Var.Map.exists (fun v _ -> f v) e.terms

let iter_terms f e = Var.Map.iter f e.terms
let fold_terms f e acc = Var.Map.fold f e.terms acc

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
(* Canonical key                                                       *)
(* ------------------------------------------------------------------ *)

let mix h x = (((h * 65599) + x) lxor (h lsr 17)) land max_int

let compute_key e =
  let pairs = Array.make (2 * Var.Map.cardinal e.terms) 0 in
  (* [Var.Map.fold] walks in ascending variable order, so no sort *)
  ignore
    (Var.Map.fold
       (fun v c i ->
         pairs.(i) <- Var.id v;
         pairs.(i + 1) <- Zint.to_int c;
         i + 2)
       e.terms 0);
  let flipped = Array.length pairs > 0 && pairs.(1) < 0 in
  let h = ref 0x9dc5 in
  for i = 0 to Array.length pairs - 1 do
    if flipped && i land 1 = 1 then
      pairs.(i) <- Zint.to_int (Zint.neg (Zint.of_int pairs.(i)));
    h := mix !h pairs.(i)
  done;
  { k_pairs = pairs; k_flipped = flipped; k_hash = !h }

let canon e =
  if e.key != no_key then e.key
  else begin
    let k = compute_key e in
    e.key <- k;
    k
  end

let key_flipped k = k.k_flipped
let key_hash k = k.k_hash
let key_length k = Array.length k.k_pairs / 2
let key_var_id k i = k.k_pairs.(2 * i)
let key_coeff k i = Zint.of_int k.k_pairs.((2 * i) + 1)

(* Lexicographic over the (id, coefficient) pairs, a proper prefix
   first: the order of the pair lists compared by [Var.compare], then
   [Zint.compare]. *)
let compare_key a b =
  if a.k_pairs == b.k_pairs then 0
  else begin
    let x = a.k_pairs and y = b.k_pairs in
    let nx = Array.length x and ny = Array.length y in
    let n = if nx < ny then nx else ny in
    let i = ref 0 in
    while !i < n && x.(!i) = y.(!i) do
      incr i
    done;
    if !i < n then Int.compare x.(!i) y.(!i) else Int.compare nx ny
  end

(* Structural comparison, constant included. *)
let compare a b =
  if a == b then 0
  else
    let c = Zint.compare a.const b.const in
    if c <> 0 then c else Var.Map.compare Zint.compare a.terms b.terms

(* Inner product of the coefficient vectors of two expressions, used by the
   gist fast checks ("normals with positive inner product"). *)
let dot a b =
  Var.Map.fold
    (fun v c acc ->
      if Var.Map.mem v b.terms then
        Zint.add acc (Zint.mul c (Var.Map.find v b.terms))
      else acc)
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


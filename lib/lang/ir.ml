(* Normalized intermediate representation of a petit program, the input to
   dependence analysis.

   Every array access is flattened into an [access] record carrying:
   - its subscripts as affine functions of the enclosing loop variables,
     symbolic constants, and opaque terms (non-affine subexpressions);
   - its loop nest (bounds affine over outer loop variables, with max/min
     lower/upper bound lists);
   - tree coordinates used to decide execution order. *)

type varref =
  | Loop of int (* de Bruijn-style index into the access's nest, 0 = outermost *)
  | Symc of string (* symbolic constant *)
  | Opq of int (* opaque (non-affine) term, by id *)

let compare_varref a b =
  match a, b with
  | Loop i, Loop j -> compare i j
  | Loop _, _ -> -1
  | _, Loop _ -> 1
  | Symc s, Symc t -> compare s t
  | Symc _, _ -> -1
  | _, Symc _ -> 1
  | Opq i, Opq j -> compare i j

(* Affine form: constant + sum of coeff * varref, terms sorted by varref
   with no zero coefficients. *)
type affine = { const : int; terms : (varref * int) list }

let aff_const c = { const = c; terms = [] }
let aff_var v = { const = 0; terms = [ (v, 1) ] }

(* Coefficient arithmetic is checked: [Zint.Overflow] when an exact
   coefficient does not fit, never a wrapped one. *)
let aff_add a b =
  let rec merge xs ys =
    match xs, ys with
    | [], l | l, [] -> l
    | (vx, cx) :: xs', (vy, cy) :: ys' ->
      let cmp = compare_varref vx vy in
      if cmp < 0 then (vx, cx) :: merge xs' ys
      else if cmp > 0 then (vy, cy) :: merge xs ys'
      else begin
        let c = Zint.Int.add cx cy in
        if c = 0 then merge xs' ys' else (vx, c) :: merge xs' ys'
      end
  in
  { const = Zint.Int.add a.const b.const; terms = merge a.terms b.terms }

let aff_scale k a =
  if k = 0 then aff_const 0
  else
    {
      const = Zint.Int.mul k a.const;
      terms = List.map (fun (v, c) -> (v, Zint.Int.mul k c)) a.terms;
    }

let aff_neg a = aff_scale (-1) a
let aff_sub a b = aff_add a (aff_neg b)
let aff_is_const a = a.terms = []

let aff_coeff a v =
  match List.assoc_opt v a.terms with Some c -> c | None -> 0

(* ------------------------------------------------------------------ *)
(* Structures                                                          *)
(* ------------------------------------------------------------------ *)

(* An opaque term: a non-affine subexpression (index-array read, product of
   variables, ...), kept for the section-5 symbolic analysis.  The [repr]
   is the original syntax; [args] are the affine arguments when the term is
   an index-array read with affine subscripts. *)
type opaque = {
  opq_id : int;
  repr : Ast.expr;
  base : string option; (* array name when the term is an array read *)
  args : affine list; (* affine arguments, over the same nest *)
}

type bound = affine list
(* lower bound: max of the list; upper bound: min of the list *)

type loop = {
  lvar : string;
  lo : bound; (* affine over Loop indices 0..depth-1 of the enclosing nest *)
  hi : bound;
  step : int;
      (* The IR loop counter is normalized: it counts 0,1,2,... in execution
         order regardless of the surface step.  For [step = 1] the counter
         IS the surface variable and [lo]/[hi] bound it directly.  For
         [step <> 1] (single bound arms) the surface value is
         [lo + step*counter], and the counter satisfies [counter >= 0] and
         [step*counter <= hi - lo] (sign-adjusted for negative steps). *)
}

type acc_kind = Read | Write

type access = {
  acc_id : int;
  stmt_id : int;
  label : string;
  array : string;
  kind : acc_kind;
  subs : affine list;
  loops : loop list; (* outermost first; length = nest depth of the access *)
  loop_nodes : int list; (* unique ids of the enclosing loop AST nodes *)
  path : int list; (* sibling-index coordinates for textual order *)
  opaques : opaque list; (* opaque terms referenced by subs/bounds *)
}

(* Condition over symbolic constants from "assume" declarations. *)
type sym_cond = {
  sc_left : affine;
  sc_op : Ast.relop;
  sc_right : affine;
}

(* IR statement tree, used by the interpreter and the driver. *)
type istmt =
  | IFor of {
      node_id : int;
      var : string;
      lo : Ast.expr;
      hi : Ast.expr;
      step : int;
      body : istmt list;
    }
  | IAssign of {
      stmt_id : int;
      label : string;
      write : access;
      reads : access list; (* in evaluation order *)
      lhs : string * Ast.expr list;
      rhs : Ast.expr;
    }

type program = {
  source : Ast.program;
  symbolics : string list;
  arrays : (string * (affine * affine) list) list; (* declared ranges *)
  assumes : sym_cond list;
  accesses : access array; (* indexed by acc_id *)
  stmts : istmt list;
}

let access_count p = Array.length p.accesses
let access p id = p.accesses.(id)

let writes p =
  Array.to_list p.accesses |> List.filter (fun a -> a.kind = Write)

let reads p =
  Array.to_list p.accesses |> List.filter (fun a -> a.kind = Read)

let depth a = List.length a.loops

(* Number of loops common to two accesses (shared ancestor loop nodes). *)
let common_loops a b =
  let rec go xs ys n =
    match xs, ys with
    | x :: xs', y :: ys' when x = y -> go xs' ys' (n + 1)
    | _ -> n
  in
  go a.loop_nodes b.loop_nodes 0

(* Is [a] textually before [b] (at the point where their nests diverge)?
   Reads of a statement precede its write. *)
let textually_before a b =
  let rec cmp xs ys =
    match xs, ys with
    | [], [] -> 0
    | [], _ -> -1 (* outer statement comes before its successors? compare
                     handled by path construction: equal-prefix means same
                     statement chain *)
    | _, [] -> 1
    | x :: xs', y :: ys' -> if x <> y then compare x y else cmp xs' ys'
  in
  let c = cmp a.path b.path in
  if c <> 0 then c < 0
  else if a.kind <> b.kind then a.kind = Read (* same statement: reads first *)
  else a.acc_id < b.acc_id

let pp_varref fmt = function
  | Loop i -> Format.fprintf fmt "L%d" (i + 1)
  | Symc s -> Format.pp_print_string fmt s
  | Opq i -> Format.fprintf fmt "#%d" i

let pp_affine fmt a =
  if a.terms = [] then Format.pp_print_int fmt a.const
  else begin
    List.iteri
      (fun i (v, c) ->
        if i = 0 then
          if c = 1 then pp_varref fmt v
          else if c = -1 then Format.fprintf fmt "-%a" pp_varref v
          else Format.fprintf fmt "%d%a" c pp_varref v
        else begin
          Format.fprintf fmt " %s " (if c >= 0 then "+" else "-");
          let ac = abs c in
          if ac = 1 then pp_varref fmt v
          else Format.fprintf fmt "%d%a" ac pp_varref v
        end)
      a.terms;
    if a.const > 0 then Format.fprintf fmt " + %d" a.const
    else if a.const < 0 then Format.fprintf fmt " - %d" (-a.const)
  end

let access_to_string a =
  Format.asprintf "%s: %s(%s)" a.label a.array
    (String.concat ","
       (List.map (fun s -> Format.asprintf "%a" pp_affine s) a.subs))

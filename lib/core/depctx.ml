(* Building Omega problems from IR accesses.

   An [inst] is an instantiation of an access: integer variables for its
   loop counters (the iteration vector), plus variables for the value
   and arguments of each opaque (non-affine) term it mentions.  Opaque
   value variables are the "different symbolic variable for each
   appearance" of section 5.

   [create] mints every instance a query can ask for up front, once per
   analysis: the symbolic constants, then the [I] instance of every
   access in [acc_id] order, then every [J], then every [K].  A query
   names at most one instance per tag and pairs them as i < j < k, and
   its distance variables and wildcards are minted after [create], so
   each query sees its variables in the same relative id order that
   minting fresh instances per query gave it (symbolic constants < i < j
   < k < distance variables < wildcards).  That order is all the
   canonical memo keys, the simplifier's bucket order and the
   elimination tie-break read, so sharing instances changes no verdict,
   key or counter.  Minting lazily, on first use, would not keep it: the
   first query to ask for an access would fix its ids against whichever
   instances happened to exist.

   Each instance's default domain ([i in \[A\]] without in-bounds
   assertions) is built beside it.  The in-bounds assertions, asked for
   only under [--in-bounds] and by the section-5 dialog, are added per
   call, so an analysis that never asks for them does not build them.

   [create] also resolves the program's recipe table ([Memo.recipes]),
   under an exact fingerprint of the IR fields a context reads: the
   symbolic constants, the array ranges, the assumptions and the
   accesses.  These are plain data, so their [Marshal] image determines
   them.  Every key a query of this context builds is a function of
   those fields and the query's recipe ([recipe]), so a warm query
   finds its key there without building its problem.

   Nothing in [t] changes after [create] (the recipe table is the
   memo's, behind its lock): one context is read by every domain of a
   [Par.map].  (The shared constraints carry the solver's
   own idempotent caches, the normalized flag of [Constr] and the hash
   of [Linexpr]; any domain may fill them, always with the same
   value.) *)

open Omega

type tag = I | J | K

type inst = {
  access : Ir.access;
  tag : tag;
  ivars : Var.t array;
  opq_vals : (int * Var.t) list; (* opaque id -> value variable *)
  opq_args : (int * Var.t list) list; (* opaque id -> argument variables *)
}

(* An instance with its default domain; [None] when a coefficient
   overflowed while it was built, which [domain] raises again where the
   query that asks for it meets it. *)
type entry = { inst : inst; dom : Constr.t list option }

type t = {
  prog : Ir.program;
  syms : (string * Var.t) list;
  (* declared array ranges, translated over symbolic constants *)
  ranges : (string * (Linexpr.t * Linexpr.t) list) list;
  entries : entry array array; (* by tag, then by acc_id *)
  recipes : Memo.recipes;
}

let tag_index = function I -> 0 | J -> 1 | K -> 2
let tag_name = function I -> "i" | J -> "j" | K -> "k"

let sym_var t name =
  match List.assoc_opt name t.syms with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Depctx.sym_var: unknown symbolic %s" name)

(* Affine over syms only (array ranges, assumes). *)
let affine_syms t (a : Ir.affine) : Linexpr.t =
  List.fold_left
    (fun e (v, c) ->
      match v with
      | Ir.Symc s -> Linexpr.add_term e (Zint.of_int c) (sym_var t s)
      | Ir.Loop _ | Ir.Opq _ ->
        invalid_arg "Depctx.affine_syms: non-symbolic term")
    (Linexpr.of_int a.Ir.const)
    a.Ir.terms

(* Fresh variables for one instance of [access]: its iteration vector,
   then its opaque values, then its opaque arguments. *)
let mint (access : Ir.access) tag : inst =
  let tag_s = tag_name tag in
  let d = Ir.depth access in
  let ivars =
    Array.init d (fun i -> Var.fresh (Printf.sprintf "%s%d" tag_s (i + 1)))
  in
  let opq_vals =
    List.map
      (fun (o : Ir.opaque) ->
        (o.Ir.opq_id, Var.fresh ~kind:Var.Sym (Printf.sprintf "%s_val%d" tag_s o.Ir.opq_id)))
      access.Ir.opaques
  in
  let opq_args =
    List.map
      (fun (o : Ir.opaque) ->
        ( o.Ir.opq_id,
          List.mapi
            (fun k _ ->
              Var.fresh ~kind:Var.Sym (Printf.sprintf "%s_arg%d_%d" tag_s o.Ir.opq_id k))
            o.Ir.args ))
      access.Ir.opaques
  in
  { access; tag; ivars; opq_vals; opq_args }

(* Affine over an instantiation's variables. *)
let affine t (inst : inst) (a : Ir.affine) : Linexpr.t =
  List.fold_left
    (fun e (v, c) ->
      let var =
        match v with
        | Ir.Loop i -> inst.ivars.(i)
        | Ir.Symc s -> sym_var t s
        | Ir.Opq id -> List.assoc id inst.opq_vals
      in
      Linexpr.add_term e (Zint.of_int c) var)
    (Linexpr.of_int a.Ir.const)
    a.Ir.terms

(* i in [A]: the loop bounds of the access's nest, plus the defining
   constraints of its opaque terms' arguments. *)
let base_domain t (inst : inst) : Constr.t list =
  let bounds =
    List.concat
      (List.mapi
         (fun d (loop : Ir.loop) ->
           let v = Linexpr.var inst.ivars.(d) in
           if loop.Ir.step = 1 then
             List.map (fun lo -> Constr.ge v (affine t inst lo)) loop.Ir.lo
             @ List.map (fun hi -> Constr.le v (affine t inst hi)) loop.Ir.hi
           else begin
             (* normalized counter of a stepped loop: v >= 0, and the
                surface value lo + step*v within the (single) limit *)
             let l = affine t inst (List.hd loop.Ir.lo) in
             let surface = Linexpr.add l (Linexpr.scale_int loop.Ir.step v) in
             Constr.ge v (Linexpr.of_int 0)
             :: List.map
                  (fun hi ->
                    let h = affine t inst hi in
                    if loop.Ir.step > 0 then Constr.le surface h
                    else Constr.ge surface h)
                  loop.Ir.hi
           end)
         inst.access.Ir.loops)
  in
  let opaque_defs =
    List.concat_map
      (fun (o : Ir.opaque) ->
        let args = List.assoc o.Ir.opq_id inst.opq_args in
        List.map2
          (fun var arg -> Constr.eq2 (Linexpr.var var) (affine t inst arg))
          args o.Ir.args)
      inst.access.Ir.opaques
  in
  bounds @ opaque_defs

(* In-bounds assertions for the instance's subscripts and index-array
   values/arguments. *)
let in_bounds_constraints t (inst : inst) : Constr.t list =
  (* subscripts of this access within the declared range *)
  let sub_bounds =
    match List.assoc_opt inst.access.Ir.array t.ranges with
    | Some ranges when List.length ranges = List.length inst.access.Ir.subs ->
      List.concat
        (List.map2
           (fun s (lo, hi) ->
             let e = affine t inst s in
             [ Constr.ge e lo; Constr.le e hi ])
           inst.access.Ir.subs ranges)
    | _ -> []
  in
  (* index-array values and arguments within their declared ranges *)
  let opq_bounds =
    List.concat_map
      (fun (o : Ir.opaque) ->
        match o.Ir.base with
        | Some base -> (
          match List.assoc_opt base t.ranges with
          | Some ranges when List.length ranges = List.length o.Ir.args ->
            let args = List.assoc o.Ir.opq_id inst.opq_args in
            List.concat
              (List.map2
                 (fun var (lo, hi) ->
                   [
                     Constr.ge (Linexpr.var var) lo;
                     Constr.le (Linexpr.var var) hi;
                   ])
                 args ranges)
          | _ -> [])
        | None -> [])
      inst.access.Ir.opaques
  in
  sub_bounds @ opq_bounds

(* Everything of [prog] a context reads, [source] and [stmts] aside. *)
let fingerprint (prog : Ir.program) () =
  Marshal.to_string
    (prog.Ir.symbolics, prog.Ir.arrays, prog.Ir.assumes, prog.Ir.accesses)
    []

let create (prog : Ir.program) : t =
  let recipes = Memo.recipes (fingerprint prog) in
  let syms =
    List.map (fun s -> (s, Var.fresh ~kind:Var.Sym s)) prog.Ir.symbolics
  in
  let t0 = { prog; syms; ranges = []; entries = [||]; recipes } in
  let ranges =
    List.map
      (fun (name, ranges) ->
        (name, List.map (fun (lo, hi) -> (affine_syms t0 lo, affine_syms t0 hi)) ranges))
      prog.Ir.arrays
  in
  let t1 = { t0 with ranges } in
  let entry tag access =
    let inst = mint access tag in
    let dom = try Some (base_domain t1 inst) with Zint.Overflow -> None in
    { inst; dom }
  in
  (* tag-major: every I instance, then every J, then every K *)
  let entries =
    Array.map (fun tag -> Array.map (entry tag) prog.Ir.accesses) [| I; J; K |]
  in
  { t1 with entries }

let entry t (access : Ir.access) tag =
  let row = t.entries.(tag_index tag) in
  let id = access.Ir.acc_id in
  if id >= 0 && id < Array.length row && row.(id).inst.access == access then
    row.(id)
  else invalid_arg "Depctx: access of another program"

let instantiate t (access : Ir.access) ~tag : inst = (entry t access tag).inst

(* The recipe's fields, each list closed by its own separator: the
   family (letters), '+' or '-' for [in_bounds], "id," per access, then
   "|" and "level," per level list, then "/" and "lo:hi," per distance
   ('_' for none). *)
let recipe t ~query ~in_bounds ?(levels = []) ?(dists = []) accesses =
  let b = Buffer.create 32 in
  let int = Canon.add_int b in
  let opt = function Some n -> int n | None -> Buffer.add_char b '_' in
  Buffer.add_string b query;
  Buffer.add_char b (if in_bounds then '+' else '-');
  List.iter
    (fun (a : Ir.access) ->
      ignore (entry t a I) (* an access of another program raises *);
      int a.Ir.acc_id;
      Buffer.add_char b ',')
    accesses;
  List.iter
    (fun ls ->
      Buffer.add_char b '|';
      List.iter
        (fun l ->
          int l;
          Buffer.add_char b ',')
        ls)
    levels;
  Buffer.add_char b '/';
  List.iter
    (fun (lo, hi) ->
      opt lo;
      Buffer.add_char b ':';
      opt hi;
      Buffer.add_char b ',')
    dists;
  Buffer.contents b

let domain ?(in_bounds = false) t (inst : inst) : Constr.t list =
  let e = entry t inst.access inst.tag in
  if e.inst != inst then invalid_arg "Depctx.domain: instance of another context";
  match e.dom with
  | None -> raise Zint.Overflow
  | Some dom -> if in_bounds then dom @ in_bounds_constraints t inst else dom

(* A(i) and B(j) touch the same array element. *)
let subs_equal t (a : inst) (b : inst) : Constr.t list =
  assert (a.access.Ir.array = b.access.Ir.array);
  assert (List.length a.access.Ir.subs = List.length b.access.Ir.subs);
  List.map2
    (fun sa sb -> Constr.eq2 (affine t a sa) (affine t b sb))
    a.access.Ir.subs b.access.Ir.subs

(* User assumptions, as constraints over the symbolic constants. *)
let assumes t : Constr.t list =
  List.map
    (fun (c : Ir.sym_cond) ->
      let l = affine_syms t c.Ir.sc_left and r = affine_syms t c.Ir.sc_right in
      match c.Ir.sc_op with
      | Ast.Eq -> Constr.eq2 l r
      | Ast.Le -> Constr.le l r
      | Ast.Lt -> Constr.lt l r
      | Ast.Ge -> Constr.ge l r
      | Ast.Gt -> Constr.gt l r
      | Ast.Ne ->
        (* not expressible as one constraint; drop (conservative) *)
        Constr.geq (Linexpr.of_int 0))
    t.prog.Ir.assumes

(* ------------------------------------------------------------------ *)
(* Execution order                                                     *)
(* ------------------------------------------------------------------ *)

(* A(i) << B(j) as a disjunction of conjunctions, one per level:
   level l (1-based, l <= c): i_1 = j_1, ..., i_{l-1} = j_{l-1}, i_l < j_l;
   level c+1 (only when A is textually before B): all common equal.
   Carried level c+1 is reported as 0 (loop-independent).  [levels]
   lists the levels alone, [ordering] builds one level's conjunction. *)
let levels (a : Ir.access) (b : Ir.access) : int list =
  let c = Ir.common_loops a b in
  let carried = List.init c (fun l -> l + 1) in
  if Ir.textually_before a b then carried @ [ 0 ] else carried

let ordering (a : inst) (b : inst) level : Constr.t list =
  let eq_prefix l =
    List.init l (fun d ->
        Constr.eq2 (Linexpr.var a.ivars.(d)) (Linexpr.var b.ivars.(d)))
  in
  if level = 0 then eq_prefix (Ir.common_loops a.access b.access)
  else
    eq_prefix (level - 1)
    @ [
        Constr.lt
          (Linexpr.var a.ivars.(level - 1))
          (Linexpr.var b.ivars.(level - 1));
      ]

let order_before (a : inst) (b : inst) : (int * Constr.t list) list =
  List.map (fun l -> (l, ordering a b l)) (levels a.access b.access)

(* Variables of an instantiation, for quantification. *)
let inst_vars (i : inst) : Var.t list =
  Array.to_list i.ivars
  @ List.map snd i.opq_vals
  @ List.concat_map snd i.opq_args

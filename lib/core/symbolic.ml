(* Symbolic dependence analysis (section 5).

   A dependence may exist only for particular values of symbolic constants
   (loop-invariant scalars) or of opaque terms (index arrays, non-linear
   expressions).  We compute the exact condition by projecting the
   dependence problem onto those variables, and we compute the *new*
   information relative to what is already known (assumptions, loop
   bounds) with a gist - that is the concise query to put to the user. *)

open Omega

(* A restraint vector (section 2.1.2): per common loop, a constraint on
   the sign of the dependence distance, chosen so the conjunction forces
   lexicographically forward dependences. *)
type restraint = Dirvec.sign list

let restraint_constraints (a : Depctx.inst) (b : Depctx.inst)
    (r : restraint) : Constr.t list =
  List.concat
    (List.mapi
       (fun l s ->
         let dist =
           Linexpr.sub
             (Linexpr.var b.Depctx.ivars.(l))
             (Linexpr.var a.Depctx.ivars.(l))
         in
         match s with
         | Dirvec.Pos -> [ Constr.gt dist (Linexpr.of_int 0) ]
         | Dirvec.Neg -> [ Constr.lt dist (Linexpr.of_int 0) ]
         | Dirvec.Zero -> [ Constr.eq dist ]
         | Dirvec.NonNeg -> [ Constr.ge dist (Linexpr.of_int 0) ]
         | Dirvec.NonPos -> [ Constr.le dist (Linexpr.of_int 0) ]
         | Dirvec.Any -> [])
       r)

(* The condition (over the chosen variables) under which a dependence with
   the given restraint vector exists, as new information relative to what
   is already known. *)
type condition =
  | Always (* the dependence exists whenever p does: gist was a tautology *)
  | Never (* p and q are incompatible *)
  | When of Problem.t
  | Unknown of Budget.reason
    (* the analysis gave up: the dependence must be assumed *)

type analysis = {
  cond : condition;
  (* context: what is already known, projected onto the same variables -
     the "such that" part of a rendered query *)
  known : Problem.t;
  (* instances, to interpret the variables in [cond] *)
  inst_a : Depctx.inst;
  inst_b : Depctx.inst;
  ctx : Depctx.t;
}

(* Variables of interest: symbolic constants (except those in [hide]) plus
   all opaque value/argument variables of the two instances. *)
let focus_vars ctx (a : Depctx.inst) (b : Depctx.inst) ~(hide : string list)
    =
  let syms =
    List.filter_map
      (fun (name, v) -> if List.mem name hide then None else Some v)
      ctx.Depctx.syms
  in
  let opq (i : Depctx.inst) =
    List.map snd i.Depctx.opq_vals @ List.concat_map snd i.Depctx.opq_args
  in
  syms @ opq a @ opq b

(* Project a problem onto [vars]; exact when the projection does not
   splinter, otherwise the dark shadow (the paper notes splintering is
   almost never hit in practice). *)
let project_onto vars (p : Problem.t) : [ `Contra | `Ok of Problem.t ] =
  let keep v = List.exists (Var.equal v) vars in
  match Elim.project ~keep p with
  | [] -> `Contra
  | [ q ] -> `Ok q
  | _ :: _ :: _ -> Elim.project_dark ~keep p

let analyze_exn ?(in_bounds = true) ctx ~(src : Ir.access) ~(dst : Ir.access)
    ~(restraint : restraint) ?(hide = []) () : analysis =
  let a = Depctx.instantiate ctx src ~tag:Depctx.I in
  let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
  let p_cs =
    Depctx.assumes ctx
    @ Depctx.domain ~in_bounds ctx a
    @ Depctx.domain ~in_bounds ctx b
    @ restraint_constraints a b restraint
  in
  let q_cs = Depctx.subs_equal ctx a b in
  let vars = focus_vars ctx a b ~hide in
  let p = Problem.of_list p_cs in
  let q = Problem.of_list q_cs in
  match project_onto vars p with
  | `Contra ->
    (* the restrained dependence shape is impossible independent of the
       subscripts *)
    {
      cond = Never;
      known = Problem.trivial;
      inst_a = a;
      inst_b = b;
      ctx;
    }
  | `Ok known ->
    let keep v = List.exists (Var.equal v) vars in
    (* the red/black combined projection + gist (section 3.3.2) *)
    (match Gist.gist_project ~keep q ~given:p with
     | Gist.Tautology -> { cond = Always; known; inst_a = a; inst_b = b; ctx }
     | Gist.False -> { cond = Never; known; inst_a = a; inst_b = b; ctx }
     | Gist.Gist g -> { cond = When g; known; inst_a = a; inst_b = b; ctx })

(* Governed entry point: a give-up anywhere in the projections or gists
   degrades to [Unknown], whose reading is "assume the dependence". *)
let analyze ?in_bounds ctx ~src ~dst ~restraint ?hide () : analysis =
  match
    Budget.run ~label:"symbolic/analyze" (fun () ->
        analyze_exn ?in_bounds ctx ~src ~dst ~restraint ?hide ())
  with
  | Ok an -> an
  | Error r ->
    let a = Depctx.instantiate ctx src ~tag:Depctx.I in
    let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
    { cond = Unknown r; known = Problem.trivial; inst_a = a; inst_b = b; ctx }

(* ------------------------------------------------------------------ *)
(* Query rendering                                                     *)
(* ------------------------------------------------------------------ *)

(* Pretty names for the variables appearing in a symbolic condition:
   symbolic constants keep their names; opaque argument variables become
   a, b, c, ...; opaque value variables render as Q[a] (their array applied
   to their argument names) or as their expression for non-array terms. *)
type naming = { var_name : Var.t -> string; quantified : string list }

let make_naming (an : analysis) : naming =
  let next = ref 0 in
  let letters = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |] in
  let fresh_letter () =
    let l = letters.(!next mod Array.length letters) in
    incr next;
    l
  in
  let table : (int * string) list ref = ref [] in
  let quantified = ref [] in
  let arg_name (v : Var.t) =
    match List.assoc_opt (Var.id v) !table with
    | Some n -> n
    | None ->
      let n = fresh_letter () in
      table := (Var.id v, n) :: !table;
      quantified := !quantified @ [ n ];
      n
  in
  let render_opaque ~primed (inst : Depctx.inst) (o : Ir.opaque) =
    let args = List.assoc o.Ir.opq_id inst.Depctx.opq_args in
    match o.Ir.base with
    | Some base when args = [] ->
      (* scalar: distinguish the two instances with a prime *)
      if primed then base ^ "'" else base
    | Some base ->
      Printf.sprintf "%s[%s]" base
        (String.concat "," (List.map arg_name args))
    | None -> Format.asprintf "%a" Ast.pp_expr o.Ir.repr
  in
  let var_name v =
    (* symbolic constant? *)
    match
      List.find_opt (fun (_, sv) -> Var.equal sv v) (an.ctx).Depctx.syms
    with
    | Some (name, _) -> name
    | None ->
      let find_in ~primed (inst : Depctx.inst) =
        let value =
          List.find_opt
            (fun (_, vv) -> Var.equal vv v)
            inst.Depctx.opq_vals
        in
        match value with
        | Some (id, _) ->
          let o =
            List.find
              (fun (o : Ir.opaque) -> o.Ir.opq_id = id)
              inst.Depctx.access.Ir.opaques
          in
          Some (render_opaque ~primed inst o)
        | None ->
          if
            List.exists
              (fun (_, args) -> List.exists (Var.equal v) args)
              inst.Depctx.opq_args
          then Some (arg_name v)
          else None
      in
      (match find_in ~primed:false an.inst_a with
       | Some s -> s
       | None -> (
         match find_in ~primed:true an.inst_b with
         | Some s -> s
         | None -> Var.name v))
  in
  { var_name; quantified = !quantified }

let render_constr naming (c : Constr.t) : string =
  (* render [e >= 0] / [e = 0] by moving the negative terms across *)
  let e = Constr.expr c in
  let pos, neg =
    Linexpr.fold_terms
      (fun v coeff (pos, neg) ->
        if Zint.sign coeff > 0 then ((v, coeff) :: pos, neg)
        else (pos, (v, Zint.neg coeff) :: neg))
      e ([], [])
  in
  let const = Linexpr.constant e in
  let side terms k =
    let parts =
      List.map
        (fun (v, c) ->
          if Zint.is_one c then naming.var_name v
          else Printf.sprintf "%s*%s" (Zint.to_string c) (naming.var_name v))
        terms
      @ (if Zint.sign k > 0 then [ Zint.to_string k ] else [])
    in
    match parts with [] -> "0" | _ -> String.concat " + " parts
  in
  let lhs_k = if Zint.sign const > 0 then const else Zint.zero in
  let rhs_k = if Zint.sign const < 0 then Zint.neg const else Zint.zero in
  let lhs = side pos lhs_k and rhs = side neg rhs_k in
  match Constr.kind c with
  | Constr.Eq -> Printf.sprintf "%s = %s" lhs rhs
  | Constr.Geq -> Printf.sprintf "%s >= %s" lhs rhs

(* Render the analysis as a user query in the paper's style. *)
let render_query (an : analysis) : string =
  match an.cond with
  | Always -> "The dependence always exists (no condition to ask about)."
  | Never -> "The dependence never exists."
  | Unknown r ->
    Printf.sprintf
      "The analysis gave up (%s): the dependence must be assumed."
      (Budget.reason_to_string r)
  | When g ->
    let naming = make_naming an in
    let conds = List.map (render_constr naming) (Problem.constraints g) in
    let knowns =
      List.map (render_constr naming) (Problem.constraints an.known)
    in
    if naming.quantified = [] then
      Printf.sprintf
        "Is it the case that the following never happens?\n  %s\n(known: %s)"
        (String.concat " and " conds)
        (String.concat " and " knowns)
    else
      Printf.sprintf
        "Is it the case that for all %s such that\n\
        \  %s,\n\
         the following never happens?\n\
        \  %s"
        (String.concat " & " naming.quantified)
        (String.concat " and " knowns)
        (String.concat " and " conds)

(* ------------------------------------------------------------------ *)
(* Assertions about index arrays                                       *)
(* ------------------------------------------------------------------ *)

(* Properties a user can assert about an (index) array in response to a
   query.  They are instantiated pairwise over the opaque occurrences of
   the array in a dependence problem. *)
type array_property =
  | Injective (* a <> b implies Q[a] <> Q[b] *)
  | Strictly_increasing (* a < b implies Q[a] < Q[b] *)
  | Accumulator of Ir.access
      (* the scalar is only written by [x := x + e] with e >= 1 (the given
         write access); its value never decreases over time and strictly
         increases across any intervening increment (from induction
         recognition, section 5 / Example 11) *)

(* Instantiate [props] for every pair of opaque occurrences in the two
   instances, as Presburger formulas over their value/arg variables. *)
let property_formulas ctx (insts : Depctx.inst list)
    (props : (string * array_property) list) : Presburger.t list =
  ignore ctx;
  let occurrences =
    List.concat_map
      (fun (i : Depctx.inst) ->
        List.filter_map
          (fun (o : Ir.opaque) ->
            match o.Ir.base with
            | Some base ->
              let value = List.assoc o.Ir.opq_id i.Depctx.opq_vals in
              let args = List.assoc o.Ir.opq_id i.Depctx.opq_args in
              (match args with
               | [ arg ] -> Some (base, arg, value)
               | _ -> None)
            | None -> None)
          i.Depctx.access.Ir.opaques)
      insts
  in
  let pairs =
    List.concat_map
      (fun o1 -> List.map (fun o2 -> (o1, o2)) occurrences)
      occurrences
  in
  List.concat_map
    (fun ((b1, a1, v1), (b2, a2, v2)) ->
      if b1 <> b2 then []
      else
        List.filter_map
          (fun (base, prop) ->
            if base <> b1 then None
            else begin
              let ea1 = Linexpr.var a1 and ea2 = Linexpr.var a2 in
              let ev1 = Linexpr.var v1 and ev2 = Linexpr.var v2 in
              match prop with
              | Accumulator _ -> None (* handled per ordering level *)
              | Injective ->
                (* a1 = a2 or Q[a1] <> Q[a2]; as implication: a1 < a2 =>
                   values differ, handled with or_ *)
                Some
                  Presburger.(
                    or_
                      [
                        eq ea1 ea2;
                        lt ev1 ev2;
                        gt ev1 ev2;
                      ])
              | Strictly_increasing ->
                Some
                  Presburger.(
                    or_ [ ge ea1 ea2; lt ev1 ev2 ])
            end)
          props)
    pairs

(* Accumulator monotonicity, per ordering level: for occurrence values
   [va] (in the earlier instance) and [vb], [va <= vb] always; strictly
   [va + 1 <= vb] when an increment provably executes in between - for a
   carried level when the increment shares the nest of both accesses (the
   same-iteration increment intervenes), for the loop-independent level
   when the increment sits textually between the two statements. *)
let accumulator_constraints (a : Depctx.inst) (b : Depctx.inst) ~level
    (props : (string * array_property) list) : Constr.t list =
  let occurrences (i : Depctx.inst) base =
    List.filter_map
      (fun (o : Ir.opaque) ->
        if o.Ir.base = Some base && o.Ir.args = [] then
          Some (List.assoc o.Ir.opq_id i.Depctx.opq_vals)
        else None)
      i.Depctx.access.Ir.opaques
  in
  List.concat_map
    (fun (base, prop) ->
      match prop with
      | Accumulator incr ->
        let same_nest =
          incr.Ir.loop_nodes = a.Depctx.access.Ir.loop_nodes
          && incr.Ir.loop_nodes = b.Depctx.access.Ir.loop_nodes
        in
        let strict =
          if level >= 1 then
            same_nest
            && (Ir.textually_before a.Depctx.access incr
               || Ir.textually_before incr b.Depctx.access)
          else
            same_nest
            && Ir.textually_before a.Depctx.access incr
            && Ir.textually_before incr b.Depctx.access
        in
        List.concat_map
          (fun va ->
            List.map
              (fun vb ->
                let eva = Linexpr.var va and evb = Linexpr.var vb in
                if strict then Constr.lt eva evb else Constr.le eva evb)
              (occurrences b base))
          (occurrences a base)
      | Injective | Strictly_increasing -> [])
    props

(* Does a dependence of the given kind exist from [src] to [dst], given
   user-asserted properties of index arrays? *)
let dependence_exists_with ?(in_bounds = true) ctx ~(src : Ir.access)
    ~(dst : Ir.access) ~(props : (string * array_property) list) : bool =
  let a = Depctx.instantiate ctx src ~tag:Depctx.I in
  let b = Depctx.instantiate ctx dst ~tag:Depctx.J in
  let core =
    Depctx.assumes ctx
    @ Depctx.domain ~in_bounds ctx a
    @ Depctx.domain ~in_bounds ctx b
    @ Depctx.subs_equal ctx a b
  in
  let levels = Depctx.order_before a b in
  let prop_fs = property_formulas ctx [ a; b ] props in
  List.exists
    (fun (level, order) ->
      let acc_cs = accumulator_constraints a b ~level props in
      match
        Budget.run ~label:"symbolic/exists" (fun () ->
            Presburger.satisfiable
              (Presburger.and_
                 (List.map Presburger.atom (core @ order @ acc_cs) @ prop_fs)))
      with
      | Ok b -> b
      | Error _ -> true (* cannot refute: assume it exists *))
    levels
